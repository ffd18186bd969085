//! The session API: one entry point for compile→simulate across every
//! backend in the workspace.
//!
//! The workspace grew three parallel front doors — `Compiler::compile` +
//! `estimate_success` for TILT, `compile_qccd`/`estimate_qccd_success`
//! for the QCCD comparator, and `compile_scaled`/`estimate_scaled` for
//! MUSIQC-style ELU arrays — each with its own error type, config
//! surface, and report shape. [`Engine`] owns the device spec, the
//! noise/timing models, and the compilation policies **once**, then runs
//! one circuit or a thousand through them:
//!
//! * [`Engine::run`] — compile and estimate a single circuit, returning
//!   the unified [`RunReport`]. It runs the backend's one pass, which
//!   [`Engine::run_streaming`] runs over a gate stream (see [`stream`]).
//! * [`Engine::run_batch`] — many circuits through one session, one
//!   after another on the calling thread.
//! * [`Engine::run_batch_streaming`] — the same, delivering each report
//!   to a callback in submission order as each circuit completes.
//!
//! Errors from every backend unify into [`TiltError`], so `?` works
//! regardless of which architecture a session targets.
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::DeviceSpec;
//! use tilt_engine::{Backend, Engine};
//!
//! let mut ghz = Circuit::new(16);
//! ghz.h(Qubit(0));
//! for i in 1..16 {
//!     ghz.cnot(Qubit(i - 1), Qubit(i));
//! }
//! let engine = Engine::builder()
//!     .backend(Backend::Tilt(DeviceSpec::new(16, 8)?))
//!     .build()?;
//! let report = engine.run(&ghz)?;
//! assert!(report.success > 0.5);
//! assert!(report.compile.move_count >= 1);
//! # Ok::<(), tilt_engine::TiltError>(())
//! ```

pub mod admission;
pub mod cache;
pub mod error;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
pub mod overlay;
pub mod report;
pub mod service;
pub mod sim;
pub mod stream;
pub mod verify;

mod batch;

pub use admission::{AdmissionControl, AdmissionCounters, AdmissionPermit};
pub use cache::{CacheCounters, CacheKey, CompileCache, WireReport, DEFAULT_CACHE_CAPACITY};
pub use error::TiltError;
pub use overlay::{Overrides, RouterName};
pub use report::{BackendKind, CompileStats, RunDetail, RunReport};
pub use service::{Service, ServiceStats, ServiceSummary, ShutdownCause};
pub use sim::{SimMethod, SimReport, SimulatorKind};
pub use stream::{NullSink, StreamOutcome, StreamSink, DEFAULT_STREAM_WINDOW};
pub use tilt_compiler::verify::{Diagnostic, Severity};
pub use verify::VerifyLevel;

use std::sync::Arc;
use stream::{Out, Run};
use tilt_circuit::Circuit;
use tilt_compiler::{Compiler, DeviceSpec, InitialMapping, RouterKind, SchedulerKind};
use tilt_hash::{Digest, Fingerprint, Hasher};
use tilt_qccd::{QccdParams, QccdSpec};
use tilt_scale::ScaleSpec;
use tilt_sim::{CoolingPolicy, ExecTimeModel, GateTimeModel, NoiseModel};

/// The target architecture of a session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    /// A monolithic TILT tape.
    Tilt(DeviceSpec),
    /// A QCCD trap array (the paper's §VI-B comparator).
    Qccd(QccdSpec),
    /// A MUSIQC-style array of TILT ELUs (§VII).
    Scaled(ScaleSpec),
}

impl Backend {
    /// The tag for this backend.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Tilt(_) => BackendKind::Tilt,
            Backend::Qccd(_) => BackendKind::Qccd,
            Backend::Scaled(_) => BackendKind::Scaled,
        }
    }
}

/// Configures and validates an [`Engine`].
///
/// Every knob defaults to the paper's configuration: LinQ routing with
/// greedy scheduling, the Eq. 3/4/5 models, no sympathetic cooling.
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    backend: Option<Backend>,
    noise: NoiseModel,
    gate_times: GateTimeModel,
    exec_time: ExecTimeModel,
    cooling: CoolingPolicy,
    qccd_params: QccdParams,
    // `None` = "not set on the builder": the TILT backend falls back to
    // the paper defaults, the scaled backend keeps whatever the
    // `ScaleSpec` itself carries. This distinction is what lets both
    // `ScaleSpec::with_router(..)` and `.router(..)` on the builder
    // configure a scaled session without clobbering each other.
    router: Option<RouterKind>,
    scheduler: Option<SchedulerKind>,
    initial_mapping: Option<InitialMapping>,
    /// Shared content-addressed compile cache; `None` (the default)
    /// compiles every run from scratch.
    pub(crate) cache: Option<Arc<CompileCache>>,
    /// `None` (the default) = no logical-circuit simulation: report
    /// shapes stay bit-identical to pre-simulation sessions.
    sim_method: Option<SimMethod>,
    sim_seed: u64,
    /// Post-compile static verification (off by default).
    verify: VerifyLevel,
}

impl EngineBuilder {
    /// Selects the target architecture (required).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Replaces the Eq. 4 noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the Eq. 3 gate-time model.
    pub fn gate_times(mut self, times: GateTimeModel) -> Self {
        self.gate_times = times;
        self
    }

    /// Replaces the Eq. 5 shuttle-time model (TILT backend).
    pub fn exec_time(mut self, exec: ExecTimeModel) -> Self {
        self.exec_time = exec;
        self
    }

    /// Selects a sympathetic-cooling policy (TILT backend; the default
    /// is [`CoolingPolicy::never`], the configuration the paper
    /// evaluates).
    pub fn cooling(mut self, policy: CoolingPolicy) -> Self {
        self.cooling = policy;
        self
    }

    /// Replaces the QCCD primitive cost parameters (QCCD backend).
    pub fn qccd_params(mut self, params: QccdParams) -> Self {
        self.qccd_params = params;
        self
    }

    /// Selects the swap-insertion policy (TILT backend; per-ELU LinQ on
    /// the scaled backend).
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = Some(router);
        self
    }

    /// Selects the tape-scheduling policy (TILT backend; per-ELU LinQ
    /// on the scaled backend).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Selects the initial-placement strategy (TILT backend; per-ELU
    /// LinQ on the scaled backend).
    pub fn initial_mapping(mut self, initial: InitialMapping) -> Self {
        self.initial_mapping = Some(initial);
        self
    }

    /// Attaches a content-addressed compile cache: every run records its
    /// wire view under its `(circuit digest, config fingerprint)` key,
    /// and a [`Service`] built from this builder answers repeats from
    /// it. Runs themselves always compile. The cache is shared — hand
    /// the same [`Arc`] to several builders (or clone a builder, as the
    /// service does for per-request overrides) and they fill one cache;
    /// see [`cache`](crate::cache) for the key model.
    pub fn compile_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables logical-circuit simulation alongside compilation: every
    /// run also executes the *input* circuit on the simulator `method`
    /// selects and records the outcome in [`RunReport::sim`]. Off by
    /// default. The method (and seed) become part of the session's
    /// config fingerprint, so cached entries carry matching outcomes.
    pub fn simulate(mut self, method: SimMethod) -> Self {
        self.sim_method = Some(method);
        self
    }

    /// Seeds the simulator's RNG (default 0). Only observable when
    /// [`EngineBuilder::simulate`] is on.
    pub fn sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Enables post-compile static verification: every run's compiled
    /// artifacts are re-checked against the backend's program
    /// invariants (see [`verify`](crate::verify) for the levels and
    /// [`tilt_compiler::verify`] for the rule taxonomy). Off by
    /// default; the level becomes part of the session's config
    /// fingerprint, so no session answers from an entry recorded at
    /// another level.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// Validation happens **here, once** — router parameters are checked
    /// against the device spec so that per-circuit [`Engine::run`] calls
    /// never re-discover a configuration error mid-batch.
    ///
    /// # Errors
    ///
    /// [`TiltError::Config`] when no backend was selected or the noise
    /// model is out of range ([`NoiseModel::validate`]);
    /// [`TiltError::Compile`] when the router configuration is
    /// inconsistent with the TILT device spec.
    pub fn build(self) -> Result<Engine, TiltError> {
        let mut backend = self.backend.ok_or_else(|| TiltError::Config {
            reason: "no backend selected: call .backend(Backend::Tilt(spec)) or similar".into(),
        })?;
        self.noise
            .validate()
            .map_err(|reason| TiltError::Config { reason })?;
        let compiler = match &mut backend {
            Backend::Tilt(spec) => {
                let router = self.router.unwrap_or_default();
                router.validate(*spec)?;
                let mut compiler = Compiler::new(*spec);
                compiler
                    .router(router)
                    .scheduler(self.scheduler.unwrap_or_default())
                    .initial_mapping(self.initial_mapping.unwrap_or_default());
                Some(compiler)
            }
            // The session's routing knobs reach every ELU's LinQ
            // instance: explicitly-set builder policies overlay the
            // spec's own, and the combination is validated against the
            // per-ELU geometry here, once.
            Backend::Scaled(spec) => {
                if let Some(router) = self.router {
                    spec.router = router;
                }
                if let Some(scheduler) = self.scheduler {
                    spec.scheduler = scheduler;
                }
                if let Some(initial) = self.initial_mapping {
                    spec.initial_mapping = initial;
                }
                spec.validate_policies()?;
                None
            }
            // The QCCD spec was validated at construction; the tape
            // routing knobs do not apply to it.
            Backend::Qccd(_) => None,
        };
        // The config half of the compile-cache key, computed once from
        // the *resolved* configuration (post-overlay, post-default).
        let config_fp = self.config_fingerprint(&backend);
        Ok(Engine {
            backend,
            compiler,
            noise: self.noise,
            gate_times: self.gate_times,
            exec_time: self.exec_time,
            cooling: self.cooling,
            qccd_params: self.qccd_params,
            router: self.router.unwrap_or_default(),
            cache: self.cache,
            sim: self.sim_method.map(|m| (m, self.sim_seed)),
            verify: self.verify,
            config_fp,
        })
    }

    /// Fingerprints exactly the configuration surface each backend's
    /// compile + estimate path consults. Distinct backends write
    /// distinct leading tags, so a TILT session and a QCCD session never
    /// share keys even on improbable hash agreement of their specs.
    fn config_fingerprint(&self, backend: &Backend) -> Digest {
        let mut h = Hasher::new();
        match backend {
            Backend::Tilt(spec) => {
                h.write_str("tilt");
                spec.fingerprint_into(&mut h);
                self.router.unwrap_or_default().fingerprint_into(&mut h);
                self.scheduler.unwrap_or_default().fingerprint_into(&mut h);
                self.initial_mapping
                    .unwrap_or_default()
                    .fingerprint_into(&mut h);
                self.noise.fingerprint_into(&mut h);
                self.gate_times.fingerprint_into(&mut h);
                self.exec_time.fingerprint_into(&mut h);
                self.cooling.fingerprint_into(&mut h);
            }
            Backend::Qccd(spec) => {
                h.write_str("qccd");
                spec.fingerprint_into(&mut h);
                self.qccd_params.fingerprint_into(&mut h);
                self.noise.fingerprint_into(&mut h);
                self.gate_times.fingerprint_into(&mut h);
            }
            // The scaled spec already carries its per-ELU policies (the
            // builder overlay ran before this), its geometry, and the
            // photonic-link model.
            Backend::Scaled(spec) => {
                h.write_str("scaled");
                spec.fingerprint_into(&mut h);
                self.noise.fingerprint_into(&mut h);
                self.gate_times.fingerprint_into(&mut h);
            }
        }
        // Simulation outcomes live inside the cached entry, so the method
        // and seed must split the key space; sessions without simulation
        // write nothing and keep their pre-simulation fingerprints.
        if let Some(method) = self.sim_method {
            h.write_str("sim");
            h.write_tag(method.tag());
            h.write_u64(self.sim_seed);
        }
        // A strict session fails runs another level accepts, so the
        // level must split the key space; `Off` sessions write nothing
        // and keep their pre-verifier fingerprints.
        if self.verify != VerifyLevel::Off {
            h.write_str("verify");
            h.write_tag(self.verify.tag());
        }
        h.digest()
    }
}

/// A compile→simulate session bound to one backend and one set of
/// models.
///
/// Build with [`Engine::builder`] (or the [`Engine::tilt`] /
/// [`Engine::qccd`] / [`Engine::scaled`] shorthands), then call
/// [`Engine::run`] per circuit or [`Engine::run_batch`] for many. The
/// engine is immutable and `Sync`: one instance serves any number of
/// threads.
#[derive(Clone, Debug)]
pub struct Engine {
    backend: Backend,
    /// Pre-configured LinQ compiler ([`Backend::Tilt`] only).
    compiler: Option<Compiler>,
    noise: NoiseModel,
    gate_times: GateTimeModel,
    exec_time: ExecTimeModel,
    cooling: CoolingPolicy,
    qccd_params: QccdParams,
    /// Resolved routing policy — bounds the verifier's swap-chain rule.
    router: RouterKind,
    /// Shared compile cache, when the builder attached one.
    cache: Option<Arc<CompileCache>>,
    /// Logical-circuit simulation config (method, seed), when enabled.
    sim: Option<(SimMethod, u64)>,
    /// Post-compile static verification level.
    verify: VerifyLevel,
    /// Fingerprint of the resolved configuration — the config half of
    /// every cache key this session produces.
    config_fp: Digest,
}

impl Engine {
    /// Starts a builder with the paper-default models and policies.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// A default-configured session for a TILT tape.
    pub fn tilt(spec: DeviceSpec) -> Engine {
        Engine::builder()
            .backend(Backend::Tilt(spec))
            .build()
            .expect("a valid DeviceSpec with default policies always builds")
    }

    /// A default-configured session for a QCCD trap array.
    pub fn qccd(spec: QccdSpec) -> Engine {
        Engine::builder()
            .backend(Backend::Qccd(spec))
            .build()
            .expect("a valid QccdSpec with default policies always builds")
    }

    /// A default-configured session for an ELU array.
    pub fn scaled(spec: ScaleSpec) -> Engine {
        Engine::builder()
            .backend(Backend::Scaled(spec))
            .build()
            .expect("a valid ScaleSpec with default policies always builds")
    }

    /// The session's backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The session's noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The session's gate-time model.
    pub fn gate_times(&self) -> &GateTimeModel {
        &self.gate_times
    }

    /// The session's compile cache, when one is attached.
    pub fn compile_cache(&self) -> Option<&Arc<CompileCache>> {
        self.cache.as_ref()
    }

    /// Fingerprint of this session's resolved configuration — combined
    /// with [`tilt_circuit::Circuit::digest`], the complete compile-cache
    /// key. Two engines with equal fingerprints produce byte-identical
    /// results for every circuit.
    pub fn config_fingerprint(&self) -> Digest {
        self.config_fp
    }

    /// Compiles and estimates one circuit. It always compiles: an
    /// attached compile cache only records the result's wire view.
    ///
    /// # Errors
    ///
    /// Any backend compile error, unified into [`TiltError`]: invalid
    /// circuits, circuits wider than the device, per-ELU failures.
    ///
    /// # Example
    ///
    /// ```
    /// use tilt_benchmarks::bv::bernstein_vazirani;
    /// use tilt_compiler::DeviceSpec;
    /// use tilt_engine::Engine;
    ///
    /// let engine = Engine::tilt(DeviceSpec::new(16, 8)?);
    /// let report = engine.run(&bernstein_vazirani(16, &[true; 15]))?;
    /// assert!(report.success > 0.0 && report.success < 1.0);
    /// # Ok::<(), tilt_engine::TiltError>(())
    /// ```
    pub fn run(&self, circuit: &Circuit) -> Result<RunReport, TiltError> {
        let run = Run {
            n_qubits: circuit.n_qubits(),
            whole: Some(circuit),
            gates: &mut std::iter::empty(),
            // QCCD windows (the tape backends window a whole circuit
            // themselves); small enough to stay in cache.
            window: 1024,
        };
        let mut collect = Out::Collect {
            shards: Vec::new(),
            qccd: Vec::new(),
        };
        let (out, detail) = self.pass(run, &mut collect)?;
        // Simulation runs on the *logical* input circuit (what the user
        // wrote), not the routed native program — outcomes are
        // architecture-independent by construction.
        let sim = match self.sim {
            Some((method, seed)) => Some(sim::simulate(circuit, method, seed)?),
            None => None,
        };
        let report = RunReport {
            backend: out.backend,
            compile: out.compile,
            ln_success: out.ln_success,
            success: out.success,
            exec_time_us: out.exec_time_us,
            sim,
            diagnostics: out.diagnostics,
            detail: detail.expect("a collecting sink rebuilds the detail"),
        };
        // An attached cache records the wire view, without program text
        // (rendering it costs more than the compile; an `emit_program`
        // request records it through the service).
        if let Some(cache) = &self.cache {
            let key = CacheKey {
                circuit: cache.circuit_key(circuit),
                config: self.config_fp,
            };
            cache.insert(key, WireReport::of(&report));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_benchmarks::qaoa::qaoa_maxcut;
    use tilt_circuit::Qubit;
    use tilt_compiler::route::LinqConfig;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        c
    }

    #[test]
    fn builder_requires_a_backend() {
        let err = Engine::builder().build().unwrap_err();
        assert!(matches!(err, TiltError::Config { .. }));
        assert!(err.to_string().contains("no backend"));
    }

    #[test]
    fn builder_validates_router_against_spec() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let err = Engine::builder()
            .backend(Backend::Tilt(spec))
            .router(RouterKind::Linq(LinqConfig::with_max_swap_len(7)))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            TiltError::Compile(tilt_compiler::CompileError::InvalidRouterConfig { .. })
        ));
    }

    #[test]
    fn tilt_run_reports_unified_stats() {
        let engine = Engine::tilt(DeviceSpec::new(16, 4).unwrap());
        let report = engine.run(&ghz(16)).unwrap();
        assert_eq!(report.backend, BackendKind::Tilt);
        assert!(report.success > 0.0 && report.success < 1.0);
        assert!(report.exec_time_us > 0.0);
        assert!(report.compile.move_count >= 1);
        assert_eq!(report.compile.epr_pairs, 0);
        let out = report.tilt_output().unwrap();
        assert_eq!(out.report.move_count, report.compile.move_count);
    }

    #[test]
    fn qccd_run_reports_transports() {
        let engine = Engine::qccd(QccdSpec::for_qubits(16, 5).unwrap());
        let report = engine.run(&ghz(16)).unwrap();
        assert_eq!(report.backend, BackendKind::Qccd);
        assert!(report.compile.move_count > 0, "cross-trap GHZ must shuttle");
        assert_eq!(report.compile.swap_count, 0);
        assert!(report.qccd_report().unwrap().transports > 0);
    }

    #[test]
    fn scaled_run_reports_epr_pairs() {
        let engine = Engine::scaled(ScaleSpec::new(10, 4).unwrap());
        let report = engine.run(&ghz(16)).unwrap();
        assert_eq!(report.backend, BackendKind::Scaled);
        assert!(
            report.compile.epr_pairs >= 1,
            "GHZ chain crosses the ELU cut"
        );
        assert_eq!(
            report.compile.epr_pairs,
            report.scale_report().unwrap().remote_gates
        );
    }

    #[test]
    fn scaled_session_threads_policy_knobs() {
        // ROADMAP engine-coverage item: a scaled session with a
        // non-default scheduler must actually change the per-ELU
        // compiles (the knobs used to be silently dropped).
        let circuit = qaoa_maxcut(32, 2, 5);
        let spec = ScaleSpec::new(10, 4).unwrap();
        let base = Engine::scaled(spec).run(&circuit).unwrap();
        let naive = Engine::builder()
            .backend(Backend::Scaled(spec))
            .scheduler(SchedulerKind::NaiveNextGate)
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        assert_ne!(
            base.compile.move_count, naive.compile.move_count,
            "session scheduler must reach the ELU compilers"
        );
        // Builder-level and spec-level configuration are the same knob.
        let via_spec = Engine::scaled(spec.with_scheduler(SchedulerKind::NaiveNextGate))
            .run(&circuit)
            .unwrap();
        assert_eq!(naive.compile.move_count, via_spec.compile.move_count);
        assert_eq!(naive.ln_success, via_spec.ln_success);
    }

    #[test]
    fn scaled_builder_validates_router_against_elu_geometry() {
        let spec = ScaleSpec::new(10, 4).unwrap();
        let err = Engine::builder()
            .backend(Backend::Scaled(spec))
            .router(RouterKind::Linq(LinqConfig::with_max_swap_len(9)))
            .build()
            .unwrap_err();
        assert!(matches!(err, TiltError::Scale(_)), "{err}");
    }

    #[test]
    fn run_rejects_wide_circuits_per_backend() {
        let wide = Circuit::new(80);
        let tilt = Engine::tilt(DeviceSpec::tilt64(16));
        assert!(matches!(
            tilt.run(&wide).unwrap_err(),
            TiltError::Compile(tilt_compiler::CompileError::CircuitTooWide { .. })
        ));
        let qccd = Engine::qccd(QccdSpec::for_qubits(64, 16).unwrap());
        assert!(matches!(
            qccd.run(&wide).unwrap_err(),
            TiltError::Qccd(tilt_qccd::QccdError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn cooling_policy_changes_the_estimate() {
        let circuit = qaoa_maxcut(24, 4, 3);
        let spec = DeviceSpec::new(24, 4).unwrap();
        let base = Engine::tilt(spec).run(&circuit).unwrap();
        let cooled = Engine::builder()
            .backend(Backend::Tilt(spec))
            .cooling(CoolingPolicy::threshold(2.0))
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        let s = cooled.tilt_success().unwrap();
        assert!(s.cooling_rounds > 0);
        assert!(
            cooled.success > base.success,
            "cooling must help a hot chain"
        );
        assert!(
            cooled.exec_time_us > base.exec_time_us,
            "cooling costs time"
        );
    }

    #[test]
    fn simulation_is_off_by_default() {
        let engine = Engine::tilt(DeviceSpec::new(8, 4).unwrap());
        assert!(engine.run(&ghz(8)).unwrap().sim.is_none());
    }

    #[test]
    fn simulation_rides_along_with_the_report() {
        let mut c = ghz(8);
        for i in 0..8 {
            c.measure(Qubit(i));
        }
        let engine = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
            .simulate(SimMethod::Auto)
            .sim_seed(3)
            .build()
            .unwrap();
        let report = engine.run(&c).unwrap();
        let sim = report.sim.expect("simulation was requested");
        assert_eq!(sim.simulator, SimulatorKind::Stabilizer);
        assert_eq!(sim.measurements, 8);
        assert!(sim.bitstring == "00000000" || sim.bitstring == "11111111");
    }

    #[test]
    fn sim_config_splits_the_fingerprint() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let plain = Engine::tilt(spec);
        let auto = Engine::builder()
            .backend(Backend::Tilt(spec))
            .simulate(SimMethod::Auto)
            .build()
            .unwrap();
        let seeded = Engine::builder()
            .backend(Backend::Tilt(spec))
            .simulate(SimMethod::Auto)
            .sim_seed(7)
            .build()
            .unwrap();
        let forced = Engine::builder()
            .backend(Backend::Tilt(spec))
            .simulate(SimMethod::Stabilizer)
            .build()
            .unwrap();
        let fps = [
            plain.config_fingerprint(),
            auto.config_fingerprint(),
            seeded.config_fingerprint(),
            forced.config_fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
    }

    #[test]
    fn verification_is_off_by_default_and_clean_when_on() {
        // All three backends, strict: a fresh compile must carry zero
        // diagnostics — every integration circuit doubles as a verifier
        // fixture.
        let circuit = ghz(16);
        let off = Engine::tilt(DeviceSpec::new(16, 4).unwrap());
        assert!(off.run(&circuit).unwrap().diagnostics.is_empty());
        for backend in [
            Backend::Tilt(DeviceSpec::new(16, 4).unwrap()),
            Backend::Qccd(QccdSpec::for_qubits(16, 5).unwrap()),
            Backend::Scaled(ScaleSpec::new(10, 4).unwrap()),
        ] {
            let engine = Engine::builder()
                .backend(backend)
                .verify(VerifyLevel::Strict)
                .build()
                .unwrap();
            let report = engine.run(&circuit).unwrap_or_else(|e| {
                panic!("clean compile must verify under strict on {backend:?}: {e}")
            });
            assert_eq!(report.diagnostics, Vec::new());
        }
    }

    #[test]
    fn warn_level_attaches_diagnostics_without_failing() {
        let circuit = qaoa_maxcut(24, 4, 2);
        let engine = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(24, 6).unwrap()))
            .verify(VerifyLevel::Warn)
            .build()
            .unwrap();
        let report = engine.run(&circuit).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn verify_level_splits_the_fingerprint() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let mk = |level| {
            Engine::builder()
                .backend(Backend::Tilt(spec))
                .verify(level)
                .build()
                .unwrap()
                .config_fingerprint()
        };
        let fps = [
            mk(VerifyLevel::Off),
            mk(VerifyLevel::Warn),
            mk(VerifyLevel::Strict),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
        // Off is fingerprint-neutral: pre-verifier cache keys survive.
        assert_eq!(fps[0], Engine::tilt(spec).config_fingerprint());
    }

    #[test]
    fn non_clifford_under_forced_stabilizer_is_a_structured_error() {
        let mut c = ghz(8);
        c.t(Qubit(0));
        let engine = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
            .simulate(SimMethod::Stabilizer)
            .build()
            .unwrap();
        let err = engine.run(&c).unwrap_err();
        assert!(
            matches!(err, TiltError::NonClifford { index: 8, .. }),
            "{err}"
        );
    }

    #[test]
    fn build_rejects_an_out_of_range_noise_model() {
        let noise = NoiseModel {
            epsilon: -1.0,
            ..NoiseModel::default()
        };
        let e = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
            .noise(noise)
            .build()
            .unwrap_err();
        assert!(matches!(e, TiltError::Config { .. }), "{e}");
        assert!(e.to_string().contains("`epsilon`"), "{e}");
    }

    #[test]
    fn custom_models_flow_through() {
        // A noiseless model gives certain success on TILT.
        let noiseless = NoiseModel {
            gamma_per_us: 0.0,
            epsilon: 0.0,
            single_qubit_error: 0.0,
            measurement_error: 0.0,
            k_base: 0.0,
            n_ref: 8.0,
        };
        let engine = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
            .noise(noiseless)
            .build()
            .unwrap();
        let report = engine.run(&ghz(8)).unwrap();
        assert_eq!(report.success, 1.0);
    }
}
