//! One translation from option names to an engine.
//!
//! The CLI's flags and the service's per-request fields name the same
//! things: a backend, machine dimensions, routing and scheduling
//! policies, a simulation method, a verification level and a noise
//! model. Both decode into [`Overrides`], and
//! [`EngineBuilder::overlay`] is the one place those names become an
//! engine configuration: defaults, head clamping, inheritance from the
//! base backend, and the rejection of dimensions a backend has no use
//! for all live here.

use crate::{Backend, BackendKind, EngineBuilder, SimMethod, VerifyLevel};
use tilt_compiler::route::{LinqConfig, StochasticConfig};
use tilt_compiler::{DeviceSpec, RouterKind, SchedulerKind};
use tilt_qccd::QccdSpec;
use tilt_scale::ScaleSpec;
use tilt_sim::NoiseModel;

/// Laser-head size when neither the caller nor the base names one.
pub const DEFAULT_HEAD: usize = 16;
/// QCCD trap capacity when neither the caller nor the base names one.
pub const DEFAULT_IONS_PER_TRAP: usize = 17;
/// Ions per ELU when neither the caller nor the base names one.
pub const DEFAULT_ELU_IONS: usize = 18;

/// A swap-insertion policy by name; the LinQ knobs are separate fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterName {
    /// The paper's Algorithm 1.
    Linq,
    /// The Qiskit-StochasticSwap-style baseline.
    Stochastic,
}

/// What a caller may name over a base engine configuration. Every field
/// is optional: `None` keeps the base's value (or the default).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overrides {
    /// Target backend; `None` keeps the base backend, or TILT.
    pub backend: Option<BackendKind>,
    /// TILT tape length (TILT only).
    pub ions: Option<usize>,
    /// Laser-head size: the TILT head, or each ELU's head (not QCCD).
    pub head: Option<usize>,
    /// Ions per QCCD trap.
    pub ions_per_trap: Option<usize>,
    /// Ions per ELU.
    pub elu_ions: Option<usize>,
    /// Router policy.
    pub router: Option<RouterName>,
    /// LinQ swap-span cap.
    pub max_swap_len: Option<usize>,
    /// LinQ Eq. 1 look-ahead decay.
    pub alpha: Option<f64>,
    /// Tape-scheduling policy.
    pub scheduler: Option<SchedulerKind>,
    /// Logical-circuit simulation method.
    pub method: Option<SimMethod>,
    /// Static verification level.
    pub verify: Option<VerifyLevel>,
    /// A finished Eq. 4 noise model.
    pub noise: Option<NoiseModel>,
}

/// Parses a backend name (`tilt`, `qccd`, `scaled`).
pub fn parse_backend(name: &str) -> Result<BackendKind, String> {
    match name {
        "tilt" => Ok(BackendKind::Tilt),
        "qccd" => Ok(BackendKind::Qccd),
        "scaled" => Ok(BackendKind::Scaled),
        other => Err(format!("unknown backend `{other}`")),
    }
}

/// Parses a router name (`linq`, or `stochastic` alias `baseline`).
pub fn parse_router(name: &str) -> Result<RouterName, String> {
    match name {
        "linq" => Ok(RouterName::Linq),
        "stochastic" | "baseline" => Ok(RouterName::Stochastic),
        other => Err(format!("unknown router `{other}`")),
    }
}

/// Parses a scheduler name (`greedy`, `naive`).
pub fn parse_scheduler(name: &str) -> Result<SchedulerKind, String> {
    match name {
        "greedy" => Ok(SchedulerKind::GreedyMaxExecutable),
        "naive" => Ok(SchedulerKind::NaiveNextGate),
        other => Err(format!("unknown scheduler `{other}`")),
    }
}

/// Parses a simulation method name (`auto`, `statevec`, `stabilizer`).
pub fn parse_method(name: &str) -> Result<SimMethod, String> {
    SimMethod::parse(name)
        .ok_or_else(|| format!("unknown method `{name}` (expected auto, statevec, or stabilizer)"))
}

/// Parses a verification level name (`off`, `warn`, `strict`).
pub fn parse_verify(name: &str) -> Result<VerifyLevel, String> {
    VerifyLevel::parse(name)
        .ok_or_else(|| format!("unknown verify level `{name}` (expected off, warn, or strict)"))
}

impl EngineBuilder {
    /// Applies `o` over this builder for a `width`-qubit register.
    ///
    /// Dimensions not named come from the base backend where it has
    /// them, else from `width` and the defaults; the head is clamped to
    /// the tape or ELU. A QCCD or ELU-array base is inherited whole
    /// (ELU policies included) unless its dimensions are named. Partial
    /// LinQ knobs overlay the base router.
    ///
    /// # Errors
    ///
    /// A dimension the target backend has no use for (`ions` on QCCD or
    /// the ELU array, `head` on QCCD), or an invalid machine.
    pub fn overlay(mut self, o: &Overrides, width: usize) -> Result<EngineBuilder, String> {
        let base = self.backend;
        let base_tape = match base {
            Some(Backend::Tilt(spec)) => Some(spec),
            _ => None,
        };
        let base_linq = match self.router {
            Some(RouterKind::Linq(cfg)) => cfg,
            _ => LinqConfig::default(),
        };
        let linq = RouterKind::Linq(LinqConfig {
            max_swap_len: o.max_swap_len.or(base_linq.max_swap_len),
            alpha: o.alpha.unwrap_or(base_linq.alpha),
            ..base_linq
        });
        match o.router {
            Some(RouterName::Stochastic) => {
                self.router = Some(RouterKind::Stochastic(StochasticConfig::default()));
            }
            Some(RouterName::Linq) => self.router = Some(linq),
            None if o.max_swap_len.is_some() || o.alpha.is_some() => self.router = Some(linq),
            None => {}
        }
        self.scheduler = o.scheduler.or(self.scheduler);
        self.sim_method = o.method.or(self.sim_method);
        self.verify = o.verify.unwrap_or(self.verify);
        self.noise = o.noise.unwrap_or(self.noise);

        let kind = o
            .backend
            .or(base.map(|b| b.kind()))
            .unwrap_or(BackendKind::Tilt);
        let inapplicable = |key: &str, value: Option<usize>, instead: &str| match value {
            Some(_) => Err(format!(
                "`{key}` does not apply to the {kind} backend; use `{instead}`"
            )),
            None => Ok(()),
        };
        let backend = match kind {
            BackendKind::Tilt => {
                let ions = o
                    .ions
                    .or(base_tape.map(|s| s.n_ions()))
                    .unwrap_or(width.max(2));
                let head = o
                    .head
                    .or(base_tape.map(|s| s.head_size()))
                    .unwrap_or(DEFAULT_HEAD);
                Backend::Tilt(DeviceSpec::new(ions, head.min(ions)).map_err(|e| e.to_string())?)
            }
            BackendKind::Qccd => {
                inapplicable("ions", o.ions, "ions_per_trap")?;
                inapplicable("head", o.head, "ions_per_trap")?;
                let base_qccd = match base {
                    Some(Backend::Qccd(spec)) => Some(spec),
                    _ => None,
                };
                match (o.ions_per_trap, base_qccd) {
                    (None, Some(spec)) => Backend::Qccd(spec),
                    (per_trap, base_qccd) => {
                        let per_trap = per_trap
                            .or(base_qccd.map(|s| s.capacity()))
                            .unwrap_or(DEFAULT_IONS_PER_TRAP);
                        let spec = QccdSpec::for_qubits(width.max(1), per_trap)
                            .map_err(|e| e.to_string())?;
                        Backend::Qccd(spec)
                    }
                }
            }
            BackendKind::Scaled => {
                inapplicable("ions", o.ions, "elu_ions")?;
                let base_elu = match base {
                    Some(Backend::Scaled(spec)) => Some(spec),
                    _ => None,
                };
                match (o.elu_ions, o.head, base_elu) {
                    (None, None, Some(spec)) => Backend::Scaled(spec),
                    (elu, head, base_elu) => {
                        let elu = elu
                            .or(base_elu.map(|s| s.ions_per_elu()))
                            .unwrap_or(DEFAULT_ELU_IONS);
                        let head = head
                            .or(base_elu.map(|s| s.head_size()))
                            .unwrap_or(DEFAULT_HEAD);
                        let mut spec =
                            ScaleSpec::new(elu, head.min(elu)).map_err(|e| e.to_string())?;
                        if let Some(s) = base_elu {
                            spec.epr = s.epr;
                            spec.router = s.router;
                            spec.scheduler = s.scheduler;
                            spec.initial_mapping = s.initial_mapping;
                        }
                        Backend::Scaled(spec)
                    }
                }
            }
        };
        Ok(self.backend(backend))
    }
}
