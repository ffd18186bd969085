//! One translation from option names to an engine.
//!
//! The CLI's flags and the service's per-request fields name the same
//! things: a backend, machine dimensions, routing and scheduling
//! policies, a simulation method, a verification level and a noise
//! model. Both decode through [`Overrides::set`], one table that holds
//! each name's type check, name parser and error text, and
//! [`EngineBuilder::overlay`] is the one place those names become an
//! engine configuration: defaults, head clamping, inheritance from the
//! base backend, and the rejection of dimensions a backend has no use
//! for all live here.

use crate::{Backend, BackendKind, EngineBuilder, SimMethod, VerifyLevel};
use tilt_compiler::route::{LinqConfig, StochasticConfig};
use tilt_compiler::{DeviceSpec, RouterKind, SchedulerKind};
use tilt_qccd::QccdSpec;
use tilt_report::Json;
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

impl RouterName {
    /// Parses a router name (`linq`, or `stochastic` alias `baseline`).
    pub fn parse(name: &str) -> Option<RouterName> {
        match name {
            "linq" => Some(RouterName::Linq),
            "stochastic" | "baseline" => Some(RouterName::Stochastic),
            _ => None,
        }
    }
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

/// An option value as a surface spells it.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// A command-line argument: `--max-swap-len 4` gives `Arg("4")`.
    Arg(&'a str),
    /// A field of a run request or a `configure` message.
    Wire(&'a Json),
}

impl<'a> Value<'a> {
    fn count(self, key: &str) -> Result<usize, String> {
        match self {
            Value::Arg(text) => text
                .parse()
                .map_err(|_| format!("invalid --{} value `{text}`", key.replace('_', "-"))),
            Value::Wire(v) => match v.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as usize),
                _ => Err(format!("`{key}` must be a non-negative integer")),
            },
        }
    }

    fn number(self, key: &str) -> Result<f64, String> {
        match self {
            Value::Arg(text) => text
                .parse()
                .map_err(|_| format!("invalid --{} `{text}`", key.replace('_', "-"))),
            Value::Wire(v) => v
                .as_f64()
                .ok_or_else(|| format!("`{key}` must be a number")),
        }
    }

    /// A name through its type's one parser; an unknown name is an
    /// "unknown {noun}" error, followed by `expected`.
    fn name<T>(
        self,
        key: &str,
        parse: fn(&str) -> Option<T>,
        noun: &str,
        expected: &str,
    ) -> Result<T, String> {
        let name = match self {
            Value::Arg(text) => text,
            Value::Wire(v) => v
                .as_str()
                .ok_or_else(|| format!("`{key}` must be a string"))?,
        };
        parse(name).ok_or_else(|| format!("unknown {noun} `{name}`{expected}"))
    }

    /// A partial Eq. 4 object over `noise`, range-checked.
    fn noise(self, key: &str, mut noise: NoiseModel) -> Result<NoiseModel, String> {
        let Value::Wire(fields @ Json::Obj(_)) = self else {
            return Err(format!("`{key}` must be an object"));
        };
        for (name, slot) in [
            ("gamma_per_us", &mut noise.gamma_per_us),
            ("epsilon", &mut noise.epsilon),
            ("single_qubit_error", &mut noise.single_qubit_error),
            ("measurement_error", &mut noise.measurement_error),
            ("k_base", &mut noise.k_base),
            ("n_ref", &mut noise.n_ref),
        ] {
            if let Some(v) = fields.get(name) {
                *slot = v
                    .as_f64()
                    .ok_or_else(|| format!("noise field `{name}` must be a number"))?;
            }
        }
        noise.validate()?;
        Ok(noise)
    }
}

/// Every option name [`Overrides::set`] decodes, in the order a
/// request's fields are decoded.
pub const KEYS: [&str; 12] = [
    "ions",
    "head",
    "max_swap_len",
    "alpha",
    "router",
    "scheduler",
    "method",
    "verify",
    "noise",
    "backend",
    "ions_per_trap",
    "elu_ions",
];

impl Overrides {
    /// Decodes `v` as option `key` into its field: the one decoder of
    /// option names, with each one's type check, name parser and error
    /// text, for CLI flags and wire fields alike. A `noise` object
    /// overlays the model already set here (else the default) and must
    /// pass [`NoiseModel::validate`].
    ///
    /// # Errors
    ///
    /// An unknown key, a wrongly typed value, an unknown name, or an
    /// out-of-range noise model.
    pub fn set(&mut self, key: &str, v: Value<'_>) -> Result<(), String> {
        match key {
            "ions" => self.ions = Some(v.count(key)?),
            "head" => self.head = Some(v.count(key)?),
            "ions_per_trap" => self.ions_per_trap = Some(v.count(key)?),
            "elu_ions" => self.elu_ions = Some(v.count(key)?),
            "max_swap_len" => self.max_swap_len = Some(v.count(key)?),
            "alpha" => self.alpha = Some(v.number(key)?),
            "backend" => self.backend = Some(v.name(key, BackendKind::parse, key, "")?),
            "router" => self.router = Some(v.name(key, RouterName::parse, key, "")?),
            "scheduler" => self.scheduler = Some(v.name(key, SchedulerKind::parse, key, "")?),
            "method" => {
                let expected = " (expected auto, statevec, or stabilizer)";
                self.method = Some(v.name(key, SimMethod::parse, key, expected)?);
            }
            "verify" => {
                let expected = " (expected off, warn, or strict)";
                self.verify = Some(v.name(key, VerifyLevel::parse, "verify level", expected)?);
            }
            "noise" => self.noise = Some(v.noise(key, self.noise.unwrap_or_default())?),
            _ => return Err(format!("unknown option `{key}`")),
        }
        Ok(())
    }
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
    /// the ELU array, `head` on QCCD, `ions_per_trap` off QCCD,
    /// `elu_ions` off the ELU array), or an invalid machine.
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
                inapplicable("ions_per_trap", o.ions_per_trap, "ions")?;
                inapplicable("elu_ions", o.elu_ions, "ions")?;
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
                inapplicable("elu_ions", o.elu_ions, "ions_per_trap")?;
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
                inapplicable("ions_per_trap", o.ions_per_trap, "elu_ions")?;
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
