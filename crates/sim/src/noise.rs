//! The thermal-heating noise model (Eq. 4 of the paper).
//!
//! Every shuttle adds motional quanta to the chain; a hot chain makes the
//! Mølmer–Sørensen gate more sensitive to laser imperfections. After `m`
//! moves that each add `k` quanta, a two-qubit gate of duration `τ` has
//! fidelity
//!
//! ```text
//! F_m = 1 − Γτ + (1 − (1+ε)^{2mk+1})                     (Eq. 4)
//! ```
//!
//! where `Γ` is the trap's background heating rate and `ε` the per-gate
//! error from residual spin–motion entanglement. The exponential is kept
//! exact (the paper explicitly avoids linearizing it, §IV-E). The per-move
//! heating scales with chain length as `k ∝ √n` (§III-A / §IV-E): the
//! centre-of-mass mode softens while the stopping force stays constant.

/// Noise parameters of a trapped-ion device.
///
/// Defaults are chosen once and held fixed across all experiments: `ε`
/// is within the "as low as 10⁻³" two-qubit error budget of §II-B, `k`
/// is below Honeywell's 2-quanta-per-shuttle bound (§IV-E, linear
/// shuttles are cheaper than split/merge), and `Γτ` contributes
/// `~10⁻⁵`-per-gate background error. No fit to the paper's success
/// rates backs the exact values; `tests/paper_claims.rs` classes the
/// Fig. 8 numbers they produce against the paper's.
///
/// # Example
///
/// ```
/// use tilt_sim::NoiseModel;
///
/// let noise = NoiseModel::default();
/// let cold = noise.two_qubit_fidelity(48.0, 0.0);
/// let hot = noise.two_qubit_fidelity(48.0, 50.0);
/// assert!(hot < cold);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Background heating rate `Γ` per microsecond.
    pub gamma_per_us: f64,
    /// Residual-entanglement error `ε` per two-qubit gate.
    pub epsilon: f64,
    /// Constant single-qubit gate error (thermal-independent, §IV-E).
    pub single_qubit_error: f64,
    /// Measurement error (not modelled by the paper; defaults to 0).
    pub measurement_error: f64,
    /// Heating quanta added per shuttle for a chain of `n_ref` ions.
    pub k_base: f64,
    /// Reference chain length for `k_base` (Honeywell's 8-ion device).
    pub n_ref: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            gamma_per_us: 1e-7,
            epsilon: 1.2e-4,
            single_qubit_error: 1e-4,
            measurement_error: 0.0,
            k_base: 0.1,
            n_ref: 8.0,
        }
    }
}

impl NoiseModel {
    /// Checks every field is finite and in range: `gamma_per_us`,
    /// `epsilon` and `k_base` ≥ 0, the two error rates in [0, 1], and
    /// `n_ref` > 0. Out of range, Eq. 4 yields "success" above 1 or no
    /// number at all.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("gamma_per_us", self.gamma_per_us, "≥ 0"),
            ("epsilon", self.epsilon, "≥ 0"),
            ("single_qubit_error", self.single_qubit_error, "in [0, 1]"),
            ("measurement_error", self.measurement_error, "in [0, 1]"),
            ("k_base", self.k_base, "≥ 0"),
            ("n_ref", self.n_ref, "> 0"),
        ];
        for (name, x, range) in fields {
            let in_range = match range {
                "≥ 0" => x >= 0.0,
                "> 0" => x > 0.0,
                _ => (0.0..=1.0).contains(&x),
            };
            if !(x.is_finite() && in_range) {
                return Err(format!(
                    "noise field `{name}` must be finite and {range}, got {x}"
                ));
            }
        }
        Ok(())
    }

    /// Per-shuttle heating `k` for a chain of `n_ions`, scaled by `√n`
    /// relative to the reference chain (§IV-E).
    pub fn k_for_chain(&self, n_ions: usize) -> f64 {
        self.k_base * (n_ions as f64 / self.n_ref).sqrt()
    }

    /// Two-qubit gate fidelity (Eq. 4) for a gate of duration `tau_us`
    /// executed on a chain carrying `quanta` accumulated motional quanta
    /// (`m·k` for TILT; a per-primitive sum for QCCD).
    ///
    /// The value is clamped below at 0 — a sufficiently hot chain yields a
    /// certainly-failing gate rather than a negative fidelity.
    pub fn two_qubit_fidelity(&self, tau_us: f64, quanta: f64) -> f64 {
        let f = 1.0
            - self.gamma_per_us * tau_us
            - ((1.0 + self.epsilon).powf(2.0 * quanta + 1.0) - 1.0);
        f.max(0.0)
    }

    /// Single-qubit gate fidelity: independent of thermal energy (§IV-E).
    pub fn single_qubit_fidelity(&self) -> f64 {
        1.0 - self.single_qubit_error
    }

    /// Measurement fidelity.
    pub fn measurement_fidelity(&self) -> f64 {
        1.0 - self.measurement_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_chain_error_is_epsilon_plus_background() {
        let n = NoiseModel::default();
        let f = n.two_qubit_fidelity(100.0, 0.0);
        let expected = 1.0 - n.gamma_per_us * 100.0 - n.epsilon;
        assert!((f - expected).abs() < 1e-9);
    }

    #[test]
    fn fidelity_decreases_with_heat() {
        let n = NoiseModel::default();
        let mut prev = 1.0;
        for m in 0..200 {
            let f = n.two_qubit_fidelity(48.0, m as f64 * n.k_for_chain(64));
            assert!(f <= prev);
            prev = f;
        }
    }

    #[test]
    fn fidelity_decreases_with_gate_time() {
        let n = NoiseModel::default();
        assert!(n.two_qubit_fidelity(1000.0, 1.0) < n.two_qubit_fidelity(10.0, 1.0));
    }

    #[test]
    fn fidelity_clamped_at_zero() {
        let n = NoiseModel {
            epsilon: 0.5,
            ..NoiseModel::default()
        };
        assert_eq!(n.two_qubit_fidelity(10.0, 1e6), 0.0);
    }

    #[test]
    fn k_scales_as_sqrt_n() {
        let n = NoiseModel::default();
        let k8 = n.k_for_chain(8);
        let k32 = n.k_for_chain(32);
        assert!((k32 / k8 - 2.0).abs() < 1e-12);
        let k64 = n.k_for_chain(64);
        assert!((k64 / k8 - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_not_linearized() {
        // For large quanta the exact model must be strictly worse than the
        // linear approximation 1 - ε(2q+1).
        let n = NoiseModel::default();
        let q = 500.0;
        let exact = n.two_qubit_fidelity(0.0, q);
        let linear = 1.0 - n.epsilon * (2.0 * q + 1.0);
        assert!(exact < linear);
    }

    #[test]
    fn single_qubit_fidelity_is_thermal_independent() {
        let n = NoiseModel::default();
        assert_eq!(n.single_qubit_fidelity(), 1.0 - n.single_qubit_error);
    }

    #[test]
    fn validate_accepts_the_domain_and_names_the_field_outside_it() {
        let d = NoiseModel::default();
        assert_eq!(d.validate(), Ok(()));
        let edges = NoiseModel {
            gamma_per_us: 0.0,
            epsilon: 0.0,
            single_qubit_error: 1.0,
            measurement_error: 0.0,
            k_base: 0.0,
            n_ref: 1e-9,
        };
        assert_eq!(edges.validate(), Ok(()));
        let bad = [
            (
                "gamma_per_us",
                NoiseModel {
                    gamma_per_us: -1e-9,
                    ..d
                },
            ),
            (
                "gamma_per_us",
                NoiseModel {
                    gamma_per_us: f64::INFINITY,
                    ..d
                },
            ),
            ("epsilon", NoiseModel { epsilon: -1.0, ..d }),
            (
                "single_qubit_error",
                NoiseModel {
                    single_qubit_error: 1.5,
                    ..d
                },
            ),
            (
                "measurement_error",
                NoiseModel {
                    measurement_error: -0.1,
                    ..d
                },
            ),
            (
                "k_base",
                NoiseModel {
                    k_base: f64::NAN,
                    ..d
                },
            ),
            ("n_ref", NoiseModel { n_ref: 0.0, ..d }),
        ];
        for (field, model) in bad {
            let e = model.validate().unwrap_err();
            assert!(e.contains(&format!("`{field}`")), "{field}: {e}");
        }
    }
}
