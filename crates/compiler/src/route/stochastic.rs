//! Baseline swap insertion: a 1-D port of IBM Qiskit's `StochasticSwap`
//! (§IV-C "Baseline Approach" / §VI-A of the paper).
//!
//! For each unexecutable gate the policy runs `trials` randomized
//! attempts; each attempt samples a candidate swap between an endpoint and
//! an intermediate position (up to the full `head_size - 1` span — the
//! baseline deliberately allows maximal jumps, which is the behaviour the
//! paper criticizes) and keeps the attempt that brings the *current* gate
//! closest to executable. No look-ahead, no opposing-swap awareness: each
//! gate is resolved in isolation, exactly like running `StochasticSwap`
//! per-gate against the windowed 1-D coupling graph.

use super::{RouteState, SwapPolicy};
use crate::error::CompileError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the baseline policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StochasticConfig {
    /// Randomized attempts per swap decision (Qiskit's `trials`).
    pub trials: usize,
    /// RNG seed, for reproducible baselines.
    pub seed: u64,
}

impl Default for StochasticConfig {
    fn default() -> Self {
        StochasticConfig {
            trials: 20,
            seed: 0x51_0C_4A_57,
        }
    }
}

impl StochasticConfig {
    /// Checks parameter consistency.
    ///
    /// # Errors
    ///
    /// Rejects a zero trial count.
    pub fn validate(&self) -> Result<(), CompileError> {
        if self.trials == 0 {
            return Err(CompileError::InvalidRouterConfig {
                reason: "stochastic router needs at least one trial".into(),
            });
        }
        Ok(())
    }
}

/// Stateful baseline policy.
pub(crate) struct StochasticPolicy {
    trials: usize,
    rng: SmallRng,
}

impl StochasticPolicy {
    pub(crate) fn new(cfg: StochasticConfig) -> Self {
        StochasticPolicy {
            trials: cfg.trials,
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }
}

impl SwapPolicy for StochasticPolicy {
    fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize) {
        let (lo, hi) = state.endpoints();
        let d = hi - lo;
        let max_jump = (state.spec.head_size() - 1).min(d - 1);

        // Sample (endpoint, jump) pairs; keep the one minimizing the
        // resulting distance of the current gate. The resulting
        // distance is `d - jump` with `d` fixed for the whole decision,
        // so minimizing it is exactly maximizing the jump: the trial
        // loop tracks only the strictly-largest jump seen (first win
        // kept, as the seed's strict `<` did) and the candidate pair
        // plus its distance are materialized once, after the loop. The
        // RNG is consumed identically to the seed loop, so fixed seeds
        // reproduce the seed's routes bit-for-bit (pinned by
        // `trial_loop_matches_seed_semantics`).
        let mut best_jump = 0usize;
        let mut best_from_lo = true;
        for _ in 0..self.trials {
            let jump = self.rng.gen_range(1..=max_jump);
            let from_lo: bool = self.rng.gen();
            if jump > best_jump {
                best_jump = jump;
                best_from_lo = from_lo;
            }
        }
        debug_assert!(best_jump >= 1, "at least one trial ran");
        if best_from_lo {
            (lo, lo + best_jump)
        } else {
            (hi - best_jump, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InitialMapping;
    use crate::route::{RouteOutcome, RouterKind};
    use crate::spec::DeviceSpec;
    use tilt_circuit::{Circuit, Qubit};

    fn route_stochastic(c: &Circuit, n: usize, head: usize, seed: u64) -> RouteOutcome {
        let spec = DeviceSpec::new(n, head).unwrap();
        let initial = InitialMapping::Identity.build(c, n);
        RouterKind::Stochastic(StochasticConfig { trials: 20, seed })
            .route(c, spec, &initial)
            .unwrap()
    }

    #[test]
    fn zero_trials_is_rejected() {
        assert!(StochasticConfig { trials: 0, seed: 0 }.validate().is_err());
        assert!(StochasticConfig::default().validate().is_ok());
    }

    #[test]
    fn resolves_all_gates() {
        let mut c = Circuit::new(24);
        for i in 0..6 {
            c.xx(Qubit(i), Qubit(23 - i), 0.1);
        }
        let out = route_stochastic(&c, 24, 6, 1);
        for g in out.circuit.iter().filter(|g| g.is_two_qubit()) {
            assert!(g.span().unwrap() < 6, "{g:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        c.xx(Qubit(2), Qubit(13), 0.5);
        let a = route_stochastic(&c, 16, 4, 7);
        let b = route_stochastic(&c, 16, 4, 7);
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn uses_near_maximal_jumps() {
        // With 20 trials over jumps 1..=L-1, the sampled best is almost
        // surely the max jump; the baseline therefore needs close to the
        // minimum swap count per gate but at maximal span.
        let mut c = Circuit::new(32);
        c.xx(Qubit(0), Qubit(31), 0.5);
        let out = route_stochastic(&c, 32, 8, 3);
        // d=31, head 8: minimal swaps = ceil((31-7)/7) = 4.
        assert!(out.swap_count >= 4);
        assert!(
            out.swap_count <= 6,
            "baseline used {} swaps",
            out.swap_count
        );
        let max_span = out
            .circuit
            .iter()
            .filter_map(|g| match g {
                tilt_circuit::Gate::Swap(a, b) => Some(a.index().abs_diff(b.index())),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_span, 7, "baseline should jump maximally");
    }

    /// The seed's trial loop, verbatim: recomputes the candidate pair
    /// and resulting distance inside every attempt. The shipping policy
    /// hoists that out (max-jump tracking); this reference pins the two
    /// to identical routes under identical RNG streams.
    struct SeedPolicy {
        trials: usize,
        rng: SmallRng,
    }

    impl SwapPolicy for SeedPolicy {
        fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize) {
            let (lo, hi) = state.endpoints();
            let d = hi - lo;
            let max_jump = (state.spec.head_size() - 1).min(d - 1);
            let mut best: Option<((usize, usize), usize)> = None;
            for _ in 0..self.trials {
                let jump = self.rng.gen_range(1..=max_jump);
                let from_lo: bool = self.rng.gen();
                let cand = if from_lo {
                    (lo, lo + jump)
                } else {
                    (hi - jump, hi)
                };
                let new_d = d - jump;
                let better = match best {
                    None => true,
                    Some((_, bd)) => new_d < bd,
                };
                if better {
                    best = Some((cand, new_d));
                }
            }
            best.expect("at least one trial ran").0
        }
    }

    #[test]
    fn trial_loop_matches_seed_semantics() {
        use crate::route::oracle::route_with_policy;
        for (n, head, seed) in [
            (16usize, 4usize, 0u64),
            (24, 6, 7),
            (40, 16, 11),
            (32, 8, 99),
        ] {
            let mut c = Circuit::new(n);
            for i in 0..n / 4 {
                c.xx(Qubit(i), Qubit(n - 1 - i), 0.1 * (i + 1) as f64);
                c.xx(Qubit((i * 11) % n), Qubit((i * 11 + n / 2) % n), 0.05);
            }
            let spec = DeviceSpec::new(n, head).unwrap();
            let initial = InitialMapping::Identity.build(&c, n);
            let mut fast = StochasticPolicy::new(StochasticConfig { trials: 20, seed });
            let fast_out = route_with_policy(&c, spec, &initial, &mut fast);
            let mut reference = SeedPolicy {
                trials: 20,
                rng: SmallRng::seed_from_u64(seed),
            };
            let ref_out = route_with_policy(&c, spec, &initial, &mut reference);
            assert_eq!(
                fast_out.circuit, ref_out.circuit,
                "n={n} head={head} seed={seed}"
            );
            assert_eq!(fast_out.swap_count, ref_out.swap_count);
            assert_eq!(fast_out.final_mapping, ref_out.final_mapping);
        }
    }

    #[test]
    fn swaps_fit_under_head() {
        let mut c = Circuit::new(40);
        c.xx(Qubit(0), Qubit(39), 0.5);
        let out = route_stochastic(&c, 40, 16, 11);
        for g in &out.circuit {
            if let tilt_circuit::Gate::Swap(a, b) = g {
                assert!(a.index().abs_diff(b.index()) <= 15);
            }
        }
    }
}
