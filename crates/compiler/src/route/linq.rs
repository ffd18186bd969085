//! The LinQ swap-insertion heuristic (Algorithm 1 + Eq. 1 of the paper).
//!
//! For an unexecutable gate `g` on endpoints `(q1, q2)`, every position
//! `qi` strictly between the endpoints yields up to two candidates:
//! swap `qi` with the `q1`-side ion or with the `q2`-side ion, provided the
//! swap spans at most [`LinqConfig::max_swap_len`]. Each candidate mapping
//! `M_{qi,qj}` is scored with
//!
//! ```text
//! Score(M_{qi,qj}) = Σ_{g ∈ G} D(g, M_{qi,qj}) · α^Δ(g)        (Eq. 1)
//! ```
//!
//! where `G` are the remaining two-qubit gates, `D` the operand distance
//! under the candidate mapping, and `Δ(g)` the layer distance from the gate
//! being resolved. The candidate with the minimal score is applied. Because
//! future gates participate in the score, a swap that simultaneously
//! advances a second datum in the opposite direction scores lower — this is
//! how *opposing swaps* (Fig. 2c) emerge without special-casing.
//!
//! Restricting `max_swap_len` below `L-1` trades a few extra swaps for
//! freedom in tape scheduling (Fig. 5 / Fig. 7): a swap of span `L-1` can
//! execute at exactly one head position, so capping the span lets the
//! scheduler batch more gates per move.

use super::{RouteState, SwapPolicy};
use crate::error::CompileError;
use crate::spec::DeviceSpec;
use tilt_circuit::Qubit;

/// Tuning knobs for the LinQ policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinqConfig {
    /// Maximum span of an inserted SWAP gate, in ion spacings. `None`
    /// means the loosest feasible cap, `head_size - 1`. Fig. 7 sweeps this
    /// parameter; the best value is application-dependent.
    pub max_swap_len: Option<usize>,
    /// Look-ahead decay `α` of Eq. 1, `0 < α < 1`. The paper fixes a value
    /// in this range without publishing it; 0.9 is our default. No
    /// calibration backs it: ablation 1 of `tilt-bench`'s `ablation`
    /// binary sweeps `α` on QFT at head 16, where 0.5 and 0.7 both route
    /// with fewer swaps and tape moves than 0.9.
    pub alpha: f64,
    /// Number of upcoming two-qubit gates included in `G`. With `α = 0.5`
    /// contributions vanish numerically after a few tens of layers, so a
    /// window is equivalent to the full sum at a fraction of the cost.
    pub lookahead: usize,
}

impl Default for LinqConfig {
    fn default() -> Self {
        LinqConfig {
            max_swap_len: None,
            alpha: 0.9,
            lookahead: 128,
        }
    }
}

impl LinqConfig {
    /// Convenience constructor fixing only `max_swap_len` (the Fig. 7
    /// sweep parameter).
    pub fn with_max_swap_len(max_swap_len: usize) -> Self {
        LinqConfig {
            max_swap_len: Some(max_swap_len),
            ..LinqConfig::default()
        }
    }

    /// Checks parameter consistency against the device.
    ///
    /// # Errors
    ///
    /// Rejects `max_swap_len` of 0 or `≥ head_size` (a swap wider than the
    /// head could never execute), `α` outside `(0, 1)`, and a zero
    /// look-ahead window.
    pub fn validate(&self, spec: DeviceSpec) -> Result<(), CompileError> {
        if let Some(len) = self.max_swap_len {
            if len == 0 || len >= spec.head_size() {
                return Err(CompileError::InvalidRouterConfig {
                    reason: format!(
                        "max_swap_len {len} must be in 1..={} for head size {}",
                        spec.head_size() - 1,
                        spec.head_size()
                    ),
                });
            }
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(CompileError::InvalidRouterConfig {
                reason: format!("alpha {} must lie strictly between 0 and 1", self.alpha),
            });
        }
        if self.lookahead == 0 {
            return Err(CompileError::InvalidRouterConfig {
                reason: "lookahead window must be at least 1 (the current gate)".into(),
            });
        }
        Ok(())
    }

    /// The effective swap-span cap on `spec`.
    pub fn effective_max_swap_len(&self, spec: DeviceSpec) -> usize {
        self.max_swap_len.unwrap_or(spec.head_size() - 1)
    }
}

/// Stateful LinQ policy (implements Algorithm 1 one swap at a time).
///
/// The scorer is *incremental*: the decayed Eq. 1 weights for the
/// current look-ahead window are cached per pending-gate cursor
/// (several swap decisions usually serve one gate), and the gates
/// touching a candidate's two ions come from the route-wide
/// [`PendingIndex`](super::PendingIndex) instead of a per-decision
/// hash map. Correctness relies on one observation: the candidate
/// comparison only ever subtracts scores *within one decision*, so the
/// constant `Σ D(g)·α^Δ(g)` base term of Eq. 1 cancels and each
/// candidate needs only its **delta** over the gates its two ions
/// touch. The tests keep the seed's full-sum scorer as a reference.
pub(crate) struct LinqPolicy {
    cfg: LinqConfig,
    max_swap_len: usize,
    /// Cursor the cached weights belong to (`usize::MAX` = none).
    cached_cursor: usize,
    /// `α^Δ(g)` for each window offset at `cached_cursor`.
    weights: Vec<f64>,
    /// Window end (absolute pending index) at `cached_cursor`.
    window_end: usize,
}

impl LinqPolicy {
    pub(crate) fn new(cfg: LinqConfig, spec: DeviceSpec) -> Self {
        let max_swap_len = cfg.effective_max_swap_len(spec);
        LinqPolicy {
            cfg,
            max_swap_len,
            cached_cursor: usize::MAX,
            weights: Vec::new(),
            window_end: 0,
        }
    }

    /// Rebuilds the per-window weight cache when the routing cursor has
    /// moved since the last decision.
    fn refresh_window(&mut self, state: &RouteState<'_>) {
        if self.cached_cursor == state.cursor {
            return;
        }
        self.cached_cursor = state.cursor;
        self.window_end = state.pending.len().min(state.cursor + self.cfg.lookahead);
        let window = &state.pending[state.cursor..self.window_end];
        let cur_layer = window[0].layer;
        self.weights.clear();
        self.weights.extend(window.iter().map(|g| {
            // Skeleton layers are not monotone in program order (a later
            // gate on fresh qubits can sit in an earlier layer), so Δ
            // saturates at 0: such gates are "as urgent as" the current
            // one.
            self.cfg
                .alpha
                .powi(g.layer.saturating_sub(cur_layer) as i32)
        }));
    }

    /// Incremental scorer: Eq. 1 delta of swapping positions `(pa, pb)`
    /// — only gates touching the two swapped ions contribute.
    fn score_delta(&self, state: &RouteState<'_>, pa: usize, pb: usize) -> f64 {
        let la = state.mapping.logical_at(pa);
        let lb = state.mapping.logical_at(pb);
        // Virtual position lookup under the candidate swap.
        let vpos = |q: Qubit| -> usize {
            let p = state.mapping.position_of(q);
            if p == pa {
                pb
            } else if p == pb {
                pa
            } else {
                p
            }
        };
        let mut delta = 0.0f64;
        let mut visit = |idx: usize| {
            let g = &state.pending[idx];
            let old = state.mapping.distance(g.a, g.b) as f64;
            let new = vpos(g.a).abs_diff(vpos(g.b)) as f64;
            delta += (new - old) * self.weights[idx - self.cached_cursor];
        };
        for &i in state.index.gates_from(la, state.cursor) {
            let i = i as usize;
            if i >= self.window_end {
                break;
            }
            visit(i);
        }
        for &i in state.index.gates_from(lb, state.cursor) {
            let i = i as usize;
            if i >= self.window_end {
                break;
            }
            // Skip gates already visited through `la`.
            let g = &state.pending[i];
            if g.a != la && g.b != la {
                visit(i);
            }
        }
        delta
    }

    /// Algorithm 1 candidate enumeration: calls `consider(pa, pb)` for
    /// every legal swap, in a fixed order.
    fn for_each_candidate(&self, state: &RouteState<'_>, mut consider: impl FnMut(usize, usize)) {
        let (lo, hi) = state.endpoints();
        debug_assert!(hi - lo >= state.spec.head_size());
        for qi in (lo + 1)..hi {
            if qi - lo <= self.max_swap_len {
                consider(lo, qi);
            }
            if hi - qi <= self.max_swap_len {
                consider(qi, hi);
            }
        }
    }
}

impl SwapPolicy for LinqPolicy {
    /// Forgets the cached look-ahead window; the next decision rebuilds
    /// it from scratch. The rebuilt weights are identical, so decisions
    /// are unaffected.
    fn invalidate_window(&mut self) {
        self.cached_cursor = usize::MAX;
    }

    fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize) {
        self.refresh_window(state);
        let mut best: Option<((usize, usize), f64)> = None;
        self.for_each_candidate(state, |pa, pb| {
            let s = self.score_delta(state, pa, pb);
            if best.is_none_or(|(_, bs)| s < bs - 1e-12) {
                best = Some(((pa, pb), s));
            }
        });
        best.expect("an unexecutable gate always has swap candidates")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{InitialMapping, Mapping};
    use crate::route::oracle::route_with_policy;
    use crate::route::{RouteOutcome, RouterKind};
    use std::collections::HashMap;
    use tilt_circuit::Circuit;

    /// The seed's scorer, the reference the incremental one is checked
    /// against: it rebuilds the window weights and a hash-map qubit
    /// index for every swap decision and scores each candidate as the
    /// full Eq. 1 sum, `base + delta`.
    struct ReferencePolicy(LinqPolicy);

    impl SwapPolicy for ReferencePolicy {
        fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize) {
            let policy = &self.0;
            let window_end = state.pending.len().min(state.cursor + policy.cfg.lookahead);
            let window = &state.pending[state.cursor..window_end];
            let cur_layer = window[0].layer;

            let mut base_score = 0.0f64;
            let mut weights = Vec::with_capacity(window.len());
            let mut touching: HashMap<Qubit, Vec<usize>> = HashMap::new();
            for (i, g) in window.iter().enumerate() {
                let w = policy
                    .cfg
                    .alpha
                    .powi(g.layer.saturating_sub(cur_layer) as i32);
                weights.push(w);
                base_score += (state.mapping.distance(g.a, g.b) as f64) * w;
                touching.entry(g.a).or_default().push(i);
                touching.entry(g.b).or_default().push(i);
            }

            let mut best: Option<((usize, usize), f64)> = None;
            policy.for_each_candidate(state, |pa, pb| {
                let la = state.mapping.logical_at(pa);
                let lb = state.mapping.logical_at(pb);
                let vpos = |q: Qubit| -> usize {
                    let p = state.mapping.position_of(q);
                    if p == pa {
                        pb
                    } else if p == pb {
                        pa
                    } else {
                        p
                    }
                };
                let mut delta = 0.0f64;
                let mut visit = |idx: usize| {
                    let g = &window[idx];
                    let old = state.mapping.distance(g.a, g.b) as f64;
                    let new = vpos(g.a).abs_diff(vpos(g.b)) as f64;
                    delta += (new - old) * weights[idx];
                };
                for &i in touching.get(&la).into_iter().flatten() {
                    visit(i);
                }
                for &i in touching.get(&lb).into_iter().flatten() {
                    let g = &window[i];
                    if g.a != la && g.b != la {
                        visit(i);
                    }
                }
                let s = base_score + delta;
                if best.is_none_or(|(_, bs)| s < bs - 1e-12) {
                    best = Some(((pa, pb), s));
                }
            });
            best.expect("an unexecutable gate always has swap candidates")
                .0
        }
    }

    fn route_linq(c: &Circuit, n: usize, head: usize, cfg: LinqConfig) -> RouteOutcome {
        let spec = DeviceSpec::new(n, head).unwrap();
        let initial = InitialMapping::Identity.build(c, n);
        RouterKind::Linq(cfg).route(c, spec, &initial).unwrap()
    }

    #[test]
    fn default_config_is_valid() {
        LinqConfig::default()
            .validate(DeviceSpec::tilt64(16))
            .unwrap();
    }

    #[test]
    fn rejects_bad_parameters() {
        let spec = DeviceSpec::tilt64(16);
        assert!(LinqConfig::with_max_swap_len(0).validate(spec).is_err());
        assert!(LinqConfig::with_max_swap_len(16).validate(spec).is_err());
        assert!(LinqConfig::with_max_swap_len(15).validate(spec).is_ok());
        let bad_alpha = LinqConfig {
            alpha: 1.0,
            ..LinqConfig::default()
        };
        assert!(bad_alpha.validate(spec).is_err());
        let bad_window = LinqConfig {
            lookahead: 0,
            ..LinqConfig::default()
        };
        assert!(bad_window.validate(spec).is_err());
    }

    #[test]
    fn resolves_distance_with_minimal_swaps_when_unconstrained() {
        // d = 15 on a head of 8: one max-length swap (span 7) brings it to
        // 8, still ≥ 8 → second swap → 7 or less. Expect exactly 2 swaps
        // under the default (max-span) config with no competing gates.
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        let out = route_linq(&c, 16, 8, LinqConfig::default());
        assert_eq!(out.swap_count, 2);
    }

    #[test]
    fn swap_spans_respect_max_swap_len() {
        let mut c = Circuit::new(32);
        c.xx(Qubit(0), Qubit(31), 0.5);
        for cap in [3usize, 5, 7] {
            let out = route_linq(&c, 32, 8, LinqConfig::with_max_swap_len(cap));
            for g in &out.circuit {
                if let tilt_circuit::Gate::Swap(a, b) = g {
                    assert!(a.index().abs_diff(b.index()) <= cap, "cap {cap}: {g:?}");
                }
            }
        }
    }

    #[test]
    fn tighter_cap_needs_at_least_as_many_swaps() {
        let mut c = Circuit::new(32);
        for i in 0..4 {
            c.xx(Qubit(i), Qubit(31 - i), 0.5);
        }
        let loose = route_linq(&c, 32, 8, LinqConfig::default()).swap_count;
        let tight = route_linq(&c, 32, 8, LinqConfig::with_max_swap_len(2)).swap_count;
        assert!(tight >= loose, "tight {tight} < loose {loose}");
    }

    #[test]
    fn creates_opposing_swaps_for_counterflow_traffic() {
        // Two data streams crossing mid-tape: q4 travels right toward q11
        // while q7 travels left toward q0. A single swap exchanging the
        // two streams advances both gates — the Fig. 2c situation.
        let mut c = Circuit::new(12);
        c.xx(Qubit(4), Qubit(11), 0.1);
        c.xx(Qubit(7), Qubit(0), 0.1);
        let out = route_linq(&c, 12, 4, LinqConfig::default());
        assert!(out.swap_count > 0);
        assert!(
            out.opposing_swap_count > 0,
            "expected opposing swaps, got {out:?}"
        );
    }

    #[test]
    fn score_prefers_swap_helping_future_gate() {
        // Current gate: (0, 9) on head 8 → needs one swap. A future gate
        // (8, 0) means pulling qubit 0 rightward helps twice; pulling
        // qubit 9 leftward helps once. The chosen swap should move q0.
        let mut c = Circuit::new(10);
        c.xx(Qubit(0), Qubit(9), 0.5);
        c.xx(Qubit(8), Qubit(0), 0.5);
        let out = route_linq(&c, 10, 8, LinqConfig::default());
        assert_eq!(out.swap_count, 1);
        let swap = out
            .circuit
            .iter()
            .find_map(|g| match g {
                tilt_circuit::Gate::Swap(a, b) => Some((a.index(), b.index())),
                _ => None,
            })
            .unwrap();
        // The swap must involve position 0 (qubit 0 moving right).
        assert_eq!(swap.0, 0, "swap {swap:?} should move qubit 0");
    }

    #[test]
    fn effective_cap_defaults_to_head_minus_one() {
        let spec = DeviceSpec::tilt64(16);
        assert_eq!(LinqConfig::default().effective_max_swap_len(spec), 15);
        assert_eq!(
            LinqConfig::with_max_swap_len(9).effective_max_swap_len(spec),
            9
        );
    }

    #[test]
    fn incremental_and_reference_scorers_choose_identical_swaps() {
        // The incremental scorer drops the constant Eq. 1 base term
        // (argmin-invariant); the routed circuits must match the seed
        // scorer's exactly, swap for swap.
        let mut workloads: Vec<(Circuit, usize, usize)> = Vec::new();
        let mut crossing = Circuit::new(24);
        for i in 0..8 {
            crossing.xx(Qubit(i), Qubit(23 - i), 0.1 * (i + 1) as f64);
            crossing.xx(Qubit(23 - i), Qubit((i + 11) % 24), 0.07 * (i + 1) as f64);
        }
        workloads.push((crossing, 24, 6));
        let mut ladder = Circuit::new(16);
        for i in 0..15 {
            let partner = (i * 7 + 5) % 16;
            if partner != i {
                ladder.xx(Qubit(i), Qubit(partner), 0.2);
            }
        }
        workloads.push((ladder, 16, 4));
        for (circuit, n, head) in workloads {
            let fast = route_linq(&circuit, n, head, LinqConfig::default());
            let spec = DeviceSpec::new(n, head).unwrap();
            let initial = InitialMapping::Identity.build(&circuit, n);
            let mut reference = ReferencePolicy(LinqPolicy::new(LinqConfig::default(), spec));
            let slow = route_with_policy(&circuit, spec, &initial, &mut reference);
            assert_eq!(fast.circuit, slow.circuit);
            assert_eq!(fast.swap_count, slow.swap_count);
            assert_eq!(fast.opposing_swap_count, slow.opposing_swap_count);
            assert_eq!(fast.final_mapping, slow.final_mapping);
        }
    }

    #[test]
    fn deterministic() {
        let mut c = Circuit::new(24);
        for i in 0..6 {
            c.xx(Qubit(i), Qubit(23 - i), 0.1);
        }
        let a = route_linq(&c, 24, 6, LinqConfig::default());
        let b = route_linq(&c, 24, 6, LinqConfig::default());
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn final_mapping_is_consistent_with_swaps() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        let out = route_linq(&c, 16, 4, LinqConfig::default());
        let mut m = Mapping::identity(16);
        for g in &out.circuit {
            if let tilt_circuit::Gate::Swap(a, b) = g {
                m.swap_positions(a.index(), b.index());
            }
        }
        assert_eq!(m, out.final_mapping);
    }
}
