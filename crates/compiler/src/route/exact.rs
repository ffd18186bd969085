//! Exact minimal-swap routing for small instances.
//!
//! The paper contrasts heuristic swap insertion against solver-based
//! optimal approaches (ILP/MINLP, §IV-C and \[87\]) that "guarantee an
//! optimal solution" but scale exponentially. This module is that
//! reference point: a breadth-first search over `(qubit permutation,
//! resolved-gate index)` states that returns a provably swap-minimal
//! routing. Use it to measure the LinQ heuristic's optimality gap on
//! small circuits (see the `linq_vs_exact` tests and the ablation bench);
//! it is deliberately guarded against large instances.

use super::{is_opposing, PendingGate, PendingIndex, RouteOutcome, Skeleton};
use crate::error::CompileError;
use crate::mapping::Mapping;
use crate::spec::DeviceSpec;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use tilt_circuit::{Circuit, Qubit};

/// Configuration for the exact search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum span of an inserted SWAP (like
    /// [`LinqConfig::max_swap_len`](super::LinqConfig::max_swap_len));
    /// `None` means `head_size - 1`.
    pub max_swap_len: Option<usize>,
    /// State-count budget; the search aborts (with an error) beyond this.
    pub max_states: usize,
    /// Hard cap on tape width — `n!` states explode quickly.
    pub max_ions: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_swap_len: None,
            max_states: 2_000_000,
            max_ions: 9,
        }
    }
}

/// One BFS state: the layout permutation plus how many two-qubit gates
/// have been resolved.
type StateKey = (Vec<u8>, usize);

/// Routes `native` with a provably minimal number of inserted SWAPs.
///
/// Semantics match [`RouterKind::route`](super::RouterKind::route): the
/// result is a physical circuit in which every two-qubit gate fits under
/// the head, with [`RouteOutcome::swap_count`] guaranteed minimal for the
/// given initial mapping and swap-length cap.
///
/// # Errors
///
/// * [`CompileError::CircuitTooWide`] — circuit wider than the tape.
/// * [`CompileError::InvalidRouterConfig`] — tape wider than
///   [`ExactConfig::max_ions`], inconsistent `max_swap_len`, or search
///   budget exhausted.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::mapping::Mapping;
/// use tilt_compiler::route::exact::{optimal_route, ExactConfig};
/// use tilt_compiler::DeviceSpec;
///
/// let mut c = Circuit::new(6);
/// c.xx(Qubit(0), Qubit(5), 0.5);
/// let spec = DeviceSpec::new(6, 3)?;
/// let out = optimal_route(&c, spec, &Mapping::identity(6), &ExactConfig::default())?;
/// assert_eq!(out.swap_count, 2); // d=5 → 3, 3 → 1 with span-2 swaps
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn optimal_route(
    native: &Circuit,
    spec: DeviceSpec,
    initial: &Mapping,
    cfg: &ExactConfig,
) -> Result<RouteOutcome, CompileError> {
    spec.check_width(native.n_qubits())?;
    if spec.n_ions() > cfg.max_ions {
        return Err(CompileError::InvalidRouterConfig {
            reason: format!(
                "exact search over {} ions exceeds the {}-ion cap (n! states)",
                spec.n_ions(),
                cfg.max_ions
            ),
        });
    }
    let max_swap_len = cfg.max_swap_len.unwrap_or(spec.head_size() - 1);
    if max_swap_len == 0 || max_swap_len >= spec.head_size() {
        return Err(CompileError::InvalidRouterConfig {
            reason: format!(
                "max_swap_len {max_swap_len} must be in 1..={}",
                spec.head_size() - 1
            ),
        });
    }

    let mut skeleton = Skeleton::new(native.n_qubits());
    let pending: Vec<PendingGate> = native.iter().filter_map(|g| skeleton.push(g)).collect();
    let n = spec.n_ions();

    // Advance through every already-executable gate (free transitions).
    let advance = |perm: &[u8], mut k: usize| -> usize {
        while k < pending.len() {
            let g = &pending[k];
            let pa = perm
                .iter()
                .position(|&l| l as usize == g.a.index())
                .expect("qubit present");
            let pb = perm
                .iter()
                .position(|&l| l as usize == g.b.index())
                .expect("qubit present");
            if pa.abs_diff(pb) >= spec.head_size() {
                break;
            }
            k += 1;
        }
        k
    };

    // perm[pos] = logical qubit at tape position pos.
    let start_perm: Vec<u8> = (0..n)
        .map(|p| initial.logical_at(p).index() as u8)
        .collect();
    let start_k = advance(&start_perm, 0);

    // BFS: uniform swap cost, so first arrival is minimal.
    let mut parents: HashMap<StateKey, (StateKey, (usize, usize))> = HashMap::new();
    let mut seen: HashMap<StateKey, ()> = HashMap::new();
    let mut queue: VecDeque<StateKey> = VecDeque::new();
    let start: StateKey = (start_perm, start_k);
    seen.insert(start.clone(), ());
    queue.push_back(start.clone());

    let mut goal: Option<StateKey> = None;
    if start.1 == pending.len() {
        goal = Some(start.clone());
    }

    while let Some(state) = queue.pop_front() {
        if goal.is_some() {
            break;
        }
        let (perm, k) = &state;
        for lo in 0..n {
            for hi in (lo + 1)..n.min(lo + max_swap_len + 1) {
                let mut next_perm = perm.clone();
                next_perm.swap(lo, hi);
                let next_k = advance(&next_perm, *k);
                let key: StateKey = (next_perm, next_k);
                if let Entry::Vacant(e) = seen.entry(key.clone()) {
                    e.insert(());
                    if seen.len() > cfg.max_states {
                        return Err(CompileError::InvalidRouterConfig {
                            reason: format!(
                                "exact search exceeded the {}-state budget",
                                cfg.max_states
                            ),
                        });
                    }
                    parents.insert(key.clone(), (state.clone(), (lo, hi)));
                    if key.1 == pending.len() {
                        goal = Some(key.clone());
                        break;
                    }
                    queue.push_back(key);
                }
            }
            if goal.is_some() {
                break;
            }
        }
    }

    let goal = goal.expect("swap graph over permutations is connected");

    // Reconstruct the swap sequence, each tagged with the gate index it
    // was applied before.
    let mut swaps_rev: Vec<(usize, (usize, usize))> = Vec::new();
    let mut cursor = goal.clone();
    while let Some((parent, swap)) = parents.get(&cursor) {
        swaps_rev.push((parent.1, *swap));
        cursor = parent.clone();
    }
    swaps_rev.reverse();

    // Replay: walk the native circuit, applying each tagged swap before
    // the gate that needed it.
    let index = PendingIndex::build(&pending, n);
    let mut out = Circuit::with_capacity(n, native.len() + swaps_rev.len());
    let mut mapping = initial.clone();
    let mut swap_iter = swaps_rev.iter().peekable();
    let mut k = 0usize;
    let mut swap_count = 0usize;
    let mut opposing = 0usize;
    for g in native {
        if g.is_two_qubit() {
            while let Some(&&(tag, (lo, hi))) = swap_iter.peek() {
                if tag > k {
                    break;
                }
                if is_opposing(&mapping, &pending, &index, k, lo, hi) {
                    opposing += 1;
                }
                out.swap(Qubit(lo), Qubit(hi));
                mapping.swap_positions(lo, hi);
                swap_count += 1;
                swap_iter.next();
            }
            out.push(g.map_qubits(|q| Qubit(mapping.position_of(q))));
            k += 1;
        } else {
            out.push(g.map_qubits(|q| Qubit(mapping.position_of(q))));
        }
    }
    // Trailing swaps can only exist if the BFS appended them after the
    // last gate, which a minimal solution never does.
    debug_assert!(swap_iter.next().is_none());

    Ok(RouteOutcome {
        circuit: out,
        initial_mapping: initial.clone(),
        final_mapping: mapping,
        swap_count,
        opposing_swap_count: opposing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InitialMapping;
    use crate::route::{LinqConfig, RouterKind};

    fn exact(c: &Circuit, n: usize, head: usize) -> RouteOutcome {
        let spec = DeviceSpec::new(n, head).unwrap();
        optimal_route(c, spec, &Mapping::identity(n), &ExactConfig::default()).unwrap()
    }

    #[test]
    fn executable_circuit_needs_zero_swaps() {
        let mut c = Circuit::new(6);
        c.xx(Qubit(0), Qubit(2), 0.5);
        assert_eq!(exact(&c, 6, 4).swap_count, 0);
    }

    #[test]
    fn single_long_gate_minimal_swaps() {
        // d = 5 on head 3 (executable iff d ≤ 2, swaps span ≤ 2):
        // 5 → 3 → 1: two swaps.
        let mut c = Circuit::new(6);
        c.xx(Qubit(0), Qubit(5), 0.5);
        assert_eq!(exact(&c, 6, 3).swap_count, 2);
    }

    #[test]
    fn fig2c_needs_exactly_one_swap() {
        // The paper's opposing-swap example: order Q1 Q3 Q2 Q4, gates
        // (Q1,Q2) and (Q3,Q4) with head 2 (only adjacent executable).
        // One swap of the middle pair serves both gates.
        let mut c = Circuit::new(4);
        c.xx(Qubit(0), Qubit(2), 0.5); // Q1, Q2
        c.xx(Qubit(1), Qubit(3), 0.5); // Q3, Q4
        let out = exact(&c, 4, 2);
        assert_eq!(out.swap_count, 1);
        assert_eq!(out.opposing_swap_count, 1);
    }

    #[test]
    fn exact_respects_max_swap_len() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(7), 0.5);
        let spec = DeviceSpec::new(8, 4).unwrap();
        let tight = optimal_route(
            &c,
            spec,
            &Mapping::identity(8),
            &ExactConfig {
                max_swap_len: Some(1),
                ..ExactConfig::default()
            },
        )
        .unwrap();
        for g in &tight.circuit {
            if let tilt_circuit::Gate::Swap(a, b) = g {
                assert_eq!(a.index().abs_diff(b.index()), 1);
            }
        }
        // Span-1 swaps: d must fall from 7 to ≤ 3 → 4 swaps.
        assert_eq!(tight.swap_count, 4);
    }

    #[test]
    fn exact_replays_to_logical_program() {
        let mut c = Circuit::new(6);
        c.xx(Qubit(0), Qubit(5), 0.1);
        c.rx(Qubit(5), 0.7);
        c.xx(Qubit(1), Qubit(4), 0.2);
        let out = exact(&c, 6, 3);
        let mut m = out.initial_mapping.clone();
        let mut xx = Vec::new();
        for g in &out.circuit {
            match *g {
                tilt_circuit::Gate::Swap(a, b) => m.swap_positions(a.index(), b.index()),
                tilt_circuit::Gate::Xx(a, b, t) => {
                    let la = m.logical_at(a.index());
                    let lb = m.logical_at(b.index());
                    xx.push((la.min(lb), la.max(lb), t));
                }
                _ => {}
            }
        }
        assert_eq!(
            xx,
            vec![(Qubit(0), Qubit(5), 0.1), (Qubit(1), Qubit(4), 0.2)]
        );
        assert_eq!(m, out.final_mapping);
    }

    #[test]
    fn linq_matches_exact_on_simple_instances() {
        // On single-gate and two-gate instances the heuristic should be
        // optimal.
        let cases: Vec<Circuit> = vec![
            {
                let mut c = Circuit::new(6);
                c.xx(Qubit(0), Qubit(5), 0.5);
                c
            },
            {
                let mut c = Circuit::new(7);
                c.xx(Qubit(0), Qubit(6), 0.5);
                c.xx(Qubit(0), Qubit(1), 0.5);
                c
            },
        ];
        for circuit in cases {
            let n = circuit.n_qubits();
            let spec = DeviceSpec::new(n, 3).unwrap();
            let initial = InitialMapping::Identity.build(&circuit, n);
            let opt = optimal_route(&circuit, spec, &initial, &ExactConfig::default())
                .unwrap()
                .swap_count;
            let linq = RouterKind::Linq(LinqConfig::default())
                .route(&circuit, spec, &initial)
                .unwrap()
                .swap_count;
            assert_eq!(linq, opt, "heuristic should be optimal here");
        }
    }

    #[test]
    fn linq_never_beats_exact() {
        // Optimality sanity: on a batch of small random-ish circuits the
        // exact count lower-bounds LinQ.
        for seed in 0..6usize {
            let mut c = Circuit::new(7);
            for i in 0..5 {
                let a = (seed * 3 + i * 2) % 7;
                let b = (a + 3 + (seed + i) % 3) % 7;
                if a != b {
                    c.xx(Qubit(a), Qubit(b), 0.1);
                }
            }
            let spec = DeviceSpec::new(7, 3).unwrap();
            let initial = Mapping::identity(7);
            let opt = optimal_route(&c, spec, &initial, &ExactConfig::default())
                .unwrap()
                .swap_count;
            let linq = RouterKind::default()
                .route(&c, spec, &initial)
                .unwrap()
                .swap_count;
            assert!(linq >= opt, "seed {seed}: linq {linq} < optimal {opt}");
        }
    }

    #[test]
    fn wide_tapes_are_rejected() {
        let c = Circuit::new(12);
        let spec = DeviceSpec::new(12, 4).unwrap();
        let err =
            optimal_route(&c, spec, &Mapping::identity(12), &ExactConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::InvalidRouterConfig { .. }));
    }

    #[test]
    fn state_budget_is_enforced() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(7), 0.5);
        let spec = DeviceSpec::new(8, 2).unwrap();
        let err = optimal_route(
            &c,
            spec,
            &Mapping::identity(8),
            &ExactConfig {
                max_states: 10,
                ..ExactConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::InvalidRouterConfig { .. }));
    }
}
