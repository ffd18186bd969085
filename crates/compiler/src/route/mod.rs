//! Qubit mapping and swap insertion (§IV-C of the paper).
//!
//! On TILT a two-qubit gate is executable only when its operands fit under
//! the laser head (`d_g < L`). The router walks the native circuit in
//! dependency order and, for each unexecutable gate, inserts SWAP gates
//! until the operands are close enough — updating the logical→physical
//! [`Mapping`] as it goes.
//!
//! Two swap-selection policies are provided:
//!
//! * [`linq`] — the paper's heuristic (Algorithm 1): candidates are
//!   position pairs between the gate's endpoints within `MaxSwapLen`,
//!   scored with the look-ahead sum of Eq. 1, which naturally pairs data
//!   moving in opposite directions into *opposing swaps* (Fig. 2c).
//! * [`stochastic`] — the baseline: a port of Qiskit's `StochasticSwap`
//!   restricted to 1-D windowed connectivity, which greedily jumps an
//!   endpoint the maximum allowed distance with randomized endpoint
//!   selection.
//!
//! Swaps are *long-range* gates: a SWAP between positions `d ≤ L-1` apart
//! is a single three-`XX` gate, not a chain of neighbour swaps — trapped
//! ions are fully connected inside the execution zone.

pub mod exact;
pub mod linq;
pub mod stochastic;
pub(crate) mod streaming;

use crate::error::CompileError;
use crate::mapping::Mapping;
use crate::spec::DeviceSpec;
use tilt_circuit::{Circuit, Gate, Qubit};

pub use exact::ExactConfig;
pub use linq::LinqConfig;
pub use stochastic::StochasticConfig;

/// Which swap-insertion policy to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RouterKind {
    /// The paper's Algorithm 1 heuristic.
    Linq(LinqConfig),
    /// The Qiskit-StochasticSwap-style baseline of §VI-A.
    Stochastic(StochasticConfig),
}

impl Default for RouterKind {
    fn default() -> Self {
        RouterKind::Linq(LinqConfig::default())
    }
}

/// A two-qubit gate awaiting routing: logical operands plus its layer in
/// the *two-qubit skeleton* of the circuit (used for the `α^Δ(g)` decay of
/// Eq. 1).
///
/// Δ is measured in two-qubit-gate layers, not native-gate layers: the
/// single-qubit rotations produced by decomposition would otherwise
/// inflate Δ several-fold and flatten the look-ahead term of Eq. 1 into
/// pure greediness.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingGate {
    pub a: Qubit,
    pub b: Qubit,
    pub layer: usize,
}

/// Incremental ASAP layering of the two-qubit skeleton: only two-qubit
/// gates advance per-qubit levels (single-qubit gates are transparent;
/// barriers synchronise everything).
pub(crate) struct Skeleton {
    level: Vec<usize>,
    /// Highest level reached so far. Levels never decrease, so this
    /// equals the max over all qubits a barrier synchronises to.
    peak: usize,
    barrier_level: usize,
}

impl Skeleton {
    pub(crate) fn new(n_qubits: usize) -> Self {
        Skeleton {
            level: vec![0; n_qubits],
            peak: 0,
            barrier_level: 0,
        }
    }

    /// Layers the next gate in program order; `Some` for two-qubit gates.
    pub(crate) fn push(&mut self, g: &Gate) -> Option<PendingGate> {
        if matches!(g, Gate::Barrier) {
            self.barrier_level = self.peak;
            return None;
        }
        if !g.is_two_qubit() {
            return None;
        }
        let qs = g.operands();
        let (a, b) = (qs[0], qs[1]);
        let layer = self.level[a.index()]
            .max(self.level[b.index()])
            .max(self.barrier_level);
        self.level[a.index()] = layer + 1;
        self.level[b.index()] = layer + 1;
        self.peak = self.peak.max(layer + 1);
        Some(PendingGate { a, b, layer })
    }
}

/// Per-qubit index into the pending-gate list: for each logical qubit,
/// the (ascending) indices of the pending two-qubit gates touching it.
///
/// Built **once per route** and shared by the Eq. 1 scorer and the
/// opposing-swap classifier, replacing their per-decision scans of the
/// pending list with `O(log)` binary searches.
pub(crate) struct PendingIndex {
    per_qubit: Vec<Vec<u32>>,
}

impl PendingIndex {
    pub(crate) fn build(pending: &[PendingGate], n_qubits: usize) -> Self {
        let mut per_qubit = vec![Vec::new(); n_qubits];
        for (i, g) in pending.iter().enumerate() {
            per_qubit[g.a.index()].push(i as u32);
            per_qubit[g.b.index()].push(i as u32);
        }
        PendingIndex { per_qubit }
    }

    /// The slice of gate indices touching `q` at or after `cursor`.
    pub(crate) fn gates_from(&self, q: Qubit, cursor: usize) -> &[u32] {
        let list = &self.per_qubit[q.index()];
        let start = list.partition_point(|&i| (i as usize) < cursor);
        &list[start..]
    }

    /// First pending gate touching `q` within `[cursor, horizon)`.
    pub(crate) fn first_gate_of(&self, q: Qubit, cursor: usize, horizon: usize) -> Option<usize> {
        match self.gates_from(q, cursor).first() {
            Some(&i) if (i as usize) < horizon => Some(i as usize),
            _ => None,
        }
    }
}

/// Everything a swap policy may inspect when choosing the next swap.
pub(crate) struct RouteState<'a> {
    pub spec: DeviceSpec,
    pub mapping: &'a Mapping,
    /// All two-qubit gates in program order.
    pub pending: &'a [PendingGate],
    /// Per-qubit index over `pending`, built once per route.
    pub index: &'a PendingIndex,
    /// Index into `pending` of the gate currently being resolved.
    pub cursor: usize,
}

impl RouteState<'_> {
    /// Positions of the current gate's endpoints, `(lo, hi)`.
    pub(crate) fn endpoints(&self) -> (usize, usize) {
        let g = &self.pending[self.cursor];
        let pa = self.mapping.position_of(g.a);
        let pb = self.mapping.position_of(g.b);
        (pa.min(pb), pa.max(pb))
    }
}

/// A swap-selection policy: given the route state, pick the next pair of
/// tape positions to swap. The returned pair must strictly reduce the
/// current gate's distance (all built-in policies guarantee this, which
/// guarantees router termination).
pub(crate) trait SwapPolicy {
    fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize);

    /// Forgets state keyed on pending-list coordinates, which the
    /// streaming router shifts when it drops the routed prefix.
    fn invalidate_window(&mut self) {}
}

/// Result of routing: the physical circuit and the statistics Fig. 6
/// reports.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Physical circuit over `n_ions` positions with `Gate::Swap`s
    /// inserted; every two-qubit gate now fits under the head.
    pub circuit: Circuit,
    /// The starting permutation used.
    pub initial_mapping: Mapping,
    /// The permutation after the final gate.
    pub final_mapping: Mapping,
    /// Number of inserted SWAP gates (Fig. 6b).
    pub swap_count: usize,
    /// How many inserted swaps were *opposing* — simultaneously moving two
    /// data streams toward partners in opposite directions (Fig. 2c).
    pub opposing_swap_count: usize,
}

impl RouteOutcome {
    /// Opposing-swap ratio (Fig. 6a); zero when no swaps were inserted.
    pub fn opposing_ratio(&self) -> f64 {
        opposing_ratio(self.opposing_swap_count, self.swap_count)
    }
}

/// `opposing / swaps`, zero when no swaps were inserted.
pub(crate) fn opposing_ratio(opposing: usize, swaps: usize) -> f64 {
    if swaps == 0 {
        0.0
    } else {
        opposing as f64 / swaps as f64
    }
}

impl RouterKind {
    /// Checks this policy's parameters against `spec` without routing
    /// anything — the session API (`tilt-engine`) calls this once at
    /// engine construction so configuration errors surface before the
    /// first circuit instead of inside every [`RouterKind::route`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidRouterConfig`] for inconsistent
    /// policy parameters (e.g. `max_swap_len` of 0 or `≥ head_size`).
    pub fn validate(&self, spec: DeviceSpec) -> Result<(), CompileError> {
        match self {
            RouterKind::Linq(cfg) => cfg.validate(spec),
            RouterKind::Stochastic(cfg) => cfg.validate(),
        }
    }

    /// A fresh instance of this swap policy for `spec`.
    pub(crate) fn policy(&self, spec: DeviceSpec) -> Box<dyn SwapPolicy + Send> {
        match self {
            RouterKind::Linq(cfg) => Box::new(linq::LinqPolicy::new(*cfg, spec)),
            RouterKind::Stochastic(cfg) => Box::new(stochastic::StochasticPolicy::new(*cfg)),
        }
    }

    /// The widest swap this policy may insert on `spec`, in ion
    /// spacings — the cap the `tilt/swap-chain` verifier rule checks
    /// routed circuits against.
    pub fn max_swap_span(&self, spec: DeviceSpec) -> usize {
        match self {
            RouterKind::Linq(cfg) => cfg.effective_max_swap_len(spec),
            // The baseline jumps an endpoint as far as the head allows.
            RouterKind::Stochastic(_) => spec.head_size() - 1,
        }
    }

    /// Routes `native` (a circuit already lowered to the native gate set or
    /// at least to two-qubit granularity) onto `spec`, starting from
    /// `initial` and inserting swaps with this policy. Drives the same
    /// incremental router the compile pipeline runs, over the whole
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CircuitTooWide`] when the circuit does not
    /// fit on the tape, or [`CompileError::InvalidRouterConfig`] for
    /// inconsistent policy parameters (e.g. `max_swap_len` of 0 or
    /// `≥ head_size`).
    pub fn route(
        &self,
        native: &Circuit,
        spec: DeviceSpec,
        initial: &Mapping,
    ) -> Result<RouteOutcome, CompileError> {
        spec.check_width(native.n_qubits())?;
        let mut router = streaming::StreamRouter::new(self, spec, initial.clone())?;
        router.extend(native.gates());
        router.finish_input();
        Ok(router.into_outcome(initial.clone()))
    }
}

/// How far ahead the opposing-swap classifier looks for each datum's next
/// partner.
const OPPOSING_HORIZON: usize = 256;

/// Classifies a swap of positions `(pa, pb)` as *opposing* (Fig. 2c): the
/// one swap must strictly shorten **two distinct** pending two-qubit gates
/// — one involving each swapped datum — i.e. it advances two independent
/// communications travelling in opposite directions. A swap that merely
/// serves both endpoints of a *single* gate (e.g. pulling BV's ancilla
/// toward its next partner) is a regular swap, which is why the paper
/// reports a zero opposing ratio for BV (§VI-A).
fn is_opposing(
    mapping: &Mapping,
    pending: &[PendingGate],
    index: &PendingIndex,
    cursor: usize,
    pa: usize,
    pb: usize,
) -> bool {
    let qa = mapping.logical_at(pa);
    let qb = mapping.logical_at(pb);
    let horizon = pending.len().min(cursor + OPPOSING_HORIZON);

    let (Some(ga), Some(gb)) = (
        index.first_gate_of(qa, cursor, horizon),
        index.first_gate_of(qb, cursor, horizon),
    ) else {
        return false;
    };
    if ga == gb {
        return false;
    }

    // Distance of pending gate `i` under the virtual swap of (pa, pb).
    let vdist = |i: usize| -> usize {
        let g = &pending[i];
        let vpos = |q: Qubit| {
            let p = mapping.position_of(q);
            if p == pa {
                pb
            } else if p == pb {
                pa
            } else {
                p
            }
        };
        vpos(g.a).abs_diff(vpos(g.b))
    };
    let dist = |i: usize| {
        let g = &pending[i];
        mapping.distance(g.a, g.b)
    };
    vdist(ga) < dist(ga) && vdist(gb) < dist(gb)
}

/// The router oracle: the seed's monolithic loop over a materialized
/// circuit, with the pending list built up front. The incremental router
/// must match it decision for decision.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// ASAP layering of the two-qubit skeleton over a whole circuit.
    pub(crate) fn pending_gates(native: &Circuit) -> Vec<PendingGate> {
        let mut level = vec![0usize; native.n_qubits()];
        let mut barrier_level = 0usize;
        let mut pending = Vec::with_capacity(native.len() / 2);
        for g in native {
            if matches!(g, Gate::Barrier) {
                barrier_level = barrier_level.max(level.iter().copied().max().unwrap_or(0));
                continue;
            }
            if !g.is_two_qubit() {
                continue;
            }
            let qs = g.qubits();
            let (a, b) = (qs[0], qs[1]);
            let layer = level[a.index()].max(level[b.index()]).max(barrier_level);
            level[a.index()] = layer + 1;
            level[b.index()] = layer + 1;
            pending.push(PendingGate { a, b, layer });
        }
        pending
    }

    /// Walks the circuit in program order (a topological order),
    /// inserting the policy's swaps before each unexecutable gate.
    pub(crate) fn route_with_policy(
        native: &Circuit,
        spec: DeviceSpec,
        initial: &Mapping,
        policy: &mut dyn SwapPolicy,
    ) -> RouteOutcome {
        let pending = pending_gates(native);
        let index = PendingIndex::build(&pending, spec.n_ions());

        let mut out = Circuit::with_capacity(spec.n_ions(), native.len() + native.len() / 4);
        let mut mapping = initial.clone();
        let mut cursor = 0usize;
        let mut swap_count = 0usize;
        let mut opposing_swap_count = 0usize;

        for g in native {
            if g.is_two_qubit() {
                let qs = g.qubits();
                while mapping.distance(qs[0], qs[1]) >= spec.head_size() {
                    let (pa, pb) = {
                        let state = RouteState {
                            spec,
                            mapping: &mapping,
                            pending: &pending,
                            index: &index,
                            cursor,
                        };
                        policy.choose_swap(&state)
                    };
                    if is_opposing(&mapping, &pending, &index, cursor, pa, pb) {
                        opposing_swap_count += 1;
                    }
                    out.swap(Qubit(pa.min(pb)), Qubit(pa.max(pb)));
                    mapping.swap_positions(pa, pb);
                    swap_count += 1;
                }
                cursor += 1;
            }
            out.push(g.map_qubits(|q| Qubit(mapping.position_of(q))));
        }

        RouteOutcome {
            circuit: out,
            initial_mapping: initial.clone(),
            final_mapping: mapping,
            swap_count,
            opposing_swap_count,
        }
    }

    /// [`route_with_policy`] with `kind`'s policy.
    pub(crate) fn route(
        kind: &RouterKind,
        native: &Circuit,
        spec: DeviceSpec,
        initial: &Mapping,
    ) -> RouteOutcome {
        route_with_policy(native, spec, initial, kind.policy(spec).as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InitialMapping;

    fn route(kind: &RouterKind, circuit: &Circuit, n_ions: usize, head: usize) -> RouteOutcome {
        let spec = DeviceSpec::new(n_ions, head).unwrap();
        let initial = InitialMapping::Identity.build(circuit, n_ions);
        kind.route(circuit, spec, &initial).unwrap()
    }

    fn all_kinds() -> Vec<RouterKind> {
        vec![
            RouterKind::Linq(LinqConfig::default()),
            RouterKind::Stochastic(StochasticConfig::default()),
        ]
    }

    #[test]
    fn executable_circuit_needs_no_swaps() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(3), 0.5).xx(Qubit(4), Qubit(7), 0.5);
        for kind in all_kinds() {
            let out = route(&kind, &c, 8, 4);
            assert_eq!(out.swap_count, 0, "{kind:?}");
            assert_eq!(out.circuit.two_qubit_count(), 2);
        }
    }

    #[test]
    fn long_gate_gets_swapped_within_head() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        for kind in all_kinds() {
            let out = route(&kind, &c, 16, 4);
            assert!(out.swap_count >= 1, "{kind:?}");
            // Every two-qubit gate in the output fits under the head.
            for g in out.circuit.iter().filter(|g| g.is_two_qubit()) {
                assert!(g.span().unwrap() < 4, "{kind:?}: {g:?}");
            }
        }
    }

    #[test]
    fn routed_circuit_applies_gate_to_tracked_positions() {
        // After routing, replaying the swaps recovers which logical pair
        // each XX acts on; it must match the original program.
        let mut c = Circuit::new(12);
        c.xx(Qubit(0), Qubit(11), 0.5);
        c.xx(Qubit(0), Qubit(1), 0.25);
        for kind in all_kinds() {
            let out = route(&kind, &c, 12, 4);
            let mut m = out.initial_mapping.clone();
            let mut seen = Vec::new();
            for g in &out.circuit {
                match g {
                    tilt_circuit::Gate::Swap(a, b) => m.swap_positions(a.index(), b.index()),
                    tilt_circuit::Gate::Xx(a, b, t) => {
                        let la = m.logical_at(a.index());
                        let lb = m.logical_at(b.index());
                        seen.push((la.min(lb), la.max(lb), *t));
                    }
                    _ => {}
                }
            }
            assert_eq!(
                seen,
                vec![(Qubit(0), Qubit(11), 0.5), (Qubit(0), Qubit(1), 0.25)],
                "{kind:?}"
            );
            assert_eq!(m, out.final_mapping, "{kind:?}");
        }
    }

    #[test]
    fn single_qubit_gates_are_remapped_too() {
        let mut c = Circuit::new(10);
        c.xx(Qubit(0), Qubit(9), 0.5);
        c.rx(Qubit(0), 1.0);
        for kind in all_kinds() {
            let out = route(&kind, &c, 10, 4);
            let mut m = out.initial_mapping.clone();
            let mut rx_logical = None;
            for g in &out.circuit {
                match g {
                    tilt_circuit::Gate::Swap(a, b) => m.swap_positions(a.index(), b.index()),
                    tilt_circuit::Gate::Rx(q, _) => rx_logical = Some(m.logical_at(q.index())),
                    _ => {}
                }
            }
            assert_eq!(rx_logical, Some(Qubit(0)), "{kind:?}");
        }
    }

    #[test]
    fn opposing_classifier_detects_fig2c() {
        // Layout: A _ B C ... gate (A, B') where B' right of B, and
        // (B, leftward partner). Construct the Fig. 2c situation directly:
        // order Q1 Q3 Q2 Q4, gates (Q1,Q2) and (Q3,Q4). Swapping positions
        // of Q3 and Q2 (1 and 2) helps both.
        let mapping = Mapping::identity(4);
        // logical: Q1=0 at 0, Q3=1 at 1, Q2=2 at 2, Q4=3 at 3.
        let pending = vec![
            PendingGate {
                a: Qubit(0),
                b: Qubit(2),
                layer: 0,
            },
            PendingGate {
                a: Qubit(1),
                b: Qubit(3),
                layer: 0,
            },
        ];
        let index = PendingIndex::build(&pending, 4);
        // Swap positions 1 and 2: logical 1 (Q3) moves right toward Q4 at 3;
        // logical 2 (Q2) moves left toward Q1 at 0.
        assert!(is_opposing(&mapping, &pending, &index, 0, 1, 2));
        // Swapping 0 and 1 helps only Q1's partner direction.
        assert!(!is_opposing(&mapping, &pending, &index, 0, 0, 1));
    }

    #[test]
    fn ancilla_pull_is_not_opposing() {
        // BV-like: every pending gate targets the ancilla (logical 5).
        // Pulling the ancilla toward its partners serves single gates, so
        // no swap is opposing (the paper's BV observation, §VI-A).
        let mapping = Mapping::identity(6);
        let pending = vec![
            PendingGate {
                a: Qubit(0),
                b: Qubit(5),
                layer: 0,
            },
            PendingGate {
                a: Qubit(1),
                b: Qubit(5),
                layer: 1,
            },
        ];
        let index = PendingIndex::build(&pending, 6);
        // Swap ancilla (pos 5) with the spectator ion at pos 2.
        assert!(!is_opposing(&mapping, &pending, &index, 0, 2, 5));
        // Swapping the two interacting endpoints directly is not opposing
        // either (distance unchanged).
        assert!(!is_opposing(&mapping, &pending, &index, 0, 0, 5));
    }

    #[test]
    fn skeleton_layers_ignore_single_qubit_gates() {
        let mut c = Circuit::new(4);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.rx(Qubit(1), 0.5);
        c.rz(Qubit(1), 0.5);
        c.xx(Qubit(1), Qubit(2), 0.1);
        c.xx(Qubit(0), Qubit(3), 0.1);
        let pending = oracle::pending_gates(&c);
        assert_eq!(pending.len(), 3);
        assert_eq!(pending[0].layer, 0);
        assert_eq!(pending[1].layer, 1); // chained through q1, rotations transparent
        assert_eq!(pending[2].layer, 1); // chained through q0
    }

    #[test]
    fn rejects_circuit_wider_than_tape() {
        let c = Circuit::new(20);
        let spec = DeviceSpec::new(16, 4).unwrap();
        let initial = Mapping::identity(16);
        let err = RouterKind::default().route(&c, spec, &initial).unwrap_err();
        assert!(matches!(err, CompileError::CircuitTooWide { .. }));
    }
}
