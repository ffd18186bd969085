//! The incremental router: the only swap-insertion loop.
//!
//! [`StreamRouter`] routes a gate stream while holding only a bounded
//! suffix of the two-qubit skeleton in memory. [`RouterKind::route`]
//! drives it over a whole circuit and the compile pipeline drives it one
//! window at a time, so both produce the same routed gates.
//!
//! A two-qubit gate is routed only once `K = max(lookahead,
//! OPPOSING_HORIZON)` pending gates beyond it have been ingested (or the
//! stream ended): every policy decision and the opposing-swap classifier
//! inspect the pending list only inside `[cursor, cursor + K)`, so each
//! `min(len, cursor + K)` they compute is the value a router that saw
//! the whole circuit would compute. The tests check every decision
//! against the seed's monolithic loop (`route::oracle`).
//!
//! The already-routed prefix of the pending list is dropped in chunks
//! ([`PRUNE_CHUNK`]); indices are rebased to local coordinates and the
//! LinQ weight cache (keyed on the cursor coordinate) is invalidated,
//! which rebuilds identical weights and leaves decisions unchanged.

use std::collections::VecDeque;

use super::{is_opposing, PendingGate, PendingIndex, RouteOutcome, RouteState};
use super::{RouterKind, Skeleton, SwapPolicy, OPPOSING_HORIZON};
use crate::error::CompileError;
use crate::mapping::Mapping;
use crate::spec::DeviceSpec;
use tilt_circuit::{Circuit, Gate, Qubit};

/// Routed-prefix length at which the pending list is rebased.
const PRUNE_CHUNK: usize = 4096;

/// Push native gates, drain routed (physical-coordinate) gates.
pub(crate) struct StreamRouter {
    spec: DeviceSpec,
    /// The policy instance, carried across windows.
    policy: Box<dyn SwapPolicy + Send>,
    /// Pending gates required beyond the cursor before a decision is
    /// arithmetic-identical to one made seeing the whole circuit.
    ahead: usize,
    skeleton: Skeleton,
    /// Pending two-qubit gates in **local** coordinates: entry `i` is
    /// skeleton gate `base + i`.
    pending: Vec<PendingGate>,
    index: PendingIndex,
    base: usize,
    /// Local index of the skeleton gate currently being resolved.
    cursor: usize,
    /// Native gates ingested but not yet routed (head blocks on the
    /// ingest-ahead requirement; everything behind it waits in order).
    queue: VecDeque<Gate>,
    mapping: Mapping,
    eof: bool,
    swap_count: usize,
    opposing_swap_count: usize,
    /// Routed output awaiting collection by the caller.
    out: Vec<Gate>,
}

impl StreamRouter {
    /// Creates a streaming router for `kind` starting from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidRouterConfig`] exactly when
    /// [`RouterKind::validate`] does.
    pub(crate) fn new(
        kind: &RouterKind,
        spec: DeviceSpec,
        initial: Mapping,
    ) -> Result<Self, CompileError> {
        kind.validate(spec)?;
        let ahead = match kind {
            RouterKind::Linq(cfg) => cfg.lookahead.max(OPPOSING_HORIZON),
            RouterKind::Stochastic(_) => OPPOSING_HORIZON,
        };
        Ok(StreamRouter {
            spec,
            policy: kind.policy(spec),
            ahead,
            skeleton: Skeleton::new(spec.n_ions()),
            pending: Vec::new(),
            index: PendingIndex::build(&[], spec.n_ions()),
            base: 0,
            cursor: 0,
            queue: VecDeque::new(),
            mapping: initial,
            eof: false,
            swap_count: 0,
            opposing_swap_count: 0,
            out: Vec::new(),
        })
    }

    /// Ingests the next native gates (program order) and routes as much of
    /// the queue as the ingest-ahead requirement allows.
    pub(crate) fn extend(&mut self, gates: &[Gate]) {
        debug_assert!(!self.eof, "extend after finish_input");
        for &g in gates {
            // After a drain the queue is empty or starts with a blocked
            // two-qubit gate, which only a new pending gate can unblock.
            let unblocks = self.queue.is_empty() || g.is_two_qubit();
            self.add_pending(&g);
            self.queue.push_back(g);
            if unblocks {
                self.drain();
            }
        }
    }

    /// Layers `g` into the two-qubit skeleton and indexes it.
    fn add_pending(&mut self, g: &Gate) {
        if let Some(pending) = self.skeleton.push(g) {
            let i = u32::try_from(self.pending.len()).expect("pending window fits u32");
            self.index.per_qubit[pending.a.index()].push(i);
            self.index.per_qubit[pending.b.index()].push(i);
            self.pending.push(pending);
        }
    }

    /// Declares end of input: the remaining queue routes unconditionally
    /// (truncated windows now match the whole circuit's end).
    pub(crate) fn finish_input(&mut self) {
        self.eof = true;
        self.drain();
        debug_assert!(self.queue.is_empty());
    }

    /// Routed gates produced since the caller last cleared them, in
    /// program order.
    pub(crate) fn routed_mut(&mut self) -> &mut Vec<Gate> {
        &mut self.out
    }

    /// The finished routing, with every undrained routed gate as the
    /// physical circuit.
    pub(crate) fn into_outcome(self, initial_mapping: Mapping) -> RouteOutcome {
        RouteOutcome {
            circuit: Circuit::from_gates(self.spec.n_ions(), self.out),
            initial_mapping,
            final_mapping: self.mapping,
            swap_count: self.swap_count,
            opposing_swap_count: self.opposing_swap_count,
        }
    }

    /// Number of inserted SWAP gates so far.
    pub(crate) fn swap_count(&self) -> usize {
        self.swap_count
    }

    /// Number of opposing swaps so far (Fig. 2c).
    pub(crate) fn opposing_swap_count(&self) -> usize {
        self.opposing_swap_count
    }

    /// The current (after `finish_input`: final) mapping.
    pub(crate) fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Pending skeleton gates currently held (memory-bound diagnostics).
    #[cfg(test)]
    fn window_len(&self) -> usize {
        self.pending.len()
    }

    fn drain(&mut self) {
        while let Some(&g) = self.queue.front() {
            if g.is_two_qubit() && !self.eof && self.pending.len() < self.cursor + self.ahead {
                break;
            }
            self.route_gate(g);
            self.queue.pop_front();
        }
        if self.cursor >= PRUNE_CHUNK {
            self.rebase();
        }
    }

    /// Algorithm 1 for one gate: inserts the policy's swaps until a
    /// two-qubit gate fits under the head, then emits the gate in
    /// physical coordinates.
    fn route_gate(&mut self, g: Gate) {
        if g.is_two_qubit() {
            let qs = g.operands();
            while self.mapping.distance(qs[0], qs[1]) >= self.spec.head_size() {
                let state = RouteState {
                    spec: self.spec,
                    mapping: &self.mapping,
                    pending: &self.pending,
                    index: &self.index,
                    cursor: self.cursor,
                };
                let (pa, pb) = self.policy.choose_swap(&state);
                debug_assert!(pa != pb && pa.abs_diff(pb) < self.spec.head_size());
                if is_opposing(
                    &self.mapping,
                    &self.pending,
                    &self.index,
                    self.cursor,
                    pa,
                    pb,
                ) {
                    self.opposing_swap_count += 1;
                }
                self.out
                    .push(Gate::Swap(Qubit(pa.min(pb)), Qubit(pa.max(pb))));
                self.mapping.swap_positions(pa, pb);
                self.swap_count += 1;
            }
            self.cursor += 1;
        }
        self.out
            .push(g.map_qubits(|q| Qubit(self.mapping.position_of(q))));
    }

    /// Drops the routed prefix `[0, cursor)` of the pending list and
    /// rebases all indices to the new origin.
    fn rebase(&mut self) {
        let k = self.cursor;
        self.pending.drain(..k);
        self.base += k;
        self.cursor = 0;
        let cut = u32::try_from(k).expect("prune chunk fits u32");
        for list in &mut self.index.per_qubit {
            let split = list.partition_point(|&i| i < cut);
            list.drain(..split);
            for i in list.iter_mut() {
                *i -= cut;
            }
        }
        self.policy.invalidate_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InitialMapping;
    use crate::route::{oracle, LinqConfig, StochasticConfig};
    use tilt_circuit::Circuit;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random native-granularity workload: far XX pairs, rotations,
    /// occasional barriers.
    fn workload(n: usize, len: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed;
        for _ in 0..len {
            match xorshift(&mut s) % 10 {
                0 => {
                    c.barrier();
                }
                1..=3 => {
                    let q = Qubit((xorshift(&mut s) as usize) % n);
                    c.rz(q, 0.25);
                }
                _ => {
                    let a = (xorshift(&mut s) as usize) % n;
                    let mut b = (xorshift(&mut s) as usize) % n;
                    if a == b {
                        b = (b + 1) % n;
                    }
                    c.xx(Qubit(a), Qubit(b), 0.5);
                }
            }
        }
        c
    }

    fn kinds() -> Vec<RouterKind> {
        vec![
            RouterKind::Linq(LinqConfig::default()),
            RouterKind::Linq(LinqConfig {
                max_swap_len: Some(3),
                lookahead: 17,
                ..LinqConfig::default()
            }),
            RouterKind::Stochastic(StochasticConfig::default()),
        ]
    }

    fn stream_route(kind: &RouterKind, c: &Circuit, spec: DeviceSpec) -> (Vec<Gate>, RouteOutcome) {
        let initial = InitialMapping::Identity.build(c, spec.n_ions());
        let mono = oracle::route(kind, c, spec, &initial);
        // The whole-circuit entry point drives the same router.
        let whole = kind.route(c, spec, &initial).unwrap();
        assert_eq!(whole.circuit, mono.circuit, "{kind:?}");
        assert_eq!(whole.final_mapping, mono.final_mapping, "{kind:?}");
        assert_eq!(whole.swap_count, mono.swap_count, "{kind:?}");
        assert_eq!(whole.opposing_swap_count, mono.opposing_swap_count);
        let mut sr = StreamRouter::new(kind, spec, initial).unwrap();
        let mut got = Vec::new();
        for g in c {
            sr.extend(&[*g]);
            got.append(sr.routed_mut());
        }
        sr.finish_input();
        got.append(sr.routed_mut());
        assert_eq!(sr.swap_count(), mono.swap_count, "{kind:?}");
        assert_eq!(
            sr.opposing_swap_count(),
            mono.opposing_swap_count,
            "{kind:?}"
        );
        assert_eq!(sr.mapping(), &mono.final_mapping, "{kind:?}");
        (got, mono)
    }

    #[test]
    fn streamed_route_matches_monolithic() {
        for (n, head, len, seed) in [(16usize, 4usize, 300usize, 7u64), (32, 8, 800, 41)] {
            let spec = DeviceSpec::new(n, head).unwrap();
            let c = workload(n, len, seed);
            for kind in kinds() {
                let (got, mono) = stream_route(&kind, &c, spec);
                assert_eq!(got, mono.circuit.gates(), "{kind:?} n={n} head={head}");
            }
        }
    }

    #[test]
    fn rebase_crossing_matches_monolithic_and_stays_bounded() {
        // Enough two-qubit gates to cross PRUNE_CHUNK several times.
        let n = 24;
        let spec = DeviceSpec::new(n, 6).unwrap();
        let mut c = Circuit::new(n);
        let mut s = 0xFEED_u64;
        for _ in 0..(PRUNE_CHUNK * 2 + 500) {
            let a = (xorshift(&mut s) as usize) % n;
            let mut b = (xorshift(&mut s) as usize) % n;
            if a == b {
                b = (b + 1) % n;
            }
            c.xx(Qubit(a), Qubit(b), 0.5);
        }
        let kind = RouterKind::Linq(LinqConfig::default());
        let initial = InitialMapping::Identity.build(&c, n);
        let mono = oracle::route(&kind, &c, spec, &initial);
        let mut sr = StreamRouter::new(&kind, spec, initial).unwrap();
        let mut got = Vec::new();
        let mut peak_window = 0usize;
        for g in &c {
            sr.extend(&[*g]);
            peak_window = peak_window.max(sr.window_len());
            got.append(sr.routed_mut());
        }
        sr.finish_input();
        got.append(sr.routed_mut());
        assert_eq!(got, mono.circuit.gates());
        assert_eq!(sr.swap_count(), mono.swap_count);
        assert_eq!(sr.mapping(), &mono.final_mapping);
        // The pending window never holds more than one prune chunk plus
        // the ingest-ahead margin.
        assert!(
            peak_window <= PRUNE_CHUNK + 2 * OPPOSING_HORIZON,
            "window grew to {peak_window}"
        );
    }

    #[test]
    fn barriers_and_measurements_pass_through_in_order() {
        let n = 12;
        let spec = DeviceSpec::new(n, 4).unwrap();
        let mut c = Circuit::new(n);
        c.xx(Qubit(0), Qubit(11), 0.5);
        c.barrier();
        c.measure(Qubit(0)).reset_qubit(Qubit(0));
        c.xx(Qubit(0), Qubit(1), 0.25);
        for kind in kinds() {
            let (got, mono) = stream_route(&kind, &c, spec);
            assert_eq!(got, mono.circuit.gates(), "{kind:?}");
        }
    }
}
