//! Greedy QCCD placement and routing.
//!
//! Logical qubits are placed contiguously across the trap array. For a
//! cross-trap gate the router moves one endpoint to the partner's trap
//! (Fig. 3a of the TILT paper: swap to chain edge → split → shuttle →
//! merge → interact) and leaves it there — moved data tends to be reused
//! where it lands. When a destination chain is full, the router first
//! evicts an edge ion onward (capacity headroom guarantees this settles).

use crate::error::QccdError;
use crate::program::{QccdOp, QccdProgram};
use crate::spec::QccdSpec;
use tilt_circuit::{Circuit, Gate, ValidateCircuitError};

/// The greedy router as a fold over the trap array, one gate at a time;
/// [`compile_qccd`] drives it over a whole circuit.
pub struct QccdRouter {
    spec: QccdSpec,
    /// Chain contents per trap, in physical order (logical qubit ids).
    chains: Vec<Vec<usize>>,
    /// logical qubit → (trap, index in chain).
    loc: Vec<(usize, usize)>,
    /// Primitives routed since the last drain.
    ops: Vec<QccdOp>,
    gates_seen: usize,
}

impl QccdRouter {
    /// A router for an `n_qubits`-wide register, placed contiguously
    /// across `spec`'s traps.
    ///
    /// # Errors
    ///
    /// [`QccdError::CircuitTooWide`], as [`compile_qccd`].
    pub fn new(spec: &QccdSpec, n_qubits: usize) -> Result<Self, QccdError> {
        if n_qubits > spec.usable_slots() {
            return Err(QccdError::CircuitTooWide {
                circuit_qubits: n_qubits,
                usable_slots: spec.usable_slots(),
            });
        }
        Ok(QccdRouter::place(*spec, n_qubits))
    }

    /// Places `n_qubits` contiguously, without the headroom check.
    fn place(spec: QccdSpec, n_qubits: usize) -> Self {
        let traps = spec.n_traps();
        let base = n_qubits / traps;
        let extra = n_qubits % traps;
        let mut chains = Vec::with_capacity(traps);
        let mut loc = vec![(0usize, 0usize); n_qubits];
        let mut next = 0usize;
        for t in 0..traps {
            let fill = base + usize::from(t < extra);
            let chain: Vec<usize> = (next..next + fill).collect();
            for (i, &q) in chain.iter().enumerate() {
                loc[q] = (t, i);
            }
            next += fill;
            chains.push(chain);
        }
        QccdRouter {
            spec,
            chains,
            loc,
            ops: Vec::new(),
            gates_seen: 0,
        }
    }

    fn reindex(&mut self, trap: usize) {
        for (i, &q) in self.chains[trap].iter().enumerate() {
            self.loc[q] = (trap, i);
        }
    }

    /// Moves `q` to the edge of its chain facing direction `dir`
    /// (+1 = right edge, -1 = left edge), logging the intra-trap
    /// transport.
    fn move_to_edge(&mut self, q: usize, dir: isize) {
        let (trap, idx) = self.loc[q];
        let len = self.chains[trap].len();
        let edge = if dir > 0 { len - 1 } else { 0 };
        let sites = edge.abs_diff(idx);
        if sites > 0 {
            self.ops.push(QccdOp::EdgeMove {
                trap,
                sites,
                chain_len: len,
            });
            let ion = self.chains[trap].remove(idx);
            if dir > 0 {
                self.chains[trap].push(ion);
            } else {
                self.chains[trap].insert(0, ion);
            }
            self.reindex(trap);
        }
    }

    /// Transports `q` from its current trap to `target` trap, splitting
    /// once, shuttling across every segment, and merging at the entry
    /// edge. Evicts an ion from `target` first if it is full.
    fn transport(&mut self, q: usize, target: usize, depth: usize) {
        assert!(
            depth <= 2 * self.spec.n_traps(),
            "trap array gridlocked; capacity headroom violated"
        );
        let (source, _) = self.loc[q];
        debug_assert_ne!(source, target);
        let dir: isize = if target > source { 1 } else { -1 };

        if self.chains[target].len() >= self.spec.capacity() {
            self.make_room(target, dir, depth + 1);
        }

        self.move_to_edge(q, dir);
        let len_before = self.chains[source].len();
        self.ops.push(QccdOp::Split {
            trap: source,
            chain_len_before: len_before,
        });
        let edge = if dir > 0 { len_before - 1 } else { 0 };
        let ion = self.chains[source].remove(edge);
        debug_assert_eq!(ion, q);
        self.reindex(source);

        let mut t = source;
        while t != target {
            let next = (t as isize + dir) as usize;
            self.ops.push(QccdOp::ShuttleSegment { from: t, to: next });
            t = next;
        }

        // Arriving with direction `dir`, the ion enters at the near edge.
        if dir > 0 {
            self.chains[target].insert(0, q);
        } else {
            self.chains[target].push(q);
        }
        self.reindex(target);
        self.ops.push(QccdOp::Merge {
            trap: target,
            chain_len_after: self.chains[target].len(),
        });
    }

    /// Frees one slot in `trap` by transporting its far-edge ion one trap
    /// onward, away from the incoming direction when possible.
    fn make_room(&mut self, trap: usize, incoming_dir: isize, depth: usize) {
        // Preferred eviction direction: keep moving with the flow.
        let onward = trap as isize + incoming_dir;
        let evict_to = if onward >= 0 && (onward as usize) < self.spec.n_traps() {
            onward as usize
        } else {
            // Array end: push back against the flow (the upstream trap
            // just lost the incoming ion's slot or has headroom).
            (trap as isize - incoming_dir) as usize
        };
        let dir: isize = if evict_to > trap { 1 } else { -1 };
        let edge = if dir > 0 {
            self.chains[trap].len() - 1
        } else {
            0
        };
        let victim = self.chains[trap][edge];
        // Recursion bounded by `depth` guard in `transport`.
        self.transport(victim, evict_to, depth);
    }

    /// Routes the next gate, queueing its primitives.
    ///
    /// # Errors
    ///
    /// As [`compile_qccd`], with the gate's index in the routed stream.
    pub fn route(&mut self, g: &Gate) -> Result<(), QccdError> {
        let (gate_index, n_qubits) = (self.gates_seen, self.loc.len());
        self.gates_seen += 1;
        let qs = g.operands();
        if let Some(q) = qs.iter().find(|q| q.index() >= n_qubits) {
            return Err(QccdError::InvalidCircuit(
                ValidateCircuitError::QubitOutOfRange {
                    gate_index,
                    qubit: q.index(),
                    n_qubits,
                },
            ));
        }
        match g {
            Gate::Barrier => {}
            Gate::Measure(q) | Gate::Reset(q) => {
                let (trap, _) = self.loc[q.index()];
                self.ops.push(QccdOp::Measure { trap });
            }
            _ if qs.len() == 2 => {
                let (a, b) = (qs[0].index(), qs[1].index());
                let (ta, _) = self.loc[a];
                let (tb, _) = self.loc[b];
                if ta != tb {
                    // Move the endpoint from the more crowded trap, which
                    // balances occupancy; ties move `a`.
                    let (mover, target) = if self.chains[ta].len() >= self.chains[tb].len() {
                        (a, tb)
                    } else {
                        (b, ta)
                    };
                    self.transport(mover, target, 0);
                }
                let (trap, ia) = self.loc[a];
                let (_, ib) = self.loc[b];
                self.ops.push(QccdOp::TwoQubitGate {
                    trap,
                    distance: ia.abs_diff(ib),
                });
            }
            _ if qs.len() == 1 => {
                let (trap, _) = self.loc[qs[0].index()];
                self.ops.push(QccdOp::SingleQubitGate { trap });
            }
            _ => {
                return Err(QccdError::UnsupportedGate {
                    gate_index,
                    arity: qs.len(),
                })
            }
        }
        Ok(())
    }

    /// Takes the primitives routed since the last drain.
    pub fn drain(&mut self) -> std::vec::Drain<'_, QccdOp> {
        self.ops.drain(..)
    }
}

/// Routes `circuit` onto the QCCD array described by `spec`, producing the
/// primitive trace.
///
/// The circuit should be at two-qubit granularity (CNOT level or native);
/// decompose three-qubit gates first. Only what routing relies on is
/// checked here; run [`tilt_circuit::validate`] for the full structural
/// check (the session API does, before decomposing).
///
/// # Errors
///
/// Returns [`QccdError::CircuitTooWide`] when the circuit does not fit
/// on the array with transport headroom, [`QccdError::InvalidCircuit`]
/// for an operand outside the register, and
/// [`QccdError::UnsupportedGate`] for a gate on three or more qubits.
pub fn compile_qccd(circuit: &Circuit, spec: &QccdSpec) -> Result<QccdProgram, QccdError> {
    let mut router = QccdRouter::new(spec, circuit.n_qubits())?;
    for g in circuit {
        router.route(g)?;
    }
    Ok(QccdProgram::new(*spec, router.ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::Qubit;

    #[test]
    fn same_trap_gate_needs_no_transport() {
        let spec = QccdSpec::new(2, 10).unwrap();
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(5)); // both in trap 0
        let p = compile_qccd(&c, &spec).unwrap();
        assert_eq!(p.transport_count(), 0);
        assert_eq!(p.two_qubit_gate_count(), 1);
    }

    #[test]
    fn cross_trap_gate_transports_once() {
        let spec = QccdSpec::new(2, 10).unwrap();
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(12)); // trap 0 and trap 1
        let p = compile_qccd(&c, &spec).unwrap();
        assert_eq!(p.transport_count(), 1);
        assert_eq!(p.shuttle_segment_count(), 1);
    }

    #[test]
    fn distant_traps_cost_multiple_segments() {
        let spec = QccdSpec::for_qubits(64, 16).unwrap(); // 4 traps
        let mut c = Circuit::new(64);
        c.cnot(Qubit(0), Qubit(63)); // trap 0 ↔ trap 3
        let p = compile_qccd(&c, &spec).unwrap();
        assert_eq!(p.transport_count(), 1);
        assert_eq!(p.shuttle_segment_count(), 3);
    }

    #[test]
    fn moved_qubit_stays_for_reuse() {
        let spec = QccdSpec::new(2, 10).unwrap();
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(12));
        c.cnot(Qubit(0), Qubit(12)); // second gate: already co-located
        let p = compile_qccd(&c, &spec).unwrap();
        assert_eq!(p.transport_count(), 1);
        assert_eq!(p.two_qubit_gate_count(), 2);
    }

    #[test]
    fn interior_ion_edge_moves_before_split() {
        let spec = QccdSpec::new(2, 10).unwrap();
        let mut c = Circuit::new(16);
        // Chains are [0..8) and [8..16) with equal sizes, so the mover is
        // the first operand: qubit 12, interior at index 4 of trap 1.
        // Moving left to trap 0 needs an EdgeMove of 4 sites (index 4 → 0).
        c.cnot(Qubit(12), Qubit(4));
        let p = compile_qccd(&c, &spec).unwrap();
        let edge_moves: Vec<_> = p
            .ops()
            .iter()
            .filter(|op| matches!(op, QccdOp::EdgeMove { .. }))
            .collect();
        assert_eq!(edge_moves.len(), 1);
        match edge_moves[0] {
            QccdOp::EdgeMove { trap, sites, .. } => {
                assert_eq!(*trap, 1);
                assert_eq!(*sites, 4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn full_trap_evicts_before_merge() {
        // Drive transports directly: fill trap 1 to capacity, then force
        // one more arrival — make_room must evict an edge ion first.
        let spec = QccdSpec::new(2, 5).unwrap();
        let mut array = QccdRouter::place(spec, 8); // chains 4/4
        array.transport(0, 1, 0); // trap 1 now holds 5 (full)
        assert_eq!(array.chains[1].len(), 5);
        array.transport(1, 1, 0); // needs an eviction
        let splits = array
            .ops
            .iter()
            .filter(|op| matches!(op, QccdOp::Split { .. }))
            .count();
        assert_eq!(splits, 3, "two requested transports plus one eviction");
        for chain in &array.chains {
            assert!(chain.len() <= spec.capacity());
        }
        // Location table stays consistent through evictions.
        for q in 0..8 {
            let (t, i) = array.loc[q];
            assert_eq!(array.chains[t][i], q);
        }
    }

    #[test]
    fn rejects_circuit_beyond_usable_slots() {
        let spec = QccdSpec::new(2, 6).unwrap(); // usable 8
        let c = Circuit::new(9);
        assert!(matches!(
            compile_qccd(&c, &spec),
            Err(QccdError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn balanced_initial_placement() {
        let spec = QccdSpec::for_qubits(10, 4).unwrap(); // 3 traps
        let array = QccdRouter::place(spec, 10);
        let lens: Vec<usize> = array.chains.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        // Location table is consistent.
        for q in 0..10 {
            let (t, i) = array.loc[q];
            assert_eq!(array.chains[t][i], q);
        }
    }

    #[test]
    fn nearest_neighbour_workload_keeps_transports_low() {
        // A QAOA-like chain sweep: only boundary pairs transport.
        let spec = QccdSpec::for_qubits(32, 16).unwrap(); // 2 traps
        let mut c = Circuit::new(32);
        for i in 0..31 {
            c.zz(Qubit(i), Qubit(i + 1), 0.3);
        }
        let p = compile_qccd(&c, &spec).unwrap();
        assert!(
            p.transport_count() <= 4,
            "expected few transports, got {}",
            p.transport_count()
        );
    }
}
