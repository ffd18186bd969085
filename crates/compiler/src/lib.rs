//! LinQ — the optimizing compiler for the TILT trapped-ion linear-tape
//! architecture (Wu et al., HPCA 2021, §IV).
//!
//! LinQ lowers a high-level quantum circuit to a stream of TILT machine
//! operations (gates pinned to tape-head positions, interleaved with tape
//! moves) in three passes, mirroring Fig. 4 of the paper:
//!
//! 1. [`decompose`] — rewrite program gates into the trapped-ion native set
//!    `{Rx, Ry, Rz, XX}` (§IV-B).
//! 2. [`route`] — map logical qubits onto tape positions and insert SWAP
//!    gates so that every two-qubit gate fits under the head (§IV-C,
//!    Algorithm 1). Two routers are provided: the paper's heuristic
//!    ([`route::linq`], with opposing-swap creation and the `MaxSwapLen`
//!    restriction) and the Qiskit-StochasticSwap-style baseline
//!    ([`route::stochastic`]).
//! 3. [`schedule`] — choose the tape-head position sequence, greedily
//!    maximizing executable gates per move (§IV-D, Algorithm 2).
//!
//! The [`pipeline::Compiler`] builder runs all three and reports the
//! statistics the paper evaluates (swap counts, opposing-swap ratio, move
//! counts, tape travel distance, pass timings).
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{Compiler, DeviceSpec};
//!
//! let mut c = Circuit::new(8);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(7));
//! let spec = DeviceSpec::new(8, 4)?;
//! let out = Compiler::new(spec).compile(&c)?;
//! assert!(out.program.move_count() >= 1);
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

pub mod decompose;
pub mod error;
pub mod fingerprint;
pub mod mapping;
pub mod pipeline;
pub mod program;
pub mod route;
pub mod schedule;
pub mod spec;
pub mod verify;
pub mod viz;

pub use error::CompileError;
pub use mapping::{InitialMapping, Mapping};
pub use pipeline::streaming::{CollectSink, ProgramSink, StreamSummary, StreamingCompiler};
pub use pipeline::{CompileOutput, CompileReport, Compiler};
pub use program::{OpLines, TiltOp, TiltProgram};
pub use route::{RouteOutcome, RouterKind};
pub use schedule::SchedulerKind;
pub use spec::DeviceSpec;
pub use verify::{Diagnostic, Severity, TiltVerifier};

#[cfg(test)]
mod dag {
    //! Gate dependency analysis for the tape scheduler's test oracle
    //! (`schedule::oracle`), the only code that walks a whole circuit's
    //! DAG: [`Dag`] gives the static structure, and [`ReadyTracker`]
    //! the mutable frontier. The compiler's passes stream gates and
    //! keep their own frontier.

    use tilt_circuit::{Circuit, Gate};

    /// Dependency DAG over gate indices of a [`Circuit`].
    ///
    /// Gate `j` depends on gate `i` when they share a qubit and `i` precedes `j`
    /// in program order (only the *nearest* predecessor per qubit is recorded —
    /// transitive edges are implied). A [`Gate::Barrier`] depends on every gate
    /// before it and precedes every gate after it.
    #[derive(Clone, Debug)]
    pub(crate) struct Dag {
        /// Flat CSR edge storage: gate `i`'s predecessors are
        /// `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]`. Two flat
        /// arrays per direction instead of a `Vec` per gate keep DAG
        /// construction allocation-light — the tape scheduler builds one
        /// per `schedule` call.
        pred_edges: Vec<usize>,
        pred_offsets: Vec<usize>,
        succ_edges: Vec<usize>,
        succ_offsets: Vec<usize>,
    }

    impl Dag {
        /// Builds the dependency DAG of `circuit` in `O(gates)`.
        pub(crate) fn new(circuit: &Circuit) -> Self {
            let n = circuit.len();
            let mut pred_edges: Vec<usize> = Vec::with_capacity(2 * n);
            let mut pred_offsets: Vec<usize> = Vec::with_capacity(n + 1);
            pred_offsets.push(0);
            // Last gate index touching each qubit.
            let mut last_on: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
            // Gates since the previous barrier (a barrier depends on all of them).
            let mut since_barrier: Vec<usize> = Vec::new();
            let mut last_barrier: Option<usize> = None;

            for (i, gate) in circuit.iter().enumerate() {
                if matches!(gate, Gate::Barrier) {
                    pred_edges.extend_from_slice(&since_barrier);
                    if let Some(b) = last_barrier {
                        if since_barrier.is_empty() {
                            pred_edges.push(b);
                        }
                    }
                    since_barrier.clear();
                    last_barrier = Some(i);
                    last_on.fill(None);
                    pred_offsets.push(pred_edges.len());
                    continue;
                }

                // Gate operands: at most three qubits — collect, sort,
                // dedup in place on the flat tail.
                let start = pred_edges.len();
                for q in gate.qubits() {
                    if let Some(p) = last_on[q.index()] {
                        if !pred_edges[start..].contains(&p) {
                            pred_edges.push(p);
                        }
                    }
                }
                pred_edges[start..].sort_unstable();
                if pred_edges.len() == start {
                    if let Some(b) = last_barrier {
                        pred_edges.push(b);
                    }
                }
                for q in gate.qubits() {
                    last_on[q.index()] = Some(i);
                }
                since_barrier.push(i);
                pred_offsets.push(pred_edges.len());
            }

            // Invert into successor CSR: count out-degrees, prefix-sum,
            // fill in program order (successors therefore ascend, exactly
            // as the per-gate push order used to produce).
            let mut succ_offsets = vec![0usize; n + 1];
            for &p in &pred_edges {
                succ_offsets[p + 1] += 1;
            }
            for k in 1..=n {
                succ_offsets[k] += succ_offsets[k - 1];
            }
            let mut succ_edges = vec![0usize; pred_edges.len()];
            let mut cursor = succ_offsets.clone();
            for i in 0..n {
                for &p in &pred_edges[pred_offsets[i]..pred_offsets[i + 1]] {
                    succ_edges[cursor[p]] = i;
                    cursor[p] += 1;
                }
            }

            Dag {
                pred_edges,
                pred_offsets,
                succ_edges,
                succ_offsets,
            }
        }

        /// Number of gates (nodes).
        pub(crate) fn len(&self) -> usize {
            self.pred_offsets.len() - 1
        }

        /// Direct predecessors of gate `i` (sorted, deduplicated).
        pub(crate) fn preds(&self, i: usize) -> &[usize] {
            &self.pred_edges[self.pred_offsets[i]..self.pred_offsets[i + 1]]
        }

        /// Direct successors of gate `i`.
        pub(crate) fn succs(&self, i: usize) -> &[usize] {
            &self.succ_edges[self.succ_offsets[i]..self.succ_offsets[i + 1]]
        }

        /// Gates with no predecessors — the initial front layer.
        pub(crate) fn front(&self) -> Vec<usize> {
            (0..self.len())
                .filter(|&i| self.preds(i).is_empty())
                .collect()
        }

        /// In-degree of every node; the starting state for [`ReadyTracker`].
        pub(crate) fn indegrees(&self) -> Vec<usize> {
            (0..self.len()).map(|i| self.preds(i).len()).collect()
        }
    }

    /// Mutable execution frontier over a [`Dag`].
    ///
    /// Supports the scheduler loop: query [`ReadyTracker::ready`], mark gates
    /// executed with [`ReadyTracker::complete`], repeat until
    /// [`ReadyTracker::is_done`].
    #[derive(Clone, Debug)]
    pub(crate) struct ReadyTracker {
        indeg: Vec<usize>,
        ready: Vec<usize>,
        /// Index of each gate inside `ready` ([`NOT_READY`] otherwise) —
        /// makes [`ReadyTracker::complete`] O(successors) instead of a scan
        /// of the ready set per completion.
        ready_slot: Vec<usize>,
        done: Vec<bool>,
        n_done: usize,
    }

    /// Sentinel for gates not currently in the ready set.
    const NOT_READY: usize = usize::MAX;

    impl ReadyTracker {
        /// Starts a fresh traversal of `dag`.
        pub(crate) fn new(dag: &Dag) -> Self {
            let indeg = dag.indegrees();
            let ready = dag.front();
            let mut ready_slot = vec![NOT_READY; dag.len()];
            for (slot, &g) in ready.iter().enumerate() {
                ready_slot[g] = slot;
            }
            ReadyTracker {
                indeg,
                done: vec![false; dag.len()],
                ready,
                ready_slot,
                n_done: 0,
            }
        }

        /// Gate indices whose dependencies are all satisfied, ascending.
        pub(crate) fn ready(&self) -> &[usize] {
            &self.ready
        }

        /// Marks gate `i` executed, unlocking its successors.
        ///
        /// # Panics
        ///
        /// Panics if `i` is not currently ready (dependency violation) or was
        /// already completed.
        pub(crate) fn complete(&mut self, dag: &Dag, i: usize) {
            assert!(!self.done[i], "gate {i} completed twice");
            assert_eq!(
                self.indeg[i], 0,
                "gate {i} completed before its dependencies"
            );
            let slot = self.ready_slot[i];
            assert_ne!(slot, NOT_READY, "gate not in ready set");
            self.ready.swap_remove(slot);
            self.ready_slot[i] = NOT_READY;
            if let Some(&moved) = self.ready.get(slot) {
                self.ready_slot[moved] = slot;
            }
            self.done[i] = true;
            self.n_done += 1;
            for &s in dag.succs(i) {
                self.indeg[s] -= 1;
                if self.indeg[s] == 0 {
                    self.ready_slot[s] = self.ready.len();
                    self.ready.push(s);
                }
            }
        }

        /// True when `i` has been completed.
        pub(crate) fn is_complete(&self, i: usize) -> bool {
            self.done[i]
        }

        /// Number of completed gates.
        pub(crate) fn completed(&self) -> usize {
            self.n_done
        }

        /// True when every gate has been completed.
        pub(crate) fn is_done(&self) -> bool {
            self.n_done == self.done.len()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use tilt_circuit::Qubit;

        fn chain() -> Circuit {
            let mut c = Circuit::new(3);
            c.h(Qubit(0));
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(1), Qubit(2));
            c.h(Qubit(2));
            c
        }

        #[test]
        fn preds_follow_qubit_chains() {
            let dag = Dag::new(&chain());
            assert!(dag.preds(0).is_empty());
            assert_eq!(dag.preds(1), &[0]);
            assert_eq!(dag.preds(2), &[1]);
            assert_eq!(dag.preds(3), &[2]);
        }

        #[test]
        fn cnot_waits_on_its_h_while_both_hs_are_ready() {
            let mut c = Circuit::new(3);
            c.h(Qubit(0));
            c.cnot(Qubit(0), Qubit(1));
            c.h(Qubit(2));
            let dag = Dag::new(&c);
            assert_eq!(dag.preds(1), &[0]);
            assert_eq!(dag.front(), vec![0, 2]);
        }

        #[test]
        fn front_is_gates_without_preds() {
            let mut c = Circuit::new(4);
            c.h(Qubit(0));
            c.h(Qubit(3));
            c.cnot(Qubit(0), Qubit(3));
            let dag = Dag::new(&c);
            assert_eq!(dag.front(), vec![0, 1]);
        }

        #[test]
        fn shared_pred_is_deduplicated() {
            let mut c = Circuit::new(2);
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(0), Qubit(1));
            let dag = Dag::new(&c);
            assert_eq!(dag.preds(1), &[0]); // not [0, 0]
        }

        #[test]
        fn barrier_orders_everything() {
            let mut c = Circuit::new(2);
            c.h(Qubit(0)); // 0
            c.barrier(); // 1
            c.h(Qubit(1)); // 2
            let dag = Dag::new(&c);
            assert_eq!(dag.preds(1), &[0]);
            assert_eq!(dag.preds(2), &[1]);
        }

        #[test]
        fn consecutive_barriers_chain() {
            let mut c = Circuit::new(1);
            c.barrier();
            c.barrier();
            c.h(Qubit(0));
            let dag = Dag::new(&c);
            assert_eq!(dag.preds(1), &[0]);
            assert_eq!(dag.preds(2), &[1]);
        }

        #[test]
        fn ready_tracker_walks_whole_circuit() {
            let c = chain();
            let dag = Dag::new(&c);
            let mut t = ReadyTracker::new(&dag);
            let mut order = Vec::new();
            while !t.is_done() {
                let i = t.ready()[0];
                t.complete(&dag, i);
                order.push(i);
            }
            assert_eq!(order, vec![0, 1, 2, 3]);
            assert_eq!(t.completed(), 4);
        }

        #[test]
        #[should_panic(expected = "completed before its dependencies")]
        fn ready_tracker_rejects_dependency_violation() {
            let c = chain();
            let dag = Dag::new(&c);
            let mut t = ReadyTracker::new(&dag);
            t.complete(&dag, 2);
        }

        #[test]
        fn ready_tracker_exposes_parallel_front() {
            let mut c = Circuit::new(4);
            c.cnot(Qubit(0), Qubit(1));
            c.cnot(Qubit(2), Qubit(3));
            c.cnot(Qubit(1), Qubit(2));
            let dag = Dag::new(&c);
            let t = ReadyTracker::new(&dag);
            assert_eq!(t.ready(), &[0, 1]);
        }
    }
}
