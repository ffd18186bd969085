//! Tape movement scheduling (§IV-D of the paper, Algorithm 2).
//!
//! Every tape move heats the ion chain and degrades all future two-qubit
//! gates (§III-A), so the scheduler's objective is to execute as many
//! gates as possible per head position. The paper's greedy heuristic
//! scores every head position by the number of gates executable there —
//! `Score(p) = n_p` (Eq. 2), following dependency order — moves the tape
//! to the argmax, executes, and repeats until the circuit is drained.
//!
//! A deliberately weak alternative, [`SchedulerKind::NaiveNextGate`], parks
//! the head over the oldest ready gate each round; it exists to quantify
//! the benefit of Eq. 2 (ablation 3 in the module doc of `tilt-bench`'s
//! `ablation` binary).
//!
//! One engine runs every policy: the horizon-bounded `StreamScheduler`
//! (`streaming`), which [`schedule`] drives over a whole circuit and
//! the windowed compiler drives gate by gate. It caches per-position
//! scores and rescores only the positions a round could have changed.
//! The seed's rescan-every-position loop survives only as the test
//! oracle every decision is checked against.

mod streaming;

pub(crate) use streaming::StreamScheduler;

use crate::program::TiltProgram;
use crate::spec::DeviceSpec;
use tilt_circuit::Circuit;

/// Which tape-scheduling policy to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's Algorithm 2: move to the position with the maximal
    /// number of executable gates, ties going to the nearer position,
    /// then the leftmost.
    #[default]
    GreedyMaxExecutable,
    /// Ablation baseline: move to the leftmost position covering the
    /// oldest ready gate, then drain whatever else that position covers.
    NaiveNextGate,
}

impl SchedulerKind {
    /// Parses a scheduler name (`greedy`, `naive`).
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        match name {
            "greedy" => Some(SchedulerKind::GreedyMaxExecutable),
            "naive" => Some(SchedulerKind::NaiveNextGate),
            _ => None,
        }
    }
}

/// The eligibility horizon every schedule runs under: each round only
/// considers gates whose index lies below `min(floor + horizon, n)`,
/// where `floor` is the smallest incomplete gate index. Generous enough
/// that every realistic in-memory circuit schedules as the paper's
/// unbounded Algorithm 2, small enough that million-gate streams keep a
/// bounded working set; a one-shot compile and the windowed pipeline
/// share it, so they agree byte for byte at any length.
pub const DEFAULT_HORIZON: usize = 1 << 17;

/// Schedules a routed physical circuit into an executable [`TiltProgram`].
///
/// `physical` must be routed for `spec`: every two-qubit gate's operands
/// must fit under the head simultaneously.
///
/// Barriers are honoured as scheduling fences but are not emitted as
/// machine operations.
///
/// # Panics
///
/// Panics if some two-qubit gate spans at least `head_size` ion spacings
/// (an unrouted circuit) — this is a contract violation by the caller, not
/// a recoverable condition.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::schedule::{schedule, SchedulerKind};
/// use tilt_compiler::DeviceSpec;
///
/// let mut c = Circuit::new(8);
/// c.xx(Qubit(0), Qubit(1), 0.5);
/// c.xx(Qubit(6), Qubit(7), 0.5);
/// let spec = DeviceSpec::new(8, 4)?;
/// let program = schedule(&c, spec, SchedulerKind::GreedyMaxExecutable);
/// assert_eq!(program.move_count(), 1); // two zones, one move
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn schedule(physical: &Circuit, spec: DeviceSpec, kind: SchedulerKind) -> TiltProgram {
    streaming::schedule_stream_monolithic(physical, spec, kind, DEFAULT_HORIZON)
}

/// The scheduler oracle: the seed's rescan-every-position loop, with
/// every scoring and drain step filtered to gates below the per-round
/// eligibility bound `E = min(floor + horizon, n)`. At a horizon no
/// shorter than the circuit the filter is vacuous and this is the seed
/// engine. Slow and monolithic by design — each round recounts every
/// position's cascade from scratch with fresh hash containers.
#[cfg(test)]
pub(crate) mod oracle {
    use super::SchedulerKind;
    use crate::dag::{Dag, ReadyTracker};
    use crate::program::{TiltOp, TiltProgram};
    use crate::spec::DeviceSpec;
    use std::collections::{HashMap, HashSet};
    use tilt_circuit::{Circuit, Gate};

    pub(crate) fn schedule_rescan_capped(
        physical: &Circuit,
        spec: DeviceSpec,
        kind: SchedulerKind,
        horizon: usize,
    ) -> TiltProgram {
        let horizon = horizon.max(1);
        let dag = Dag::new(physical);
        let mut tracker = ReadyTracker::new(&dag);
        let gates = physical.gates();
        let n = gates.len();
        let mut ops: Vec<TiltOp> = Vec::with_capacity(n);
        let mut head: Option<usize> = None;
        let mut floor = 0usize;

        while !tracker.is_done() {
            while floor < n && tracker.is_complete(floor) {
                floor += 1;
            }
            let e = floor.saturating_add(horizon).min(n);

            let pos = match kind {
                SchedulerKind::NaiveNextGate => {
                    let oldest = *tracker
                        .ready()
                        .iter()
                        .filter(|&&i| i < e)
                        .min()
                        .expect("floor gate is always ready and eligible");
                    spec.covering_head_positions(gates[oldest].operands().iter().map(|q| q.index()))
                        .map_or(0, |r| *r.start())
                }
                SchedulerKind::GreedyMaxExecutable => {
                    // Ties prefer the smaller head travel, then the
                    // leftmost position (the ascending scan keeps the
                    // first of equals).
                    let mut best: Option<(usize, usize, usize)> = None;
                    for p in spec.head_positions() {
                        let count = executable_count(&dag, &tracker, gates, spec, p, e);
                        if count == 0 {
                            continue;
                        }
                        let dist = head.map_or(0, |h| h.abs_diff(p));
                        if best.is_none_or(|(bc, bd, _)| count > bc || (count == bc && dist < bd)) {
                            best = Some((count, dist, p));
                        }
                    }
                    let Some((_, _, p)) = best else {
                        // Barrier relief: the eligible ready set is all
                        // barriers — complete them (min-index) without
                        // moving the head.
                        let mut relieved = false;
                        while let Some(i) = tracker
                            .ready()
                            .iter()
                            .copied()
                            .filter(|&i| i < e && matches!(gates[i], Gate::Barrier))
                            .min()
                        {
                            tracker.complete(&dag, i);
                            relieved = true;
                        }
                        assert!(relieved, "no head position can execute any ready gate");
                        continue;
                    };
                    p
                }
            };

            if head != Some(pos) {
                if head.is_some() {
                    ops.push(TiltOp::Move { to: pos });
                }
                head = Some(pos);
            }

            let mut executed_any = false;
            while let Some(i) = tracker
                .ready()
                .iter()
                .copied()
                .filter(|&i| i < e && fits(gates[i], spec, pos))
                .min()
            {
                tracker.complete(&dag, i);
                executed_any = true;
                let gate = gates[i];
                if !matches!(gate, Gate::Barrier) {
                    ops.push(TiltOp::Gate {
                        gate,
                        head_pos: pos,
                    });
                }
            }
            assert!(executed_any, "scheduler made no progress at position {pos}");
        }

        TiltProgram::new(spec, ops)
    }

    /// True when every operand of `g` is covered by the head at `pos`
    /// (barriers fit anywhere).
    fn fits(g: Gate, spec: DeviceSpec, pos: usize) -> bool {
        g.operands().iter().all(|q| spec.covers(pos, q.index()))
    }

    /// Eq. 2's `n_p` below the bound `e`: ready gates covered by the
    /// head execute, unlocking covered successors transitively (in
    /// dependency order, exactly as the drain would); barriers cascade
    /// but do not count.
    fn executable_count(
        dag: &Dag,
        tracker: &ReadyTracker,
        gates: &[Gate],
        spec: DeviceSpec,
        pos: usize,
        e: usize,
    ) -> usize {
        let mut queue: Vec<usize> = tracker
            .ready()
            .iter()
            .copied()
            .filter(|&i| i < e && fits(gates[i], spec, pos))
            .collect();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut local_indeg: HashMap<usize, usize> = HashMap::new();
        let mut count = 0usize;
        while let Some(i) = queue.pop() {
            if !seen.insert(i) {
                continue;
            }
            if !matches!(gates[i], Gate::Barrier) {
                count += 1;
            }
            for &s in dag.succs(i) {
                if s >= e {
                    continue;
                }
                let remaining = local_indeg.entry(s).or_insert_with(|| {
                    dag.preds(s)
                        .iter()
                        .filter(|&&p| !tracker.is_complete(p))
                        .count()
                });
                *remaining -= 1;
                if *remaining == 0 && fits(gates[s], spec, pos) {
                    queue.push(s);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::schedule_rescan_capped;
    use super::*;
    use crate::mapping::InitialMapping;
    use crate::{Compiler, RouterKind};
    use proptest::prelude::*;
    use tilt_circuit::{Gate, Qubit};

    fn spec(n: usize, head: usize) -> DeviceSpec {
        DeviceSpec::new(n, head).unwrap()
    }

    /// The oracle at the horizon [`schedule`] runs under.
    fn oracle(c: &Circuit, spec: DeviceSpec, kind: SchedulerKind) -> TiltProgram {
        schedule_rescan_capped(c, spec, kind, DEFAULT_HORIZON)
    }

    #[test]
    fn single_zone_circuit_never_moves() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.5).rx(Qubit(2), 1.0);
        let p = schedule(&c, spec(8, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 0);
        assert_eq!(p.gate_count(), 2);
    }

    #[test]
    fn two_distant_zones_need_one_move() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.5);
        c.xx(Qubit(14), Qubit(15), 0.5);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 1);
    }

    #[test]
    fn greedy_prefers_position_with_more_gates() {
        // Three gates on the left zone, one on the right: greedy parks
        // left first.
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.5);
        c.xx(Qubit(1), Qubit(2), 0.5);
        c.xx(Qubit(2), Qubit(3), 0.5);
        c.xx(Qubit(14), Qubit(15), 0.5);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.initial_head_position(), Some(0));
        assert_eq!(p.move_count(), 1);
    }

    #[test]
    fn all_gates_are_scheduled_exactly_once() {
        let mut c = Circuit::new(16);
        for i in 0..15 {
            c.xx(Qubit(i), Qubit(i + 1), 0.1);
        }
        for kind in [
            SchedulerKind::GreedyMaxExecutable,
            SchedulerKind::NaiveNextGate,
        ] {
            let p = schedule(&c, spec(16, 4), kind);
            assert_eq!(p.gate_count(), c.len(), "{kind:?}");
        }
    }

    #[test]
    fn schedule_respects_dependencies() {
        // Chain across zones: (0,1) then (1,15) is unroutable; use a
        // routed-like chain: (0,1), (7,8), (14,15) sharing no qubits plus
        // a dependent gate on (0,1) again.
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.1); // idx 0
        c.xx(Qubit(14), Qubit(15), 0.1); // idx 1
        c.xx(Qubit(1), Qubit(2), 0.1); // idx 2, depends on 0
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        let order: Vec<&Gate> = p.gates().map(|(g, _)| g).collect();
        let pos_of = |target: &Gate| order.iter().position(|g| *g == target).unwrap();
        assert!(
            pos_of(&Gate::Xx(Qubit(0), Qubit(1), 0.1)) < pos_of(&Gate::Xx(Qubit(1), Qubit(2), 0.1))
        );
    }

    #[test]
    fn barriers_fence_but_do_not_emit() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.barrier();
        c.xx(Qubit(6), Qubit(7), 0.1);
        let p = schedule(&c, spec(8, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.gate_count(), 2); // barrier not emitted
        let order: Vec<usize> = p.gates().map(|(_, pos)| pos).collect();
        assert_eq!(order, vec![0, 4]);
    }

    #[test]
    fn naive_scheduler_moves_at_least_as_often() {
        let mut c = Circuit::new(32);
        // Interleave left-zone and right-zone gates; greedy batches them,
        // naive ping-pongs.
        for _ in 0..4 {
            c.xx(Qubit(0), Qubit(1), 0.1);
            c.xx(Qubit(30), Qubit(31), 0.1);
        }
        let greedy = schedule(&c, spec(32, 8), SchedulerKind::GreedyMaxExecutable);
        let naive = schedule(&c, spec(32, 8), SchedulerKind::NaiveNextGate);
        assert!(greedy.move_count() <= naive.move_count());
        assert_eq!(greedy.move_count(), 1);
    }

    #[test]
    fn engine_matches_oracle_on_structured_workloads() {
        // Mixed zones, chains, barriers, and single-qubit traffic: the
        // engine must reproduce the oracle's program op-for-op
        // (positions, moves, and executed-gate order).
        let mut zones = Circuit::new(32);
        for r in 0..4 {
            for i in 0..28 {
                if (i * 5 + r) % 3 == 0 {
                    zones.xx(Qubit(i), Qubit(i + 3), 0.1 * (r + 1) as f64);
                }
            }
            zones.rx(Qubit((r * 7) % 32), 0.5);
        }
        let mut fenced = Circuit::new(16);
        for i in 0..13 {
            fenced.xx(Qubit(i), Qubit(i + 2), 0.2);
            if i % 5 == 4 {
                fenced.barrier();
            }
        }
        let mut pingpong = Circuit::new(24);
        for _ in 0..6 {
            pingpong.xx(Qubit(0), Qubit(1), 0.3);
            pingpong.xx(Qubit(22), Qubit(23), 0.3);
            pingpong.xx(Qubit(11), Qubit(12), 0.3);
        }
        let workloads = [(zones, 32usize, 8usize), (fenced, 16, 4), (pingpong, 24, 4)];
        for (c, n, head) in &workloads {
            for kind in KINDS {
                assert_eq!(
                    schedule(c, spec(*n, *head), kind),
                    oracle(c, spec(*n, *head), kind),
                    "{kind:?} diverged on {n}-ion workload"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unrouted gate")]
    fn unrouted_input_is_rejected() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
    }

    #[test]
    fn single_qubit_gates_need_coverage_too() {
        let mut c = Circuit::new(16);
        c.rx(Qubit(0), 0.1);
        c.rx(Qubit(15), 0.1);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 1);
        for (g, pos) in p.gates() {
            for q in g.operands() {
                assert!(spec(16, 4).covers(pos, q.index()));
            }
        }
    }

    #[test]
    fn empty_circuit_schedules_to_empty_program() {
        let p = schedule(
            &Circuit::new(8),
            spec(8, 4),
            SchedulerKind::GreedyMaxExecutable,
        );
        assert!(p.ops().is_empty());
    }

    /// The compiler pipeline's programs are the oracle's schedule of
    /// the same lowered stream, end to end.
    #[test]
    fn pipeline_schedule_matches_the_oracle() {
        let mut c = Circuit::new(32);
        for i in 0..16 {
            c.cnot(Qubit(i), Qubit(31 - i));
        }
        let spec = spec(32, 8);
        let out = Compiler::new(spec).compile(&c).expect("compiles");
        let lowered = crate::decompose::decompose(&out.routed.circuit);
        assert_eq!(
            out.program,
            oracle(&lowered, spec, SchedulerKind::GreedyMaxExecutable)
        );
    }

    const KINDS: [SchedulerKind; 2] = [
        SchedulerKind::GreedyMaxExecutable,
        SchedulerKind::NaiveNextGate,
    ];

    /// Device shapes worth covering: narrow and wide heads, few and many
    /// head positions.
    fn spec_strategy() -> impl Strategy<Value = DeviceSpec> {
        prop_oneof![
            Just(spec(16, 4)),
            Just(spec(24, 6)),
            Just(spec(32, 8)),
            Just(spec(12, 12)),
        ]
    }

    fn kind_strategy() -> impl Strategy<Value = SchedulerKind> {
        prop_oneof![
            Just(SchedulerKind::GreedyMaxExecutable),
            Just(SchedulerKind::NaiveNextGate),
        ]
    }

    /// Eligibility horizons from "one gate" up to the default: most
    /// draws bind on the generated circuits, so the capped regime gets
    /// random coverage, not only the fixed seeds.
    fn horizon_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..8, 8usize..64, 64usize..160, Just(DEFAULT_HORIZON)]
    }

    /// A random *routed* circuit on `spec`: all two-qubit spans stay under
    /// the head, with single-qubit gates and barriers mixed in.
    fn routed_circuit_strategy(spec: DeviceSpec) -> impl Strategy<Value = Circuit> {
        let n = spec.n_ions();
        let head = spec.head_size();
        let two_q = move |(a, d): (usize, usize)| {
            let b = if a + d < n { a + d } else { a - d.min(a) };
            if a == b {
                Gate::Rx(Qubit(a), 0.3)
            } else {
                Gate::Xx(Qubit(a), Qubit(b), 0.4)
            }
        };
        // The shim's `prop_oneof!` is unweighted; repeat the two-qubit arm
        // to keep the stream dominated by schedulable gate traffic.
        let gate = prop_oneof![
            (0..n, 1..head).prop_map(two_q),
            (0..n, 1..head).prop_map(two_q),
            (0..n, 1..head).prop_map(two_q),
            (0..n, 1..head).prop_map(two_q),
            (0..n).prop_map(|q| Gate::Rz(Qubit(q), 0.7)),
            (0..n).prop_map(|q| Gate::Rz(Qubit(q), 0.7)),
            Just(Gate::Barrier),
        ];
        prop::collection::vec(gate, 1..120).prop_map(move |gates| Circuit::from_gates(n, gates))
    }

    /// Rounds shaped like `repetition_code`: data ions on even
    /// positions, ancillas on odd ones; each round runs a random subset
    /// and order of neighbour parity gates and ancilla measure/resets,
    /// then closes with a barrier. A transversal readout may follow the
    /// last fence, or the circuit may end on it.
    fn fenced_rounds_strategy(spec: DeviceSpec) -> impl Strategy<Value = Circuit> {
        let n = spec.n_ions();
        let step = (0..n / 2, 0u8..4).prop_map(move |(j, op)| {
            let a = 2 * j + 1;
            let right = if a + 1 < n { a + 1 } else { a - 1 };
            match op {
                0 => Gate::Xx(Qubit(a - 1), Qubit(a), 0.5),
                1 => Gate::Xx(Qubit(a.min(right)), Qubit(a.max(right)), 0.5),
                2 => Gate::Measure(Qubit(a)),
                _ => Gate::Reset(Qubit(a)),
            }
        });
        let rounds = prop::collection::vec(prop::collection::vec(step, 0..2 * n), 1..6);
        (rounds, any::<bool>()).prop_map(move |(rounds, readout)| {
            let mut c = Circuit::new(n);
            for round in rounds {
                for g in round {
                    c.push(g);
                }
                c.barrier();
            }
            if readout {
                for q in (0..n).step_by(2) {
                    c.measure(Qubit(q));
                }
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random routed circuits the engine reproduces the oracle
        /// op-for-op — moves, head positions, executed-gate order —
        /// under every policy, at the default horizon and at a random
        /// (usually binding) one.
        #[test]
        fn engine_matches_oracle_on_random_circuits(
            (spec, circuit) in spec_strategy().prop_flat_map(|s| (Just(s), routed_circuit_strategy(s))),
            kind in kind_strategy(),
            horizon in horizon_strategy(),
        ) {
            prop_assert_eq!(
                schedule(&circuit, spec, kind),
                oracle(&circuit, spec, kind),
                "{:?} diverged on:\n{}", kind, circuit
            );
            prop_assert_eq!(
                streaming::schedule_stream_monolithic(&circuit, spec, kind, horizon),
                schedule_rescan_capped(&circuit, spec, kind, horizon),
                "{:?} at H={} diverged on:\n{}", kind, horizon, circuit
            );
        }

        /// Barrier-fenced syndrome rounds: the shape whose barrier
        /// successors the engine narrows by their span's ranges.
        #[test]
        fn engine_matches_oracle_on_fenced_rounds(
            (spec, circuit) in spec_strategy().prop_flat_map(|s| (Just(s), fenced_rounds_strategy(s))),
            kind in kind_strategy(),
            horizon in horizon_strategy(),
        ) {
            prop_assert_eq!(
                streaming::schedule_stream_monolithic(&circuit, spec, kind, horizon),
                schedule_rescan_capped(&circuit, spec, kind, horizon),
                "{:?} at H={} diverged on:\n{}", kind, horizon, circuit
            );
        }

        /// Same comparison after real routing: random long-range
        /// circuits go through decomposition and LinQ swap insertion,
        /// then the lowered stream is scheduled.
        #[test]
        fn engine_matches_oracle_after_routing(
            pairs in prop::collection::vec((0usize..24, 0usize..24, 1u32..3), 1..25),
            kind in kind_strategy(),
            horizon in horizon_strategy(),
        ) {
            let spec = spec(24, 6);
            let mut c = Circuit::new(24);
            for (a, b, kind_sel) in pairs {
                if a == b {
                    c.rz(Qubit(a), 0.4);
                } else if kind_sel == 1 {
                    c.cnot(Qubit(a), Qubit(b));
                } else {
                    c.xx(Qubit(a), Qubit(b), 0.9);
                }
            }
            let native = crate::decompose::decompose(&c);
            let initial = InitialMapping::Identity.build(&native, spec.n_ions());
            let routed = RouterKind::default()
                .route(&native, spec, &initial)
                .expect("random circuits on 24 ions route");
            let lowered = crate::decompose::decompose(&routed.circuit);
            prop_assert_eq!(schedule(&lowered, spec, kind), oracle(&lowered, spec, kind));
            prop_assert_eq!(
                streaming::schedule_stream_monolithic(&lowered, spec, kind, horizon),
                schedule_rescan_capped(&lowered, spec, kind, horizon),
                "{:?} at H={}", kind, horizon
            );
        }
    }
}
