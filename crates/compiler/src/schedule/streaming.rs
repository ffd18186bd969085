//! [`StreamScheduler`]: the one Algorithm-2 engine.
//!
//! Both entry points schedule on it — [`super::schedule`] pushes a
//! whole physical circuit, the windowed `pipeline::streaming` path
//! pushes routed gates as they arrive — so a one-shot compile and a
//! streamed one agree byte for byte by construction. The engine
//! ingests gates one at a time, maintains the dependency frontier with
//! inline per-gate edge lists instead of a CSR DAG, and retires a
//! compacted prefix as gates complete, so its working set is
//! O(horizon) and a million-gate stream schedules in a fixed-size
//! window.
//!
//! # Eligibility horizon
//!
//! Algorithm 2's cascade score can, in principle, chain through the
//! entire remaining circuit (a long run of gates on one zone), so
//! bounded memory needs a bounded lookahead. The engine schedules under
//! an **eligibility horizon** `H` ([`super::DEFAULT_HORIZON`]): each
//! round only the gates with index below
//!
//! ```text
//! E = min(floor + H, n)        floor = smallest incomplete gate index
//! ```
//!
//! participate — in argmax scoring, in the cascade walk, and in the
//! drain (E is frozen for the round; gates unlocked past it wait for
//! the next round). The gate at `floor` has all predecessors below
//! `floor`, hence complete, so it is always ready and always eligible
//! (`floor < E` whenever work remains): every round makes progress and
//! the bound never deadlocks. Circuits shorter than `H` never bind `E`
//! and schedule exactly as the paper's unbounded rule.
//!
//! # Incremental dependency tracking
//!
//! For a non-barrier gate the predecessors are the distinct last
//! writers of its operands since the previous barrier (falling back to
//! that barrier when none exist); a barrier depends on every
//! non-barrier gate since the previous one (falling back to
//! barrier-chaining over an empty span). A non-barrier gate therefore
//! has at most two qubit-successors plus its closing barrier — three
//! inline slots. Barrier successor lists sit back to back in one spill
//! buffer (only the newest barrier's list can still grow), and each
//! barrier's record holds the bounds of its run. Only predecessors
//! still incomplete at push time create edges, so a gate's residual
//! `pending` count is its number of incomplete predecessors.
//!
//! # Scoring
//!
//! Per-position cascade counts are cached and only **dirty** positions
//! — those a round's retired gates, or the successors they unlocked,
//! could have changed — are candidates for rescoring. Candidates are
//! visited in descending order of a sound score ceiling (`cover[p]`,
//! the incomplete eligible gates covering `p`) and the walk stops at the
//! first ceiling strictly below the incumbent; see the crate README for
//! the proof sketch. Every decision matches the capped rescan oracle
//! the `schedule` tests check it against.
//!
//! The ceiling and the dirty marks cost O(1) per gate, whatever its
//! covering range, because the argmax already walks every position once
//! per round:
//!
//! - **Ceiling.** `cover_diff` is a difference array: a gate joining the
//!   window adds 1 at `lo` and −1 at `hi + 1`, an executed one the
//!   reverse, and the argmax walk reads `cover[p]` as the running sum.
//! - **Dirty marks.** A range mark is the same +1/−1 pair on a second
//!   difference array; the walk folds the running sum into the
//!   per-position dirty flags and clears the pairs it passes.
//! - **Ready lists.** The drain lists an unlocked successor at its
//!   covering positions only when the successor does not join the
//!   drain. One that joins runs in the same drain, so its entries would
//!   only be scanned and thrown away later.

use super::SchedulerKind;
use crate::program::{TiltOp, TiltProgram};
use crate::spec::DeviceSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tilt_circuit::{Circuit, Gate};

/// Sentinel for "no gate" in the per-qubit last-writer table.
const NO_GATE: u32 = u32::MAX;

/// One ingested gate plus its frontier bookkeeping.
#[derive(Clone, Copy)]
struct GateRec {
    gate: Gate,
    /// Contiguous covering-position range (barriers span everything).
    lo: u32,
    hi: u32,
    /// Distinct incomplete predecessors remaining.
    pending: u32,
    /// Forward edges of a non-barrier gate: ≤ 2 qubit-successors + the
    /// closing barrier. A barrier's are the run `succs[0]..succs[1]` of
    /// [`StreamScheduler::barrier_succs`] (global offsets).
    succs: [u32; 3],
    /// Non-barrier predecessors incomplete at push time, for the dirty-
    /// range narrowing walk (a barrier predecessor covers every
    /// position, so the intersection it contributes is a no-op and it
    /// is not stored).
    preds: [u32; 2],
    n_succs: u8,
    n_preds: u8,
    done: bool,
}

impl GateRec {
    fn is_barrier(&self) -> bool {
        matches!(self.gate, Gate::Barrier)
    }

    fn covers(&self, pos: usize) -> bool {
        self.lo as usize <= pos && pos <= self.hi as usize
    }
}

/// The successor lists of the retained barriers, back to back in push
/// order.
#[derive(Default)]
struct BarrierSuccs {
    /// Global offset of `ids[0]`; the runs below it were retired.
    base: usize,
    ids: Vec<u32>,
}

impl BarrierSuccs {
    /// Global offset one past the last entry.
    fn end(&self) -> u32 {
        (self.base + self.ids.len()) as u32
    }
}

/// How much work a scheduler has done: tallied unconditionally, so the
/// counts describe the shipped engine, and read by the tests that pin
/// the work each decision costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct SchedulerWork {
    /// Scheduling rounds, barrier-relief rounds included.
    pub(crate) rounds: u64,
    /// Dirty positions entered into a round's argmax.
    pub(crate) candidates: u64,
    /// Candidates rescored with a cascade walk (the rest were pruned).
    pub(crate) rescored: u64,
    /// Successor edges the cascade walks relaxed.
    pub(crate) cascade_steps: u64,
    /// Entries pushed onto the per-position ready lists.
    pub(crate) ready_pushes: u64,
    /// Ready-list entries scanned while dropping completed gates.
    pub(crate) ready_scanned: u64,
}

/// The bounded-memory scheduler: push gates, drain [`TiltOp`]s.
pub(crate) struct StreamScheduler {
    spec: DeviceSpec,
    /// `Some(penalty)` for the Eq. 2 scorers, `None` for NaiveNextGate.
    penalty: Option<i64>,
    horizon: usize,
    n_positions: usize,

    /// Global index of `recs[0]`; everything below is retired.
    base: usize,
    recs: Vec<GateRec>,
    barrier_succs: BarrierSuccs,
    /// Gates ingested so far.
    total: usize,
    eof: bool,
    /// Smallest incomplete gate index (advanced lazily).
    floor: usize,
    /// Gates below this global index are activated (eligible).
    active_end: usize,
    n_done: usize,

    // --- ingest-side dependency state --------------------------------
    /// Last gate touching each qubit since the previous barrier.
    last_on: Vec<u32>,
    /// First gate index after the previous barrier.
    span_start: usize,
    last_barrier: Option<usize>,

    // --- per-position scoring state (Eq. 2 engines only) -------------
    /// Difference array (`n_positions + 1` entries) of the score
    /// ceiling: its prefix sum through `p` is `cover[p]`, the
    /// incomplete, *active*, non-barrier gates covering `p`.
    cover_diff: Vec<i32>,
    counts: Vec<u32>,
    dirty: Vec<bool>,
    /// Range marks not yet folded into `dirty`, as a difference array
    /// (`n_positions + 1` entries) the argmax walk folds and clears.
    dirty_diff: Vec<i32>,
    ready_at: Vec<Vec<u32>>,
    candidates: Vec<(i64, u32)>,

    // --- cascade scratch (aligned with `recs`) -----------------------
    /// `(epoch, unmet)`: the predecessors a gate still waits on in the
    /// cascade walk stamped `epoch`.
    need: Vec<(u32, u32)>,
    epoch: u32,
    succ_epoch: Vec<u32>,
    succ_epoch_counter: u32,
    stack: Vec<usize>,
    heap: BinaryHeap<Reverse<usize>>,
    executed: Vec<usize>,

    head: Option<usize>,
    work: SchedulerWork,
    /// Check the incremental state against a recount after every round.
    #[cfg(test)]
    audit: bool,
}

impl StreamScheduler {
    pub(crate) fn new(spec: DeviceSpec, kind: SchedulerKind, horizon: usize) -> Self {
        let n_positions = spec.n_head_positions();
        StreamScheduler {
            spec,
            penalty: kind.penalty_permille(),
            horizon: horizon.max(1),
            n_positions,
            base: 0,
            recs: Vec::new(),
            barrier_succs: BarrierSuccs::default(),
            total: 0,
            eof: false,
            floor: 0,
            active_end: 0,
            n_done: 0,
            last_on: vec![NO_GATE; spec.n_ions()],
            span_start: 0,
            last_barrier: None,
            cover_diff: vec![0; n_positions + 1],
            counts: vec![0; n_positions],
            dirty: vec![false; n_positions],
            dirty_diff: vec![0; n_positions + 1],
            ready_at: vec![Vec::new(); n_positions],
            candidates: Vec::new(),
            need: Vec::new(),
            epoch: 0,
            succ_epoch: Vec::new(),
            succ_epoch_counter: 0,
            stack: Vec::new(),
            heap: BinaryHeap::new(),
            executed: Vec::new(),
            head: None,
            work: SchedulerWork::default(),
            #[cfg(test)]
            audit: false,
        }
    }

    fn done_at(&self, idx: usize) -> bool {
        idx < self.base || self.recs[idx - self.base].done
    }

    /// Appends `succ` to the successor list of `barrier`, which must be
    /// the newest barrier (the only list that can still grow).
    fn push_barrier_succ(&mut self, barrier: usize, succ: usize) {
        let rec = &mut self.recs[barrier - self.base];
        debug_assert_eq!(rec.succs[1], self.barrier_succs.end());
        rec.succs[1] += 1;
        self.barrier_succs.ids.push(succ as u32);
    }

    /// Ingests the next gate of the physical stream.
    ///
    /// # Panics
    ///
    /// Panics on an unrouted two-qubit gate (same contract as
    /// [`super::schedule`]).
    pub(crate) fn push(&mut self, g: Gate) {
        let idx = self.total;
        assert!(idx < NO_GATE as usize, "gate stream exceeds u32 indexing");
        self.total += 1;
        if let Some(d) = g.span() {
            assert!(
                d < self.spec.head_size(),
                "unrouted gate {g:?} spans {d} ≥ head size {}",
                self.spec.head_size()
            );
        }
        let (lo, hi) = match self
            .spec
            .covering_head_positions(g.operands().iter().map(|q| q.index()))
        {
            Some(r) => (*r.start() as u32, *r.end() as u32),
            None => (0, (self.n_positions - 1) as u32),
        };
        let mut rec = GateRec {
            gate: g,
            lo,
            hi,
            pending: 0,
            succs: [0; 3],
            preds: [0; 2],
            n_succs: 0,
            n_preds: 0,
            done: false,
        };

        if matches!(g, Gate::Barrier) {
            // Every incomplete gate of the closing span becomes a
            // predecessor; already-retired span gates need no edge (the
            // residual count never included them).
            let mut pending = 0u32;
            for p in self.span_start.max(self.base)..idx {
                let r = &mut self.recs[p - self.base];
                if r.done || r.is_barrier() {
                    continue;
                }
                pending += 1;
                debug_assert!((r.n_succs as usize) < 3);
                r.succs[r.n_succs as usize] = idx as u32;
                r.n_succs += 1;
            }
            if pending == 0 {
                if let Some(lb) = self.last_barrier {
                    if !self.done_at(lb) {
                        pending = 1;
                        self.push_barrier_succ(lb, idx);
                    }
                }
            }
            rec.pending = pending;
            // Its own successor list starts empty at the spill's end.
            let end = self.barrier_succs.end();
            rec.succs = [end, end, 0];
            self.last_barrier = Some(idx);
            self.span_start = idx + 1;
            self.last_on.fill(NO_GATE);
        } else {
            let ops = g.operands();
            let mut pred_set = [0u32; 2];
            let mut n_distinct = 0usize;
            for q in ops.iter() {
                let p = self.last_on[q.index()];
                if p != NO_GATE && !pred_set[..n_distinct].contains(&p) {
                    pred_set[n_distinct] = p;
                    n_distinct += 1;
                }
            }
            if n_distinct == 0 {
                // No writer since the fence: depend on the fence itself.
                if let Some(lb) = self.last_barrier {
                    if !self.done_at(lb) {
                        rec.pending = 1;
                        self.push_barrier_succ(lb, idx);
                    }
                }
            } else {
                for &p in &pred_set[..n_distinct] {
                    if self.done_at(p as usize) {
                        continue;
                    }
                    rec.pending += 1;
                    rec.preds[rec.n_preds as usize] = p;
                    rec.n_preds += 1;
                    let r = &mut self.recs[p as usize - self.base];
                    debug_assert!((r.n_succs as usize) < 3);
                    r.succs[r.n_succs as usize] = idx as u32;
                    r.n_succs += 1;
                }
            }
            for q in ops.iter() {
                self.last_on[q.index()] = idx as u32;
            }
        }

        self.recs.push(rec);
        self.need.push((0, 0));
        self.succ_epoch.push(0);
    }

    /// Reserves room for `additional` more gates of per-gate state, so
    /// a one-shot schedule of a circuit of known (or estimated) length
    /// allocates it once instead of growing (and transiently copying) it
    /// gate by gate.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.recs.reserve_exact(additional);
        self.need.reserve_exact(additional);
        self.succ_epoch.reserve_exact(additional);
    }

    /// Marks the input stream exhausted; subsequent
    /// [`StreamScheduler::run_rounds`] calls drain to completion.
    pub(crate) fn finish_input(&mut self) {
        self.eof = true;
    }

    pub(crate) fn is_done(&self) -> bool {
        self.eof && self.n_done == self.total
    }

    /// Runs scheduling rounds while legal — i.e. while the retained
    /// stream reaches the eligibility bound (`total ≥ floor + H`) or
    /// the input is exhausted — appending emitted ops to `ops`.
    pub(crate) fn run_rounds(&mut self, ops: &mut Vec<TiltOp>) {
        loop {
            while self.floor < self.total && self.done_at(self.floor) {
                self.floor += 1;
            }
            if self.floor == self.total {
                break;
            }
            if !self.eof && self.total < self.floor + self.horizon {
                break;
            }
            let e = (self.floor + self.horizon).min(self.total);
            self.round(e, ops);
            #[cfg(test)]
            if self.audit {
                self.check_incremental_state(e);
            }
            self.maybe_compact();
        }
    }

    /// Activates gates `[active_end, e)`: they join the cover ceiling,
    /// dirty their ranges (a newly eligible gate can only raise
    /// scores), and enter the per-position ready lists when already
    /// unblocked.
    fn activate(&mut self, e: usize) {
        let mut pushes = 0u64;
        for idx in self.active_end..e {
            let rec = &self.recs[idx - self.base];
            debug_assert!(!rec.done);
            let (lo, hi) = (rec.lo as usize, rec.hi as usize);
            if self.penalty.is_some() {
                if !rec.is_barrier() {
                    add_range(&mut self.cover_diff, lo, hi, 1);
                }
                add_range(&mut self.dirty_diff, lo, hi, 1);
            }
            if rec.pending == 0 {
                pushes += (hi - lo + 1) as u64;
                for p in lo..=hi {
                    self.ready_at[p].push(idx as u32);
                }
            }
        }
        self.work.ready_pushes += pushes;
        self.active_end = e;
    }

    fn round(&mut self, e: usize, ops: &mut Vec<TiltOp>) {
        self.work.rounds += 1;
        if e > self.active_end {
            self.activate(e);
        }

        let pos = match self.penalty {
            Some(penalty) => match self.best_position(penalty, e) {
                Some(pos) => pos,
                // Every eligible ready gate is a barrier (a countable
                // ready gate would score ≥ 1 somewhere): complete the
                // barriers without moving and rescore next round.
                None => {
                    self.barrier_relief(e);
                    return;
                }
            },
            // NaiveNextGate: the oldest ready gate is exactly the floor
            // gate (all its predecessors are below the floor, hence
            // complete), parked at the leftmost covering position.
            None => {
                let rec = &self.recs[self.floor - self.base];
                debug_assert_eq!(rec.pending, 0);
                rec.lo as usize
            }
        };

        if self.head != Some(pos) {
            if self.head.is_some() {
                ops.push(TiltOp::Move { to: pos });
            }
            self.head = Some(pos);
        }

        // Drain the cascade at `pos` in min-index order, with the
        // eligibility bound frozen for the whole round.
        self.drain(pos, e, |rec| rec.covers(pos));
        for &i in &self.executed {
            let gate = self.recs[i - self.base].gate;
            if !matches!(gate, Gate::Barrier) {
                ops.push(TiltOp::Gate {
                    gate,
                    head_pos: pos,
                });
            }
        }
        assert!(
            !self.executed.is_empty(),
            "scheduler made no progress at position {pos}; this is a bug"
        );

        if self.penalty.is_some() {
            self.mark_dirty_after_round(e);
        }
    }

    /// Completes, in min-index order, the ready gates listed at
    /// position `at` plus every eligible successor they unlock that
    /// `joins` admits, recording them in `executed`. An unlocked
    /// successor that does not join goes onto the ready lists of its
    /// covering positions; one that joins runs here and is never listed.
    fn drain(&mut self, at: usize, e: usize, joins: impl Fn(&GateRec) -> bool) {
        self.heap.clear();
        self.work.ready_scanned += self.ready_at[at].len() as u64;
        let mut pushes = 0u64;
        {
            let base = self.base;
            let recs = &self.recs;
            self.ready_at[at].retain(|&g| {
                let g = g as usize;
                g >= base && !recs[g - base].done
            });
        }
        self.heap
            .extend(self.ready_at[at].iter().map(|&g| Reverse(g as usize)));
        self.executed.clear();
        while let Some(Reverse(i)) = self.heap.pop() {
            let rec = &mut self.recs[i - self.base];
            debug_assert!(!rec.done && rec.pending == 0);
            rec.done = true;
            self.n_done += 1;
            let rec = *rec;
            for &s in succs_of(&rec, &self.barrier_succs) {
                let s = s as usize;
                let srec = &mut self.recs[s - self.base];
                srec.pending -= 1;
                if srec.pending == 0 && s < e {
                    if joins(srec) {
                        self.heap.push(Reverse(s));
                    } else {
                        let (lo, hi) = (srec.lo as usize, srec.hi as usize);
                        pushes += (hi - lo + 1) as u64;
                        for p in lo..=hi {
                            self.ready_at[p].push(s as u32);
                        }
                    }
                }
            }
            self.executed.push(i);
        }
        self.work.ready_pushes += pushes;
    }

    /// When a round's argmax finds no countable gate anywhere, the
    /// eligible ready set consists solely of barriers (any countable
    /// ready gate would score at its covering positions). Complete
    /// them — min-index order, cascading through newly-ready eligible
    /// barriers — without moving the head or emitting ops; the capped
    /// rescan oracle applies the identical rule.
    fn barrier_relief(&mut self, e: usize) {
        // Barriers cover every position, so the ready list at position
        // 0 holds exactly the eligible ready barriers here.
        self.drain(0, e, GateRec::is_barrier);
        debug_assert!(self
            .executed
            .iter()
            .all(|&i| self.recs[i - self.base].is_barrier()));
        assert!(
            !self.executed.is_empty(),
            "no head position can execute any ready gate; circuit is unroutable"
        );
        self.mark_dirty_after_round(e);
    }

    /// Dirty marking: every retired gate's range (with the cover
    /// ceiling decrement), plus each still-eligible successor's range
    /// intersected with its incomplete predecessors' ranges — a cascade
    /// can only admit the successor where those predecessors are
    /// themselves executable.
    fn mark_dirty_after_round(&mut self, e: usize) {
        self.succ_epoch_counter += 1;
        let executed = std::mem::take(&mut self.executed);
        for &i in &executed {
            let rec = &self.recs[i - self.base];
            let (lo, hi) = (rec.lo as usize, rec.hi as usize);
            if !rec.is_barrier() {
                add_range(&mut self.cover_diff, lo, hi, -1);
            }
            add_range(&mut self.dirty_diff, lo, hi, 1);
            for &s in succs_of(rec, &self.barrier_succs) {
                let s = s as usize;
                if s >= e {
                    // Not yet eligible: activation will dirty its full
                    // range when it joins.
                    continue;
                }
                let sslot = s - self.base;
                if self.succ_epoch[sslot] == self.succ_epoch_counter {
                    continue;
                }
                self.succ_epoch[sslot] = self.succ_epoch_counter;
                if let Some((slo, shi)) = self.admissible_range(s) {
                    add_range(&mut self.dirty_diff, slo, shi, 1);
                }
            }
        }
        self.executed = executed;
    }

    /// The positions where a cascade could admit gate `s`: its covering
    /// range intersected with those of its incomplete predecessors, or
    /// `None` when the intersection is empty.
    fn admissible_range(&self, s: usize) -> Option<(usize, usize)> {
        let srec = &self.recs[s - self.base];
        let mut range = (srec.lo, srec.hi);
        let narrow = |range: &mut (u32, u32), q: &GateRec| {
            if !q.done {
                range.0 = range.0.max(q.lo);
                range.1 = range.1.min(q.hi);
            }
        };
        if srec.is_barrier() {
            // A barrier's predecessors are the non-barrier gates of the
            // span it closes, which sit directly below it; over an empty
            // span it waits on the previous barrier, which covers every
            // position and narrows nothing.
            for q in self.recs[..s - self.base].iter().rev() {
                if q.is_barrier() || range.0 > range.1 {
                    break;
                }
                narrow(&mut range, q);
            }
        } else {
            for &q in &srec.preds[..srec.n_preds as usize] {
                if let Some(q) = (q as usize).checked_sub(self.base) {
                    narrow(&mut range, &self.recs[q]);
                }
            }
        }
        let (lo, hi) = range;
        (lo <= hi).then_some((lo as usize, hi as usize))
    }

    /// The pruned argmax over the active window: clean positions
    /// establish the incumbent from cached counts, dirty candidates are
    /// walked in descending ceiling order and rescored exactly while
    /// their bound could still win.
    fn best_position(&mut self, penalty: i64, e: usize) -> Option<usize> {
        let mut best: Option<(i64, usize, usize)> = None;
        self.candidates.clear();
        // The running sums of the two difference arrays are `cover[pos]`
        // and the range marks pending at `pos`, folded in as we pass.
        let (mut cover, mut marks) = (0i32, 0i32);
        for pos in 0..self.n_positions {
            cover += self.cover_diff[pos];
            marks += std::mem::take(&mut self.dirty_diff[pos]);
            let dist = self.head.map_or(0, |h| h.abs_diff(pos));
            if marks > 0 || self.dirty[pos] {
                self.dirty[pos] = true;
                let bound = cover as i64 * 1000 - penalty * dist as i64;
                self.candidates.push((bound, pos as u32));
            } else if self.counts[pos] > 0 {
                let score = self.counts[pos] as i64 * 1000 - penalty * dist as i64;
                consider(&mut best, (score, dist, pos));
            }
        }
        self.dirty_diff[self.n_positions] = 0;
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let mut rescored = 0u64;
        for &(bound, p) in &candidates {
            if let Some((bs, _, _)) = best {
                if bound < bs {
                    // Exact ≤ bound < incumbent: pruned, stays dirty.
                    break;
                }
            }
            let pos = p as usize;
            rescored += 1;
            self.dirty[pos] = false;
            let count = self.cascade_count(pos, e);
            self.counts[pos] = count;
            if count > 0 {
                let dist = self.head.map_or(0, |h| h.abs_diff(pos));
                consider(
                    &mut best,
                    (count as i64 * 1000 - penalty * dist as i64, dist, pos),
                );
            }
        }
        self.work.candidates += candidates.len() as u64;
        self.work.rescored += rescored;
        self.candidates = candidates;
        best.map(|(_, _, pos)| pos)
    }

    /// The epoch-stamped cascade count over the active window: active
    /// ready gates covered by `pos` execute, unlocking covered active
    /// successors transitively; barriers cascade but do not count.
    fn cascade_count(&mut self, pos: usize, e: usize) -> u32 {
        self.work.ready_scanned += self.ready_at[pos].len() as u64;
        {
            let base = self.base;
            let recs = &self.recs;
            self.ready_at[pos].retain(|&g| {
                let g = g as usize;
                g >= base && !recs[g - base].done
            });
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for slot in &mut self.need {
                slot.0 = u32::MAX;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.stack.clear();
        self.stack
            .extend(self.ready_at[pos].iter().map(|&g| g as usize));

        let (base, recs, stack, need) = (self.base, &self.recs, &mut self.stack, &mut self.need);
        let mut count = 0u32;
        let mut steps = 0u64;
        while let Some(i) = stack.pop() {
            let rec = &recs[i - base];
            if !rec.is_barrier() {
                count += 1;
            }
            for &s in succs_of(rec, &self.barrier_succs) {
                let s = s as usize;
                if s >= e {
                    continue;
                }
                steps += 1;
                let sslot = s - base;
                let slot = &mut need[sslot];
                if slot.0 != epoch {
                    *slot = (epoch, recs[sslot].pending);
                }
                slot.1 -= 1;
                if slot.1 == 0 && recs[sslot].covers(pos) {
                    stack.push(s);
                }
            }
        }
        self.work.cascade_steps += steps;
        count
    }

    /// Retires the completed prefix once it dominates the live window,
    /// keeping the resident state at O(horizon + ingest slack).
    fn maybe_compact(&mut self) {
        let retired = self.floor - self.base;
        if retired < 1024 || retired * 2 < self.recs.len() {
            return;
        }
        // The last retired barrier's run ends where the retained
        // barriers' runs begin; a stream with an empty spill skips the
        // scan for it.
        if !self.barrier_succs.ids.is_empty() {
            if let Some(b) = self.recs[..retired].iter().rev().find(|r| r.is_barrier()) {
                let end = b.succs[1] as usize;
                self.barrier_succs
                    .ids
                    .drain(..end - self.barrier_succs.base);
                self.barrier_succs.base = end;
            }
        }
        self.recs.drain(..retired);
        self.need.drain(..retired);
        self.succ_epoch.drain(..retired);
        self.base = self.floor;
        let base = self.base;
        for list in &mut self.ready_at {
            self.work.ready_scanned += list.len() as u64;
            let recs = &self.recs;
            list.retain(|&g| {
                let g = g as usize;
                g >= base && !recs[g - base].done
            });
        }
    }

    /// Checks the incremental scoring state against a recount: each
    /// `cover[p]` is the number of incomplete, eligible, non-barrier
    /// gates covering `p`, and each clean position's cached count is
    /// the cascade count a fresh walk gives.
    #[cfg(test)]
    fn check_incremental_state(&mut self, e: usize) {
        if self.penalty.is_none() {
            return;
        }
        let (mut cover, mut marks) = (0i32, 0i32);
        for p in 0..self.n_positions {
            cover += self.cover_diff[p];
            marks += self.dirty_diff[p];
            let live = self.recs[..e - self.base]
                .iter()
                .filter(|r| !r.done && !r.is_barrier() && r.covers(p))
                .count();
            assert_eq!(cover, live as i32, "cover[{p}] at E={e}");
            if marks == 0 && !self.dirty[p] {
                let work = self.work;
                let fresh = self.cascade_count(p, e);
                self.work = work;
                assert_eq!(self.counts[p], fresh, "clean count at {p}, E={e}");
            }
        }
    }
}

/// Adds `by` over positions `lo..=hi` of the difference array `diff`.
fn add_range(diff: &mut [i32], lo: usize, hi: usize, by: i32) {
    diff[lo] += by;
    diff[hi + 1] -= by;
}

/// The successors of `rec`: inline for an ordinary gate, its run of the
/// spill buffer for a barrier.
fn succs_of<'a>(rec: &'a GateRec, spill: &'a BarrierSuccs) -> &'a [u32] {
    if rec.is_barrier() {
        let (lo, hi) = (rec.succs[0] as usize, rec.succs[1] as usize);
        &spill.ids[lo - spill.base..hi - spill.base]
    } else {
        &rec.succs[..rec.n_succs as usize]
    }
}

/// Keeps the better of `best` and `cand` under the argmax's total
/// order on `(score, dist, pos)`: score descending, then the smaller
/// head travel, then the leftmost position.
fn consider(best: &mut Option<(i64, usize, usize)>, cand: (i64, usize, usize)) {
    let (score, dist, pos) = cand;
    let better = match *best {
        None => true,
        Some((bs, bd, bp)) => score > bs || (score == bs && (dist, pos) < (bd, bp)),
    };
    if better {
        *best = Some(cand);
    }
}

/// One-shot adapter: runs the engine over an in-memory circuit.
pub(super) fn schedule_stream_monolithic(
    physical: &Circuit,
    spec: DeviceSpec,
    kind: SchedulerKind,
    horizon: usize,
) -> TiltProgram {
    let mut s = StreamScheduler::new(spec, kind, horizon);
    s.reserve(physical.len());
    let mut ops: Vec<TiltOp> = Vec::with_capacity(physical.len());
    for &g in physical.gates() {
        s.push(g);
        s.run_rounds(&mut ops);
    }
    s.finish_input();
    s.run_rounds(&mut ops);
    debug_assert!(s.is_done());
    TiltProgram::new(spec, ops)
}

#[cfg(test)]
mod tests {
    use super::super::oracle::schedule_rescan_capped;
    use super::super::{schedule, SchedulerKind};
    use super::*;
    use tilt_circuit::Qubit;

    fn spec(n: usize, head: usize) -> DeviceSpec {
        DeviceSpec::new(n, head).unwrap()
    }

    /// Deterministic mixed workload: zones, chains, fences, 1q traffic.
    fn workload(n: usize, len: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..len {
            match next() % 10 {
                0..=5 => {
                    let a = (next() as usize) % n;
                    let span = 1 + (next() as usize) % 3;
                    let b = (a + span).min(n - 1);
                    if a != b {
                        c.xx(Qubit(a.min(b)), Qubit(a.max(b)), 0.1);
                    } else {
                        c.rx(Qubit(a), 0.2);
                    }
                }
                6..=8 => {
                    c.rz(Qubit((next() as usize) % n), 0.3);
                }
                _ => {
                    c.barrier();
                }
            }
        }
        c
    }

    const KINDS: [SchedulerKind; 4] = [
        SchedulerKind::GreedyMaxExecutable,
        SchedulerKind::DistanceDiscounted {
            penalty_permille: 250,
        },
        SchedulerKind::DistanceDiscounted {
            penalty_permille: 2000,
        },
        SchedulerKind::NaiveNextGate,
    ];

    #[test]
    fn non_binding_horizon_matches_monolithic_engines() {
        // Every horizon the circuit never reaches schedules exactly as
        // the default one does.
        for seed in 0..4u64 {
            let c = workload(24, 160, seed);
            for kind in KINDS {
                let mono = schedule(&c, spec(24, 6), kind);
                let streamed = schedule_stream_monolithic(&c, spec(24, 6), kind, c.len() + 1);
                assert_eq!(streamed, mono, "kind {kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn binding_horizon_matches_capped_rescan() {
        for seed in 0..4u64 {
            let c = workload(20, 200, seed);
            for kind in KINDS {
                for horizon in [1usize, 2, 7, 32, 150] {
                    let reference = schedule_rescan_capped(&c, spec(20, 5), kind, horizon);
                    let streamed = schedule_stream_monolithic(&c, spec(20, 5), kind, horizon);
                    assert_eq!(streamed, reference, "kind {kind:?} seed {seed} H={horizon}");
                }
            }
        }
    }

    #[test]
    fn capped_rescan_with_loose_horizon_is_the_seed_engine() {
        // Digests of the seed rescan engine's programs on these
        // workloads, recorded from that engine before it moved into the
        // oracle: at a horizon the circuit never reaches, the capped
        // loop must reproduce it exactly.
        const SEED_ENGINE: [[&str; 4]; 3] = [
            [
                "3cef4c574855e527e75063502492b6ab",
                "67ff104fbed59e1b8d1b09a2c70ec650",
                "ac7ea3a15a71fed0e8810e82f26a521e",
                "733075d592069360c722603f033607eb",
            ],
            [
                "09bfbbd4adbaa5e0cef30f12b11915ec",
                "312e95b020c144328f78eedbda2e83d9",
                "accb8f7a558be6fb9e1ae1ddeed7cb51",
                "396905138c4c15d3ccfeb5049dc85484",
            ],
            [
                "bae21ba18453bd53f54f236440387f97",
                "57a3464557f464ff7927dd0b0fb079c6",
                "d7f52df8fe5ad3cacd17bd65c2cf9f1e",
                "ceea7585ddb198c9181b9b36f1661e30",
            ],
        ];
        for (seed, digests) in SEED_ENGINE.iter().enumerate() {
            let c = workload(16, 120, seed as u64);
            for (kind, want) in KINDS.into_iter().zip(digests) {
                for horizon in [c.len(), usize::MAX] {
                    let capped = schedule_rescan_capped(&c, spec(16, 4), kind, horizon);
                    let mut h = tilt_hash::Hasher::new();
                    h.write_str(&format!("{:?}", capped.ops()));
                    assert_eq!(
                        h.digest().to_hex(),
                        *want,
                        "kind {kind:?} seed {seed} H={horizon}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_push_matches_bulk_push() {
        // Interleaving run_rounds with pushes (the windowed pipeline's
        // call pattern) must not change any decision.
        let c = workload(24, 300, 9);
        let sp = spec(24, 6);
        for horizon in [16usize, 64, 1024] {
            let bulk =
                schedule_stream_monolithic(&c, sp, SchedulerKind::GreedyMaxExecutable, horizon);
            let mut s = StreamScheduler::new(sp, SchedulerKind::GreedyMaxExecutable, horizon);
            let mut ops = Vec::new();
            for (i, &g) in c.gates().iter().enumerate() {
                s.push(g);
                if i % 7 == 0 {
                    s.run_rounds(&mut ops);
                }
            }
            s.finish_input();
            s.run_rounds(&mut ops);
            assert!(s.is_done());
            assert_eq!(TiltProgram::new(sp, ops), bulk, "H={horizon}");
        }
    }

    /// Runs `c` through a fresh engine, pushing and scheduling gate by
    /// gate, and returns it finished.
    fn run_engine(
        c: &Circuit,
        sp: DeviceSpec,
        kind: SchedulerKind,
        horizon: usize,
        audit: bool,
    ) -> StreamScheduler {
        let mut s = StreamScheduler::new(sp, kind, horizon);
        s.audit = audit;
        let mut ops = Vec::new();
        for &g in c.gates() {
            s.push(g);
            s.run_rounds(&mut ops);
        }
        s.finish_input();
        s.run_rounds(&mut ops);
        assert!(s.is_done());
        s
    }

    /// QEC-shaped syndrome rounds: parity gates between each ancilla (odd
    /// ions) and its data neighbours, ancilla measure and reset, and a
    /// closing barrier per round.
    fn fenced_rounds(n: usize, rounds: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..rounds {
            for a in (1..n - 1).step_by(2) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if !state.is_multiple_of(4) {
                    c.xx(Qubit(a - 1), Qubit(a), 0.5);
                    c.xx(Qubit(a), Qubit(a + 1), 0.5);
                }
                c.measure(Qubit(a));
                c.push(Gate::Reset(Qubit(a)));
            }
            c.barrier();
        }
        c
    }

    #[test]
    fn work_counters_pin_decisions_and_shrink_ready_lists() {
        // (rounds, candidates, rescored, cascade steps, ready-list pushes,
        // ready-list entries scanned) per kind in `KINDS` order and horizon,
        // recorded from the engine that listed every gate the drain
        // unlocked and looped over covering ranges per position. The
        // decision work must match it exactly; the ready-list work must
        // come in below it.
        const BEFORE: [[[u64; 6]; 3]; 4] = [
            [
                [256, 4573, 975, 961, 3115, 4459],
                [151, 2044, 1961, 4107, 3115, 4476],
                [151, 1706, 1623, 3728, 3115, 4366],
            ],
            [
                [282, 4958, 860, 489, 3115, 3972],
                [162, 2093, 1978, 3955, 3115, 4501],
                [162, 1792, 1677, 3684, 3115, 4407],
            ],
            [
                [404, 5760, 1735, 491, 3115, 3993],
                [256, 2647, 2209, 4925, 3115, 4831],
                [256, 2242, 1961, 4787, 3115, 4786],
            ],
            [
                [287, 0, 0, 0, 3115, 3206],
                [208, 0, 0, 0, 3115, 3064],
                [208, 0, 0, 0, 3115, 3064],
            ],
        ];
        let c = workload(24, 600, 11);
        for (kind, before) in KINDS.into_iter().zip(BEFORE) {
            for (horizon, want) in [7usize, 150, super::super::DEFAULT_HORIZON]
                .into_iter()
                .zip(before)
            {
                let w = run_engine(&c, spec(24, 6), kind, horizon, false).work;
                let [rounds, candidates, rescored, steps, pushes, scanned] = want;
                assert_eq!(
                    (w.rounds, w.candidates, w.rescored, w.cascade_steps),
                    (rounds, candidates, rescored, steps),
                    "decision work, kind {kind:?} H={horizon}"
                );
                assert!(
                    w.ready_pushes < pushes && w.ready_scanned < scanned,
                    "ready-list work {w:?}, kind {kind:?} H={horizon}"
                );
            }
        }
    }

    #[test]
    fn incremental_state_matches_a_recount_after_every_round() {
        for seed in 0..4u64 {
            let mixed = workload(20, 200, seed);
            let fenced = fenced_rounds(20, 6, seed);
            for c in [&mixed, &fenced] {
                for kind in KINDS {
                    for horizon in [1usize, 2, 7, 32, 150] {
                        run_engine(c, spec(20, 5), kind, horizon, true);
                    }
                }
            }
        }
    }

    #[test]
    fn compaction_keeps_memory_bounded() {
        let sp = spec(8, 4);
        // A barrier-free chain stream, and syndrome rounds whose fences
        // fill the barrier spill buffer.
        let chain = (0..200_000usize).map(|i| Gate::Xx(Qubit(i % 7), Qubit(i % 7 + 1), 0.1));
        let fenced = fenced_rounds(8, 12_000, 5);
        let streams: [(Box<dyn Iterator<Item = Gate>>, usize); 2] = [
            (Box::new(chain), 200_000),
            (
                Box::new(fenced.gates().to_vec().into_iter()),
                fenced
                    .gates()
                    .iter()
                    .filter(|g| !matches!(g, Gate::Barrier))
                    .count(),
            ),
        ];
        for (gates, n_ops) in streams {
            let mut s = StreamScheduler::new(sp, SchedulerKind::GreedyMaxExecutable, 64);
            let mut ops = Vec::new();
            for g in gates {
                s.push(g);
                s.run_rounds(&mut ops);
                // The retained window tracks the horizon, not the stream.
                // Each retained gate is listed at most once per covering
                // position and is at most one barrier's successor, so the
                // ready lists and the barrier spill track it too.
                let listed: usize = s.ready_at.iter().map(Vec::len).sum();
                assert!(
                    s.recs.len() < 8 * 64 + 2048
                        && listed <= sp.n_head_positions() * s.recs.len()
                        && s.barrier_succs.ids.len() <= s.recs.len(),
                    "resident window grew to {} gates, {listed} ready-list entries, {} barrier successors",
                    s.recs.len(),
                    s.barrier_succs.ids.len()
                );
            }
            s.finish_input();
            s.run_rounds(&mut ops);
            assert!(s.is_done());
            assert_eq!(
                ops.iter()
                    .filter(|o| matches!(o, TiltOp::Gate { .. }))
                    .count(),
                n_ops
            );
        }
    }
}
