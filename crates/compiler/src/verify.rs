//! Static verification of compiled programs.
//!
//! A compiled program that silently violates a machine invariant is a
//! correctness bug the success estimator will happily mis-score: a gate
//! outside the head span would need a tape move the timing model never
//! charged, an over-long swap could not execute at any head position,
//! and a scrambled schedule breaks the circuit's dependency order. The
//! pipeline debug-asserts these invariants while building programs;
//! this module re-checks them in release builds, independently of the
//! pass that produced the artifacts.
//!
//! The rule pack is one fold, [`TiltVerifier`]: a [`ProgramSink`] that
//! a streamed compile checks every rule with as it goes, and that
//! [`verify_tilt`] drives over a finished [`CompileOutput`]. The QCCD
//! pack lives in `tilt-qccd`, the ELU-array fold in `tilt-scale`, and
//! the session layer (`tilt-engine`) dispatches on the run's backend.
//!
//! # TILT tape rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `tilt/head-span` | every gate's operands sit under the recorded head position; every move targets a valid head position |
//! | `tilt/swap-chain` | every inserted SWAP spans `1..=max_swap_len` positions |
//! | `tilt/mapping-bijection` | replaying the routed swaps over the initial mapping lands exactly on the recorded final mapping |
//! | `tilt/schedule-order` | the scheduled op stream preserves each ion's gate order from the routed circuit, and no gate is dropped or invented |
//!
//! Findings come out grouped by rule in that order, each group in
//! stream order, whatever the chunking of the input.
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{verify, Compiler, DeviceSpec};
//!
//! let mut c = Circuit::new(8);
//! c.h(Qubit(0)).cnot(Qubit(0), Qubit(7));
//! let spec = DeviceSpec::new(8, 4)?;
//! let out = Compiler::new(spec).compile(&c)?;
//! let cap = spec.head_size() - 1;
//! assert!(verify::verify_tilt(&out, cap).is_empty());
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

use crate::decompose::decompose_gate;
use crate::mapping::Mapping;
use crate::pipeline::streaming::ProgramSink;
use crate::pipeline::CompileOutput;
use crate::program::TiltOp;
use crate::spec::DeviceSpec;
use std::collections::VecDeque;
use tilt_circuit::{Circuit, Gate};
use tilt_hash::Fingerprint;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable; reported, never fatal.
    Warning,
    /// A machine-invariant violation: the program cannot execute as
    /// recorded, so any estimate derived from it is unsound.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One verifier finding, anchored to the offending operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, `backend/rule-name` (e.g.
    /// `tilt/head-span`).
    pub rule: &'static str,
    /// How bad the finding is.
    pub severity: Severity,
    /// Index of the offending operation in the stream the rule walks
    /// (op stream for program rules, routed circuit for routing rules;
    /// the message says which).
    pub op_index: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// An [`Severity::Error`] finding.
    pub fn error(rule: &'static str, op_index: usize, message: String) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            op_index,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] op {}: {}",
            self.severity, self.rule, self.op_index, self.message
        )
    }
}

/// Runs the TILT tape rule pack over one compilation.
///
/// `max_swap_len` is the router's effective swap-span cap
/// ([`crate::route::RouterKind::max_swap_span`] resolves it for the
/// configured policy).
pub fn verify_tilt(out: &CompileOutput, max_swap_len: usize) -> Vec<Diagnostic> {
    let mut verifier = TiltVerifier::new(
        *out.program.spec(),
        max_swap_len,
        out.routed.initial_mapping.clone(),
    );
    verifier.routed(out.routed.circuit.gates());
    verifier.emit(out.program.ops());
    verifier.finish(&out.routed.final_mapping)
}

/// The TILT tape rule pack as a fold over one compile's routed gates
/// ([`ProgramSink::routed`]) and scheduled ops ([`ProgramSink::emit`]).
///
/// Routed gates must arrive before the ops scheduled from them, as the
/// pass driver sends them; any such chunking yields the same findings,
/// with global indices. Memory is the mapping plus, per ion, a key of
/// each lowered routed gate not yet scheduled, which the scheduler
/// horizon bounds.
#[derive(Debug)]
pub struct TiltVerifier {
    spec: DeviceSpec,
    max_swap_len: usize,
    /// The initial mapping with every routed swap so far applied.
    mapping: Mapping,
    routed_seen: usize,
    ops_seen: usize,
    head_span: Vec<Diagnostic>,
    swap_chain: Vec<Diagnostic>,
    bijection: Vec<Diagnostic>,
    /// `tilt/schedule-order` per ion: the [`order_key`]s of the lowered
    /// routed gates no op has executed yet, or `None` after a finding on
    /// the ion (every later gate on it is out of step, which would only
    /// repeat the finding).
    expected: Vec<Option<VecDeque<u64>>>,
    order: Vec<Diagnostic>,
    /// Swap-lowering scratch.
    lowered: Circuit,
}

impl TiltVerifier {
    /// A verifier for a compile on `spec`'s tape whose router caps swap
    /// spans at `max_swap_len` and starts from `initial_mapping`.
    pub fn new(spec: DeviceSpec, max_swap_len: usize, initial_mapping: Mapping) -> TiltVerifier {
        let n = spec.n_ions();
        TiltVerifier {
            spec,
            max_swap_len,
            mapping: initial_mapping,
            routed_seen: 0,
            ops_seen: 0,
            head_span: Vec::new(),
            swap_chain: Vec::new(),
            bijection: Vec::new(),
            expected: vec![Some(VecDeque::new()); n],
            order: Vec::new(),
            lowered: Circuit::new(n),
        }
    }

    /// The initial mapping with every routed swap seen so far applied.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Ends both streams: checks the replayed mapping against the
    /// compile's `final_mapping` and reports every finding, grouped by
    /// rule in the order of the module's rule table.
    pub fn finish(mut self, final_mapping: &Mapping) -> Vec<Diagnostic> {
        if self.mapping != *final_mapping {
            self.bijection.push(Diagnostic::error(
                "tilt/mapping-bijection",
                self.routed_seen,
                "replaying the routed swaps does not reproduce the recorded final mapping".into(),
            ));
        }
        let mut diags = self.head_span;
        diags.append(&mut self.swap_chain);
        diags.append(&mut self.bijection);
        diags.append(&mut self.order);
        for (qi, queue) in self.expected.iter().enumerate() {
            if let Some(queue) = queue.as_ref().filter(|q| !q.is_empty()) {
                diags.push(Diagnostic::error(
                    "tilt/schedule-order",
                    self.ops_seen,
                    format!(
                        "position {qi} is missing {} scheduled gate(s) from the routed circuit",
                        queue.len()
                    ),
                ));
            }
        }
        diags
    }
}

impl ProgramSink for TiltVerifier {
    /// `tilt/head-span`: gates covered, moves in range. And
    /// `tilt/schedule-order`: the program must preserve every ion's gate
    /// subsequence from the (swap-lowered) routed circuit. The op stream
    /// is serial, so "never two ops on one ion at once" holds by
    /// construction; any reordering that crosses a data dependency shows
    /// up as a per-ion subsequence mismatch.
    fn emit(&mut self, ops: &[TiltOp]) {
        let (n, head) = (self.spec.n_ions(), self.spec.head_size());
        let max_head = n - head;
        for op in ops {
            let i = self.ops_seen;
            self.ops_seen += 1;
            let mut head_span = |message: String| {
                self.head_span
                    .push(Diagnostic::error("tilt/head-span", i, message));
            };
            let (gate, head_pos) = match *op {
                TiltOp::Gate { gate, head_pos } => (gate, head_pos),
                TiltOp::Move { to } => {
                    if to > max_head {
                        head_span(format!(
                            "move targets head position {to}, past the last valid {max_head}"
                        ));
                    }
                    continue;
                }
            };
            if head_pos > max_head {
                head_span(format!(
                    "{gate} recorded at head {head_pos}, past the last valid {max_head}"
                ));
            }
            let key = order_key(&gate);
            for q in gate.operands() {
                let qi = q.index();
                if qi >= n || !self.spec.covers(head_pos, qi) {
                    head_span(format!(
                        "{gate} at head {head_pos} leaves position {qi} outside the {head}-wide head"
                    ));
                }
                let Some(Some(queue)) = self.expected.get_mut(qi) else {
                    continue;
                };
                let message = match queue.pop_front() {
                    Some(want) if want == key => continue,
                    Some(_) => {
                        format!("position {qi} executes {gate} out of its routed gate order")
                    }
                    None => {
                        format!("position {qi} executes {gate} beyond its routed gate sequence")
                    }
                };
                self.expected[qi] = None;
                self.order
                    .push(Diagnostic::error("tilt/schedule-order", i, message));
            }
        }
    }

    /// `tilt/swap-chain` and `tilt/mapping-bijection`; each gate's
    /// lowering joins the per-ion sequences `tilt/schedule-order` checks.
    fn routed(&mut self, gates: &[Gate]) {
        for g in gates {
            let i = self.routed_seen;
            self.routed_seen += 1;
            if let Gate::Swap(a, b) = g {
                let (a, b) = (a.index(), b.index());
                let span = a.abs_diff(b);
                if span == 0 || span > self.max_swap_len {
                    self.swap_chain.push(Diagnostic::error(
                        "tilt/swap-chain",
                        i,
                        format!(
                            "routed swap ({a}, {b}) spans {span} positions, outside the router's \
                             1..={} cap",
                            self.max_swap_len
                        ),
                    ));
                }
                let n = self.mapping.len();
                if a >= n || b >= n {
                    self.bijection.push(Diagnostic::error(
                        "tilt/mapping-bijection",
                        i,
                        format!("swap ({a}, {b}) references a position outside the {n}-ion tape"),
                    ));
                } else {
                    self.mapping.swap_positions(a, b);
                }
            }
            let n = self.spec.n_ions();
            self.lowered.reset(n);
            decompose_gate(&mut self.lowered, g);
            for lg in self.lowered.gates() {
                let key = order_key(lg);
                for q in lg.operands() {
                    if let Some(Some(queue)) = self.expected.get_mut(q.index()) {
                        queue.push_back(key);
                    }
                }
            }
        }
    }
}

/// A gate's identity for `tilt/schedule-order`: its 128-bit fingerprint
/// folded to 64 bits, a quarter of the gate's size, since the queues
/// hold every routed gate the scheduler has not yet executed.
fn order_key(g: &Gate) -> u64 {
    let d = g.fingerprint().0;
    (d ^ (d >> 64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::streaming::StreamingCompiler;
    use crate::pipeline::Compiler;
    use crate::program::TiltProgram;
    use crate::route::{LinqConfig, RouterKind};
    use tilt_circuit::Qubit;

    fn compiled(n: usize, head: usize) -> CompileOutput {
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        c.cnot(Qubit(0), Qubit(n - 1));
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(&c)
            .unwrap()
    }

    #[test]
    fn clean_compile_verifies_clean() {
        let out = compiled(16, 4);
        assert_eq!(verify_tilt(&out, 3), Vec::new());
    }

    #[test]
    fn capped_router_verifies_against_its_cap() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(15));
        let spec = DeviceSpec::new(16, 8).unwrap();
        let mut compiler = Compiler::new(spec);
        compiler.router(RouterKind::Linq(LinqConfig::with_max_swap_len(3)));
        let out = compiler.compile(&c).unwrap();
        assert!(verify_tilt(&out, 3).is_empty());
    }

    #[test]
    fn uncovered_gate_is_diagnosed() {
        let mut out = compiled(16, 4);
        // Rebuild the program with one gate's head position shifted out
        // from under its operands (skip the debug asserts of `new` by
        // mutating a covered gate to an uncovered head).
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, TiltOp::Gate { gate, .. } if gate.is_two_qubit()))
            .unwrap();
        if let TiltOp::Gate { gate, head_pos } = &mut ops[idx] {
            let hi = gate.operands().iter().map(|q| q.index()).max().unwrap();
            *head_pos = if hi >= spec.head_size() {
                0
            } else {
                spec.n_ions() - spec.head_size()
            };
        }
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/head-span" && d.op_index == idx),
            "{diags:?}"
        );
    }

    #[test]
    fn move_past_tape_end_is_diagnosed() {
        let mut out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        ops.push(TiltOp::Move { to: spec.n_ions() });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags.iter().any(|d| d.rule == "tilt/head-span"),
            "{diags:?}"
        );
    }

    /// Replays `out` through the fold in `chunk`-sized pieces, every
    /// routed gate first.
    fn fold(out: &CompileOutput, cap: usize, chunk: usize) -> Vec<Diagnostic> {
        let spec = *out.program.spec();
        let mut v = TiltVerifier::new(spec, cap, out.routed.initial_mapping.clone());
        out.routed
            .circuit
            .gates()
            .chunks(chunk)
            .for_each(|c| v.routed(c));
        out.program.ops().chunks(chunk).for_each(|c| v.emit(c));
        v.finish(&out.routed.final_mapping)
    }

    #[test]
    fn findings_do_not_depend_on_chunking() {
        // Corrupt every rule at once: a gate shifted off its head, a
        // move past the tape end, two dependent gates reordered, an
        // invented gate, and an over-long routed swap.
        let mut out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let gates: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], TiltOp::Gate { gate, .. } if gate.is_two_qubit()))
            .collect();
        if let TiltOp::Gate { head_pos, .. } = &mut ops[gates[0]] {
            *head_pos = spec.n_ions() - spec.head_size();
        }
        ops.swap(gates[1], gates[2]);
        ops.push(TiltOp::Move { to: spec.n_ions() });
        ops.push(TiltOp::Gate {
            gate: Gate::Rx(Qubit(3), 0.5),
            head_pos: 0,
        });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let swap = out
            .routed
            .circuit
            .iter()
            .position(|g| matches!(g, Gate::Swap(..)))
            .unwrap();
        out.routed.circuit.gates_mut()[swap] = Gate::Swap(Qubit(0), Qubit(9));
        let whole = verify_tilt(&out, 3);
        for rule in [
            "tilt/head-span",
            "tilt/swap-chain",
            "tilt/mapping-bijection",
            "tilt/schedule-order",
        ] {
            assert!(whole.iter().any(|d| d.rule == rule), "{rule}: {whole:?}");
        }
        for chunk in [1, 3, 7, usize::MAX] {
            assert_eq!(fold(&out, 3, chunk), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn streamed_compile_verifies_clean_in_its_sink() {
        let mut c = Circuit::new(16);
        for i in 0..200 {
            c.cnot(Qubit(i % 16), Qubit((i * 7 + 3) % 16));
        }
        let spec = DeviceSpec::new(16, 4).unwrap();
        let compiler = Compiler::new(spec);
        for window in [1, 64, usize::MAX] {
            let mut v = TiltVerifier::new(spec, 3, Mapping::identity(16));
            let mut session = StreamingCompiler::new(&compiler, 16, window).unwrap();
            for g in c.gates() {
                session.push(*g, &mut v).unwrap();
            }
            let summary = session.finish(&mut v);
            assert_eq!(v.finish(&summary.final_mapping), Vec::new());
        }
    }

    #[test]
    fn overlong_swap_is_diagnosed() {
        let mut out = compiled(16, 4);
        let idx = out
            .routed
            .circuit
            .iter()
            .position(|g| matches!(g, Gate::Swap(..)))
            .expect("wrap-around CNOT forces a swap");
        out.routed.circuit.gates_mut()[idx] = Gate::Swap(Qubit(0), Qubit(9));
        let diags = verify_tilt(&out, 3);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/swap-chain" && d.op_index == idx),
            "{diags:?}"
        );
        // Replaying the corrupted swap also breaks the recorded final
        // mapping and the per-ion schedule.
        assert!(diags.iter().any(|d| d.rule == "tilt/mapping-bijection"));
    }

    #[test]
    fn scrambled_schedule_is_diagnosed() {
        let mut out = compiled(16, 4);
        // Swap two gate ops that share an operand: per-ion order breaks.
        let gate_idx: Vec<usize> = out
            .program
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                TiltOp::Gate { gate, .. } if !gate.operands().is_empty() => Some(i),
                _ => None,
            })
            .collect();
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let (mut a, mut b) = (usize::MAX, usize::MAX);
        'outer: for (k, &i) in gate_idx.iter().enumerate() {
            for &j in &gate_idx[k + 1..] {
                let (TiltOp::Gate { gate: gi, .. }, TiltOp::Gate { gate: gj, .. }) =
                    (&ops[i], &ops[j])
                else {
                    continue;
                };
                let shared = gi.operands().iter().any(|q| gj.operands().contains(q));
                if shared && gi != gj {
                    (a, b) = (i, j);
                    break 'outer;
                }
            }
        }
        assert_ne!(a, usize::MAX, "GHZ chain has dependent gate pairs");
        ops.swap(a, b);
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags.iter().any(|d| d.rule == "tilt/schedule-order"),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_gate_is_diagnosed() {
        let mut out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        // Drop the final gate: no reordering, just a silently missing
        // op — the completeness half of the rule.
        let idx = ops
            .iter()
            .rposition(|op| matches!(op, TiltOp::Gate { .. }))
            .unwrap();
        ops.remove(idx);
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/schedule-order" && d.message.contains("missing")),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_rule_and_index() {
        let d = Diagnostic::error("tilt/head-span", 7, "example".into());
        assert_eq!(d.to_string(), "error[tilt/head-span] op 7: example");
        assert!(Severity::Error > Severity::Warning);
    }
}
