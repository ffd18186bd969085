//! The compiler's output format: an executable TILT program.

use crate::spec::DeviceSpec;
use std::fmt;
use tilt_circuit::Gate;

/// One TILT machine operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TiltOp {
    /// Shuttle the tape so the head's leftmost laser sits over ion
    /// position `to`. Every move heats the chain (§III-A).
    Move {
        /// New head position (leftmost covered ion).
        to: usize,
    },
    /// Execute `gate` while the head is at `head_pos`. All operands are
    /// guaranteed to be covered by the head.
    Gate {
        /// The native gate to execute (operands are physical positions).
        gate: Gate,
        /// Head position at execution time.
        head_pos: usize,
    },
}

/// An executable TILT program: the scheduled gate/move stream produced by
/// the LinQ pipeline, together with the device it targets.
///
/// The program starts with the head at the position of its first scheduled
/// segment; the initial placement is not counted as a move (the head parks
/// there before the computation starts).
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::{Compiler, DeviceSpec};
///
/// let mut c = Circuit::new(8);
/// c.cnot(Qubit(0), Qubit(1));
/// let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
/// assert_eq!(out.program.move_count(), 0); // everything fits in one zone
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TiltProgram {
    spec: DeviceSpec,
    ops: Vec<TiltOp>,
}

impl TiltProgram {
    /// Wraps a scheduled op stream for `spec`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every gate's operands are covered by its recorded
    /// head position and that every move targets a valid head position.
    pub fn new(spec: DeviceSpec, ops: Vec<TiltOp>) -> Self {
        #[cfg(debug_assertions)]
        for op in &ops {
            match op {
                TiltOp::Move { to } => {
                    debug_assert!(*to <= spec.n_ions() - spec.head_size());
                }
                TiltOp::Gate { gate, head_pos } => {
                    for q in gate.qubits() {
                        debug_assert!(
                            spec.covers(*head_pos, q.index()),
                            "{gate:?} at head {head_pos} leaves {q} uncovered"
                        );
                    }
                }
            }
        }
        TiltProgram { spec, ops }
    }

    /// Wraps an op stream without the debug-build invariant asserts.
    ///
    /// This exists for the static verifier's own tests, which
    /// deliberately construct invalid programs to prove the rules catch
    /// them; production passes go through [`TiltProgram::new`].
    pub fn new_unchecked(spec: DeviceSpec, ops: Vec<TiltOp>) -> Self {
        TiltProgram { spec, ops }
    }

    /// The device this program targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The operation stream in execution order.
    pub fn ops(&self) -> &[TiltOp] {
        &self.ops
    }

    /// The count/distance fold over the whole op stream.
    fn tally(&self) -> OpTally {
        let mut tally = OpTally::default();
        for op in &self.ops {
            tally.push(op);
        }
        tally
    }

    /// Number of tape movements (`#moves` in Table III).
    pub fn move_count(&self) -> usize {
        self.tally().moves
    }

    /// Total tape travel distance in ion spacings.
    ///
    /// Multiply by the ion spacing (5 µm, §II-B) for the `dist(µm)` column
    /// of Table III.
    pub fn move_distance_ions(&self) -> usize {
        self.tally().move_distance_ions
    }

    /// Number of gate operations.
    pub fn gate_count(&self) -> usize {
        self.tally().gates
    }

    /// Number of two-qubit gate operations.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.tally().two_qubit_gates
    }

    /// Iterates over the gates only, with their head positions.
    pub fn gates(&self) -> impl Iterator<Item = (&Gate, usize)> + '_ {
        self.ops.iter().filter_map(|op| match op {
            TiltOp::Gate { gate, head_pos } => Some((gate, *head_pos)),
            TiltOp::Move { .. } => None,
        })
    }

    /// The head position before any move (where the head parks initially),
    /// or `None` for an empty program.
    pub fn initial_head_position(&self) -> Option<usize> {
        self.ops
            .iter()
            .map(|op| match op {
                TiltOp::Gate { head_pos, .. } => *head_pos,
                TiltOp::Move { to } => *to,
            })
            .next()
    }
}

/// Move and gate counts and tape travel, folded one op at a time: the
/// fold behind [`TiltProgram`]'s counters and the streaming compile
/// report.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OpTally {
    pub(crate) moves: usize,
    pub(crate) move_distance_ions: usize,
    pub(crate) gates: usize,
    pub(crate) two_qubit_gates: usize,
    /// Head position after the ops so far; travel starts from the first
    /// position the head is seen at.
    last_head: Option<usize>,
}

impl OpTally {
    pub(crate) fn push(&mut self, op: &TiltOp) {
        match *op {
            TiltOp::Move { to } => {
                if let Some(p) = self.last_head {
                    self.move_distance_ions += p.abs_diff(to);
                }
                self.last_head = Some(to);
                self.moves += 1;
            }
            TiltOp::Gate { gate, head_pos } => {
                self.last_head.get_or_insert(head_pos);
                self.gates += 1;
                if gate.is_two_qubit() {
                    self.two_qubit_gates += 1;
                }
            }
        }
    }
}

impl fmt::Display for TiltProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tilt program [{} ions, head {}, {} gates, {} moves]",
            self.spec.n_ions(),
            self.spec.head_size(),
            self.gate_count(),
            self.move_count()
        )?;
        write!(f, "{}", OpLines(&self.ops))
    }
}

/// The program listing's body format: one line per op, as
/// [`TiltProgram`]'s `Display` prints it below its header line. A
/// streamed increment renders through this too, so concatenating a
/// shard's increments reproduces the monolithic body.
pub struct OpLines<'a>(pub &'a [TiltOp]);

impl fmt::Display for OpLines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in self.0 {
            match op {
                TiltOp::Move { to } => writeln!(f, "  move -> {to}")?,
                TiltOp::Gate { gate, head_pos } => writeln!(f, "  [{head_pos:>3}] {gate}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::Qubit;

    fn spec() -> DeviceSpec {
        DeviceSpec::new(16, 4).unwrap()
    }

    #[test]
    fn counts_moves_and_gates() {
        let p = TiltProgram::new(
            spec(),
            vec![
                TiltOp::Gate {
                    gate: Gate::Rx(Qubit(0), 1.0),
                    head_pos: 0,
                },
                TiltOp::Move { to: 8 },
                TiltOp::Gate {
                    gate: Gate::Xx(Qubit(8), Qubit(9), 0.5),
                    head_pos: 8,
                },
                TiltOp::Move { to: 2 },
            ],
        );
        assert_eq!(p.move_count(), 2);
        assert_eq!(p.gate_count(), 2);
        assert_eq!(p.two_qubit_gate_count(), 1);
    }

    #[test]
    fn move_distance_sums_absolute_deltas() {
        let p = TiltProgram::new(
            spec(),
            vec![
                TiltOp::Gate {
                    gate: Gate::Rx(Qubit(3), 1.0),
                    head_pos: 2,
                },
                TiltOp::Move { to: 10 }, // +8
                TiltOp::Move { to: 4 },  // +6
            ],
        );
        assert_eq!(p.move_distance_ions(), 14);
        assert_eq!(p.initial_head_position(), Some(2));
    }

    #[test]
    fn initial_position_is_not_a_move() {
        let p = TiltProgram::new(
            spec(),
            vec![TiltOp::Gate {
                gate: Gate::Rx(Qubit(12), 0.1),
                head_pos: 12,
            }],
        );
        assert_eq!(p.move_count(), 0);
        assert_eq!(p.move_distance_ions(), 0);
    }

    #[test]
    fn empty_program() {
        let p = TiltProgram::new(spec(), vec![]);
        assert_eq!(p.initial_head_position(), None);
        assert_eq!(p.gate_count(), 0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn uncovered_gate_is_rejected_in_debug() {
        TiltProgram::new(
            spec(),
            vec![TiltOp::Gate {
                gate: Gate::Xx(Qubit(0), Qubit(9), 0.5),
                head_pos: 0,
            }],
        );
    }
}
