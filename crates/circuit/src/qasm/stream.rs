//! Pull-based OpenQASM 2.0 gate streaming.
//!
//! [`QasmStream`] yields gates one statement at a time from any
//! [`BufRead`] source instead of materializing the whole program as a
//! [`Circuit`](crate::Circuit) — the front end of the bounded-memory
//! streaming compile pipeline. It reuses [`parse_qasm`]'s statement
//! parser verbatim, so every accepted program parses to exactly the gate
//! sequence the monolithic parser produces, with one restriction: the
//! `qreg` declaration must precede the first gate (the monolithic parser
//! tolerates a trailing `qreg` because it buffers everything; a stream
//! cannot size its register after the fact).
//!
//! ```
//! use tilt_circuit::qasm::QasmStream;
//!
//! let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
//! let mut stream = QasmStream::new(src.as_bytes());
//! let gates: Vec<_> = stream.by_ref().collect::<Result<_, _>>()?;
//! assert_eq!(gates.len(), 2);
//! assert_eq!(stream.n_qubits(), Some(2));
//! # Ok::<(), tilt_circuit::qasm::QasmStreamError>(())
//! ```

use super::parse::{parse_statement, statements, ParseQasmError};
use crate::gate::Gate;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::BufRead;

/// Why pulling the next gate off a QASM stream failed.
#[derive(Debug)]
pub enum QasmStreamError {
    /// The statement failed to parse (same errors as [`parse_qasm`],
    /// same line numbers).
    ///
    /// [`parse_qasm`]: super::parse_qasm
    Parse(ParseQasmError),
    /// The underlying reader failed.
    Io(std::io::Error),
}

impl fmt::Display for QasmStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmStreamError::Parse(e) => e.fmt(f),
            QasmStreamError::Io(e) => write!(f, "QASM stream read failed: {e}"),
        }
    }
}

impl Error for QasmStreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QasmStreamError::Parse(e) => Some(e),
            QasmStreamError::Io(e) => Some(e),
        }
    }
}

impl From<ParseQasmError> for QasmStreamError {
    fn from(e: ParseQasmError) -> Self {
        QasmStreamError::Parse(e)
    }
}

impl From<std::io::Error> for QasmStreamError {
    fn from(e: std::io::Error) -> Self {
        QasmStreamError::Io(e)
    }
}

/// An iterator of gates lexed incrementally from an OpenQASM source.
///
/// Yields `Result<Gate, QasmStreamError>`; after the first error the
/// stream is exhausted. Memory use is one source line plus one
/// statement's gate expansion, independent of program length.
pub struct QasmStream<R> {
    reader: R,
    lineno: usize,
    n_qubits: Option<usize>,
    in_gate_def: bool,
    line: String,
    /// Gates from the current statement not yet yielded (a
    /// whole-register `measure` expands to one gate per qubit).
    pending: VecDeque<Gate>,
    /// Scratch for [`parse_statement`]'s output.
    scratch: Vec<Gate>,
    done: bool,
}

impl<R: BufRead> QasmStream<R> {
    /// Wraps a buffered reader positioned at the start of a QASM program.
    pub fn new(reader: R) -> Self {
        QasmStream {
            reader,
            lineno: 0,
            n_qubits: None,
            in_gate_def: false,
            line: String::new(),
            pending: VecDeque::new(),
            scratch: Vec::new(),
            done: false,
        }
    }

    /// The register width, once the `qreg` declaration has been read
    /// (always before the first yielded gate).
    pub fn n_qubits(&self) -> Option<usize> {
        self.n_qubits
    }

    /// Reads ahead until the register width is known, without consuming
    /// any gate.
    ///
    /// # Errors
    ///
    /// Fails if a gate precedes the `qreg` declaration, the program ends
    /// without one, or reading fails.
    pub fn require_n_qubits(&mut self) -> Result<usize, QasmStreamError> {
        while self.n_qubits.is_none() && self.pending.is_empty() && !self.done {
            self.advance()?;
        }
        self.n_qubits.ok_or_else(|| {
            QasmStreamError::Parse(ParseQasmError {
                line: self.lineno.max(1),
                message: "no qreg declaration found".into(),
            })
        })
    }

    /// Reads and parses the next source line into `pending`.
    fn advance(&mut self) -> Result<(), QasmStreamError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            self.done = true;
            return Ok(());
        }
        self.lineno += 1;

        // `parse_qasm`'s own per-line handling.
        for stmt in statements(&self.line, &mut self.in_gate_def) {
            parse_statement(
                stmt,
                self.lineno,
                &mut self.n_qubits,
                &mut self.scratch,
                usize::MAX,
            )?;
            if !self.scratch.is_empty() && self.n_qubits.is_none() {
                self.scratch.clear();
                return Err(QasmStreamError::Parse(ParseQasmError {
                    line: self.lineno,
                    message: "streaming requires the qreg declaration before the first gate".into(),
                }));
            }
            self.pending.extend(self.scratch.drain(..));
        }
        Ok(())
    }
}

impl<R: BufRead> Iterator for QasmStream<R> {
    type Item = Result<Gate, QasmStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(g) = self.pending.pop_front() {
                return Some(Ok(g));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.advance() {
                self.done = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::{parse_qasm, to_qasm};
    use crate::{Circuit, Qubit};
    use std::f64::consts::PI;

    fn stream_all(src: &str) -> Result<(usize, Vec<Gate>), QasmStreamError> {
        let mut s = QasmStream::new(src.as_bytes());
        let n = s.require_n_qubits()?;
        let gates = s.collect::<Result<Vec<_>, _>>()?;
        Ok((n, gates))
    }

    #[test]
    fn matches_monolithic_parser_on_emitter_output() {
        let mut c = Circuit::new(5);
        c.h(Qubit(0))
            .t(Qubit(1))
            .cnot(Qubit(0), Qubit(1))
            .cphase(Qubit(1), Qubit(2), PI / 8.0)
            .zz(Qubit(0), Qubit(2), 0.3)
            .xx(Qubit(1), Qubit(4), 0.7)
            .swap(Qubit(0), Qubit(2))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .barrier()
            .measure(Qubit(2));
        let text = to_qasm(&c);
        let mono = parse_qasm(&text).unwrap();
        let (n, gates) = stream_all(&text).unwrap();
        assert_eq!(n, mono.n_qubits());
        assert_eq!(gates, mono.gates());
    }

    #[test]
    fn handles_comments_gate_defs_and_multi_statement_lines() {
        let src = "OPENQASM 2.0;\nqreg q[3]; creg c[3];\n// comment\n\
             gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }\n\
             h q[0]; cx q[0], q[1]; // trailing\nrxx(pi/4) q[0], q[2];\nmeasure q -> c;\n";
        let mono = parse_qasm(src).unwrap();
        let (n, gates) = stream_all(src).unwrap();
        assert_eq!(n, 3);
        assert_eq!(gates, mono.gates());
        // Whole-register measure expanded to one gate per qubit.
        assert_eq!(
            gates
                .iter()
                .filter(|g| matches!(g, Gate::Measure(_)))
                .count(),
            3
        );
    }

    #[test]
    fn gate_before_qreg_is_rejected() {
        let err = stream_all("OPENQASM 2.0;\nh q[0];\nqreg q[2];\n").unwrap_err();
        match err {
            QasmStreamError::Parse(e) => {
                assert!(e.message.contains("qreg"), "{e}");
                assert_eq!(e.line, 2);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn missing_qreg_is_rejected_by_require() {
        let err = stream_all("OPENQASM 2.0;\n").unwrap_err();
        assert!(matches!(err, QasmStreamError::Parse(_)));
    }

    #[test]
    fn parse_errors_carry_line_numbers_and_end_the_stream() {
        let mut s = QasmStream::new("qreg q[2];\nh q[0];\nfrobnicate q[1];\nh q[1];\n".as_bytes());
        assert!(matches!(s.next(), Some(Ok(Gate::H(_)))));
        match s.next() {
            Some(Err(QasmStreamError::Parse(e))) => {
                assert_eq!(e.line, 3);
                assert!(e.message.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(s.next().is_none());
    }

    #[test]
    fn out_of_range_operand_is_rejected() {
        let err = stream_all("qreg q[2];\nh q[5];\n").unwrap_err();
        match err {
            QasmStreamError::Parse(e) => assert!(e.message.contains("outside")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn empty_source_yields_nothing() {
        let mut s = QasmStream::new("".as_bytes());
        assert!(s.next().is_none());
        assert_eq!(s.n_qubits(), None);
    }
}
