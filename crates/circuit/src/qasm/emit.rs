//! OpenQASM 2.0 emission (see [`crate::qasm`] for the module docs).
//!
//! The emitter exists for interchange and debugging: any circuit in this IR
//! (program gates or native gates) can be dumped to a QASM 2.0 string and
//! inspected with external tooling. Gates without a standard-library QASM
//! spelling (`rxx`, `rzz`, `sx`, `sy`) are emitted with explicit `gate`
//! definitions in the preamble so the output is self-contained.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::fmt::Write as _;

/// Renders `circuit` as a self-contained OpenQASM 2.0 program.
///
/// # Example
///
/// ```
/// use tilt_circuit::{qasm, Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cnot(Qubit(0), Qubit(1));
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("OPENQASM 2.0"));
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");

    // Preamble definitions for gates absent from qelib1.
    let uses = |pred: fn(&Gate) -> bool| circuit.iter().any(pred);
    if uses(|g| matches!(g, Gate::Xx(..))) {
        out.push_str(
            "gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }\n",
        );
    }
    if uses(|g| matches!(g, Gate::Zz(..))) {
        out.push_str("gate rzz(theta) a, b { cx a, b; rz(theta) b; cx a, b; }\n");
    }
    if uses(|g| matches!(g, Gate::SqrtX(_))) {
        out.push_str("gate sx a { sdg a; h a; sdg a; }\n");
    }
    if uses(|g| matches!(g, Gate::SqrtY(_))) {
        out.push_str("gate sy a { s a; s a; h a; }\n");
    }

    let n = circuit.n_qubits();
    let _ = writeln!(out, "qreg q[{n}];");
    if circuit.iter().any(|g| matches!(g, Gate::Measure(_))) {
        let _ = writeln!(out, "creg c[{n}];");
    }

    for g in circuit {
        emit_gate(&mut out, g);
    }
    out
}

/// Streams `gates` as OpenQASM 2.0 to `w` without ever materializing a
/// [`Circuit`] — the emitter half of the bounded-memory pipeline, for
/// writing million-gate inputs that [`crate::qasm::QasmStream`] will
/// read back. Unlike [`to_qasm`], the gate stream cannot be pre-scanned
/// for which preamble definitions it needs, so every non-qelib1
/// definition and the `creg` are always emitted (both parsers skip
/// unused preamble lines).
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_qasm_stream<W: std::io::Write>(
    n_qubits: usize,
    gates: impl IntoIterator<Item = Gate>,
    w: &mut W,
) -> std::io::Result<()> {
    w.write_all(b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")?;
    w.write_all(
        b"gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }\n\
          gate rzz(theta) a, b { cx a, b; rz(theta) b; cx a, b; }\n\
          gate sx a { sdg a; h a; sdg a; }\n\
          gate sy a { s a; s a; h a; }\n",
    )?;
    writeln!(w, "qreg q[{n_qubits}];")?;
    writeln!(w, "creg c[{n_qubits}];")?;
    let mut line = String::new();
    for g in gates {
        line.clear();
        emit_gate(&mut line, &g);
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes one gate line: the gate's [`Gate::name`], its angle, then its
/// operands. `Cphase` is spelled `cu1` (qelib1's name for it), and
/// measurement and barriers take their QASM statement forms.
fn emit_gate(out: &mut String, g: &Gate) {
    let name = match *g {
        Gate::Measure(q) => {
            let _ = writeln!(out, "measure q[{0}] -> c[{0}];", q.index());
            return;
        }
        Gate::Barrier => {
            out.push_str("barrier q;\n");
            return;
        }
        Gate::Cphase(..) => "cu1",
        _ => g.name(),
    };
    out.push_str(name);
    if let Some(a) = g.angle() {
        let _ = write!(out, "({a})");
    }
    let mut sep = " ";
    for q in g.operands() {
        let _ = write!(out, "{sep}q[{}]", q.index());
        sep = ", ";
    }
    out.push_str(";\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::Qubit;

    #[test]
    fn header_and_register() {
        let text = to_qasm(&Circuit::new(3));
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(!text.contains("creg")); // no measurements
    }

    #[test]
    fn measurement_adds_creg() {
        let mut c = Circuit::new(2);
        c.measure(Qubit(1));
        let text = to_qasm(&c);
        assert!(text.contains("creg c[2];"));
        assert!(text.contains("measure q[1] -> c[1];"));
    }

    #[test]
    fn nonstandard_gates_get_definitions() {
        let mut c = Circuit::new(2);
        c.xx(Qubit(0), Qubit(1), 0.785);
        let text = to_qasm(&c);
        assert!(text.contains("gate rxx(theta)"));
        assert!(text.contains("rxx(0.785) q[0], q[1];"));
    }

    #[test]
    fn definitions_only_when_used() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let text = to_qasm(&c);
        assert!(!text.contains("gate rxx"));
        assert!(!text.contains("gate rzz"));
    }

    #[test]
    fn stream_writer_round_trips_through_both_parsers() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .push(Gate::SqrtX(Qubit(1)))
            .cz(Qubit(0), Qubit(2))
            .xx(Qubit(1), Qubit(2), 0.25)
            .measure(Qubit(2));
        let mut bytes = Vec::new();
        write_qasm_stream(3, c.iter().copied(), &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let reparsed = crate::qasm::parse_qasm(&text).unwrap();
        assert_eq!(reparsed.gates(), c.gates());
        let streamed: Vec<Gate> = crate::qasm::QasmStream::new(text.as_bytes())
            .map(Result::unwrap)
            .collect();
        assert_eq!(streamed, c.gates().to_vec());
    }

    #[test]
    fn every_gate_kind_emits() {
        // Every arm at non-round angles, on permuted operands; the bytes
        // were recorded from the per-arm emitter this one replaced.
        let (a, b, c, d) = (Qubit(3), Qubit(0), Qubit(2), Qubit(1));
        let circuit = Circuit::from_gates(
            4,
            [
                Gate::H(a),
                Gate::X(b),
                Gate::Y(c),
                Gate::Z(d),
                Gate::S(a),
                Gate::Sdg(b),
                Gate::T(c),
                Gate::Tdg(d),
                Gate::SqrtX(a),
                Gate::SqrtY(b),
                Gate::Rx(c, 0.123456789),
                Gate::Ry(d, -1.9876543210123),
                Gate::Rz(a, 2.5066282746310002),
                Gate::Cnot(a, b),
                Gate::Cz(c, a),
                Gate::Cphase(d, b, 0.6180339887),
                Gate::Zz(b, c, -0.3333333333333333),
                Gate::Xx(c, d, 1.0e-7),
                Gate::Swap(d, a),
                Gate::Toffoli(c, a, d),
                Gate::Barrier,
                Gate::Measure(c),
                Gate::Reset(b),
            ],
        );
        let expected = "\
OPENQASM 2.0;
include \"qelib1.inc\";
gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }
gate rzz(theta) a, b { cx a, b; rz(theta) b; cx a, b; }
gate sx a { sdg a; h a; sdg a; }
gate sy a { s a; s a; h a; }
qreg q[4];
creg c[4];
h q[3];
x q[0];
y q[2];
z q[1];
s q[3];
sdg q[0];
t q[2];
tdg q[1];
sx q[3];
sy q[0];
rx(0.123456789) q[2];
ry(-1.9876543210123) q[1];
rz(2.5066282746310002) q[3];
cx q[3], q[0];
cz q[2], q[3];
cu1(0.6180339887) q[1], q[0];
rzz(-0.3333333333333333) q[0], q[2];
rxx(0.0000001) q[2], q[1];
swap q[1], q[3];
ccx q[2], q[3], q[1];
barrier q;
measure q[2] -> c[2];
reset q[0];
";
        assert_eq!(to_qasm(&circuit), expected);
    }
}
