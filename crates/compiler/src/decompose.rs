//! Trapped-ion native gate decomposition (§IV-B of the paper).
//!
//! The TILT native set is `{Rx, Ry, Rz, XX(θ)}` plus measurement (Maslov,
//! NJP 19 023035). The pass rewrites every program gate into that set;
//! the key rule is the paper's CNOT recipe:
//!
//! ```text
//! CNOT q1, q2  →  Ry(π/2) q1; XX(π/4) q1,q2; Rx(-π/2) q1; Rx(-π/2) q2; Ry(-π/2) q1
//! ```
//!
//! Every two-qubit program gate lowers to one `XX` per underlying CNOT:
//! `CZ` and `ZZ` cost one, `CPhase` costs two (it is emitted at the CNOT
//! level by the benchmark generators), and `SWAP` costs three — which is
//! why inserted swaps are expensive and the paper's router works to
//! minimize them.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use tilt_circuit::{Circuit, Gate, Qubit};

/// Rewrites `circuit` into the trapped-ion native gate set.
///
/// The output satisfies [`Circuit::is_native`] and preserves the register
/// width. Gate order follows program order; each program gate expands
/// in place.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::decompose::decompose;
///
/// let mut c = Circuit::new(2);
/// c.cnot(Qubit(0), Qubit(1));
/// let native = decompose(&c);
/// assert!(native.is_native());
/// assert_eq!(native.two_qubit_count(), 1); // one XX per CNOT
/// ```
pub fn decompose(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::with_capacity(circuit.n_qubits(), circuit.len() * 3);
    decompose_into(circuit, &mut out);
    out
}

/// [`decompose`] into a caller-owned scratch circuit, reusing its gate
/// allocation. `out` is reset to `circuit`'s register width first; batch
/// compilation calls this once per circuit with a per-worker scratch so
/// the decomposition buffer is allocated once per worker, not once per
/// circuit.
pub fn decompose_into(circuit: &Circuit, out: &mut Circuit) {
    out.reset(circuit.n_qubits());
    for g in circuit {
        decompose_gate(out, g);
    }
}

/// Appends the native expansion of a single gate to `out`.
pub fn decompose_gate(out: &mut Circuit, g: &Gate) {
    use Gate::*;
    match *g {
        // Already native (resets are optical pumping, a hardware
        // primitive like measurement).
        Rx(..) | Ry(..) | Rz(..) | Xx(..) | Measure(_) | Reset(_) | Barrier => {
            out.push(*g);
        }

        // Single-qubit program gates → one or two rotations.
        X(q) => {
            out.rx(q, PI);
        }
        Y(q) => {
            out.ry(q, PI);
        }
        Z(q) => {
            out.rz(q, PI);
        }
        S(q) => {
            out.rz(q, FRAC_PI_2);
        }
        Sdg(q) => {
            out.rz(q, -FRAC_PI_2);
        }
        T(q) => {
            out.rz(q, FRAC_PI_4);
        }
        Tdg(q) => {
            out.rz(q, -FRAC_PI_4);
        }
        SqrtX(q) => {
            out.rx(q, FRAC_PI_2);
        }
        SqrtY(q) => {
            out.ry(q, FRAC_PI_2);
        }
        // H = Ry(π/2)·Rz(π) up to global phase (circuit order: Rz first).
        // Verified against the state-vector simulator; the opposite order
        // yields H·Z, not H.
        H(q) => {
            out.rz(q, PI);
            out.ry(q, FRAC_PI_2);
        }

        // The paper's CNOT recipe (§IV-B), exact up to global phase. The
        // paper labels the interaction "XX(π/4)" in the exp(iθ·X⊗X)
        // convention; in the QASM convention used across this workspace,
        // XX(θ) = exp(-iθ/2·X⊗X), the same maximally-entangling
        // Mølmer–Sørensen gate is XX(π/2). Verified by
        // `tests/semantics_verification.rs`.
        Cnot(c, t) => {
            out.ry(c, FRAC_PI_2);
            out.xx(c, t, FRAC_PI_2);
            out.rx(c, -FRAC_PI_2);
            out.rx(t, -FRAC_PI_2);
            out.ry(c, -FRAC_PI_2);
        }

        // CZ = H(t) · CNOT · H(t).
        Cz(a, b) => {
            decompose_gate(out, &H(b));
            decompose_gate(out, &Cnot(a, b));
            decompose_gate(out, &H(b));
        }

        // CPhase at the CNOT level (two XX), matching the generators.
        Cphase(a, b, lambda) => {
            out.rz(a, lambda / 2.0);
            decompose_gate(out, &Cnot(a, b));
            out.rz(b, -lambda / 2.0);
            decompose_gate(out, &Cnot(a, b));
            out.rz(b, lambda / 2.0);
        }

        // ZZ(θ) = (Ry(-π/2)⊗Ry(-π/2)) · XX(θ) · (Ry(π/2)⊗Ry(π/2)):
        // a single Mølmer–Sørensen interaction.
        Zz(a, b, theta) => {
            out.ry(a, FRAC_PI_2);
            out.ry(b, FRAC_PI_2);
            out.xx(a, b, theta);
            out.ry(a, -FRAC_PI_2);
            out.ry(b, -FRAC_PI_2);
        }

        // SWAP = 3 CNOTs = 3 XX; the communication cost unit of §IV-C.
        Swap(a, b) => {
            decompose_gate(out, &Cnot(a, b));
            decompose_gate(out, &Cnot(b, a));
            decompose_gate(out, &Cnot(a, b));
        }

        // Standard 6-CNOT Toffoli, recursively lowered.
        Toffoli(c0, c1, t) => {
            for g in toffoli_gates(c0, c1, t) {
                decompose_gate(out, &g);
            }
        }
    }
}

/// The CNOT-level Toffoli expansion used by [`decompose_gate`].
fn toffoli_gates(c0: Qubit, c1: Qubit, t: Qubit) -> Vec<Gate> {
    use Gate::*;
    vec![
        H(t),
        Cnot(c1, t),
        Tdg(t),
        Cnot(c0, t),
        T(t),
        Cnot(c1, t),
        Tdg(t),
        Cnot(c0, t),
        T(c1),
        T(t),
        Cnot(c0, c1),
        H(t),
        T(c0),
        Tdg(c1),
        Cnot(c0, c1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_circuit_is_native() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0))
            .t(Qubit(1))
            .cnot(Qubit(0), Qubit(1))
            .cz(Qubit(1), Qubit(2))
            .cphase(Qubit(2), Qubit(3), 0.7)
            .zz(Qubit(0), Qubit(3), 0.3)
            .swap(Qubit(1), Qubit(3))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .measure(Qubit(0));
        let native = decompose(&c);
        assert!(native.is_native());
        assert!(tilt_circuit::validate(&native).is_ok());
    }

    #[test]
    fn cnot_follows_the_paper_recipe() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let native = decompose(&c);
        let names: Vec<_> = native.iter().map(tilt_circuit::Gate::name).collect();
        assert_eq!(names, vec!["ry", "rxx", "rx", "rx", "ry"]);
        match native.gates()[1] {
            Gate::Xx(a, b, t) => {
                assert_eq!((a, b), (Qubit(0), Qubit(1)));
                // π/2 in the QASM exp(-iθ/2·XX) convention = the paper's
                // "XX(π/4)" in its exp(iθ·XX) convention.
                assert!((t - FRAC_PI_2).abs() < 1e-12);
            }
            ref other => panic!("expected XX, got {other:?}"),
        }
    }

    #[test]
    fn swap_costs_three_xx() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        assert_eq!(decompose(&c).two_qubit_count(), 3);
    }

    #[test]
    fn xx_operand_pairs_preserved() {
        // All XX gates produced for a 2Q program gate act on the same pair.
        let mut c = Circuit::new(8);
        c.cphase(Qubit(2), Qubit(7), 1.0);
        let native = decompose(&c);
        for g in native.iter().filter(|g| g.is_two_qubit()) {
            let mut qs = g.qubits();
            qs.sort();
            assert_eq!(qs, vec![Qubit(2), Qubit(7)]);
        }
    }

    #[test]
    fn idempotent_on_native_circuits() {
        let mut c = Circuit::new(2);
        c.rx(Qubit(0), 0.2)
            .xx(Qubit(0), Qubit(1), 0.3)
            .rz(Qubit(1), 0.4);
        assert_eq!(decompose(&c), c);
    }

    #[test]
    fn qft64_native_has_table2_xx_count() {
        let qft = tilt_benchmarks::qft::qft64();
        let native = decompose(&qft);
        assert_eq!(native.two_qubit_count(), 4032);
    }
}
