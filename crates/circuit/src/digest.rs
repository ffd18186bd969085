//! Canonical structural hashing for circuits.
//!
//! [`Circuit::digest`] is the content-address of a circuit: a stable
//! 128-bit digest over the register width and the gate stream (variant,
//! operands, angle bits, in program order). Two circuits with the same
//! digest compile identically under the same configuration — the
//! pipeline is deterministic over exactly this content.
//!
//! The digest is **structural**: it sees what the gates *are*, never how
//! the circuit came to hold them. A circuit parsed fresh, one assembled
//! with the builder API, and one written into a reused scratch buffer
//! via [`Circuit::reset`] all hash identically when their gate streams
//! match — allocation history, reserved capacity, and previous contents
//! of a recycled buffer leave no trace (pinned by the tests below).

use crate::circuit::Circuit;
use crate::gate::Gate;
use tilt_hash::{Digest, Fingerprint, Hasher};

/// Stable per-variant tags for the gate stream. These are part of the
/// digest's definition: renumbering them invalidates every persisted
/// cache entry (which digest verification then rejects cleanly), so new
/// gates append rather than reorder.
fn gate_tag(g: &Gate) -> u8 {
    use Gate::*;
    match g {
        H(_) => 1,
        X(_) => 2,
        Y(_) => 3,
        Z(_) => 4,
        S(_) => 5,
        Sdg(_) => 6,
        T(_) => 7,
        Tdg(_) => 8,
        SqrtX(_) => 9,
        SqrtY(_) => 10,
        Rx(..) => 11,
        Ry(..) => 12,
        Rz(..) => 13,
        Cnot(..) => 14,
        Cz(..) => 15,
        Cphase(..) => 16,
        Zz(..) => 17,
        Xx(..) => 18,
        Swap(..) => 19,
        Toffoli(..) => 20,
        Measure(_) => 21,
        Reset(_) => 22,
        Barrier => 23,
    }
}

impl Fingerprint for Gate {
    fn fingerprint_into(&self, h: &mut Hasher) {
        h.write_tag(gate_tag(self));
        for q in self.operands() {
            h.write_usize(q.index());
        }
        if let Some(a) = self.angle() {
            h.write_f64(a);
        }
    }
}

impl Fingerprint for Circuit {
    fn fingerprint_into(&self, h: &mut Hasher) {
        h.write_usize(self.n_qubits());
        h.write_usize(self.len());
        for g in self {
            g.fingerprint_into(h);
        }
    }
}

impl Circuit {
    /// The canonical content digest of this circuit — the circuit half
    /// of a compile-cache key.
    ///
    /// # Example
    ///
    /// ```
    /// use tilt_circuit::{Circuit, Qubit};
    ///
    /// let mut a = Circuit::new(4);
    /// a.h(Qubit(0)).cnot(Qubit(0), Qubit(3));
    /// let mut b = Circuit::with_capacity(4, 1024); // different allocation
    /// b.h(Qubit(0)).cnot(Qubit(0), Qubit(3));
    /// assert_eq!(a.digest(), b.digest());
    /// b.rz(Qubit(1), 0.25);
    /// assert_ne!(a.digest(), b.digest());
    /// ```
    pub fn digest(&self) -> Digest {
        self.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::Qubit;

    fn sample() -> Circuit {
        let mut c = Circuit::new(6);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        c
    }

    #[test]
    fn digest_ignores_allocation_history() {
        let fresh = sample();
        // The same content assembled in a reused scratch buffer that
        // previously held an unrelated, larger circuit.
        let mut scratch = Circuit::new(32);
        for i in 0..31 {
            scratch.toffoli(Qubit(i), Qubit(i + 1), Qubit((i + 2) % 32));
        }
        scratch.reset(6);
        scratch
            .h(Qubit(0))
            .cnot(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        assert_eq!(fresh.digest(), scratch.digest());
    }

    #[test]
    fn digest_sees_register_width() {
        let narrow = sample();
        let mut wide = Circuit::new(7);
        wide.extend_from(&narrow);
        assert_ne!(narrow.digest(), wide.digest());
    }

    #[test]
    fn digest_sees_every_structural_change() {
        let base = sample();
        // Operand change.
        let mut operand = sample();
        operand.reset(6);
        operand
            .h(Qubit(1))
            .cnot(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        assert_ne!(base.digest(), operand.digest());
        // Angle change.
        let mut angle = sample();
        angle.reset(6);
        angle
            .h(Qubit(0))
            .cnot(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25 + 1e-12)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        assert_ne!(base.digest(), angle.digest());
        // Gate-kind change on the same operands.
        let mut kind = sample();
        kind.reset(6);
        kind.h(Qubit(0))
            .cz(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        assert_ne!(base.digest(), kind.digest());
        // Order change.
        let mut order = sample();
        order.reset(6);
        order
            .cnot(Qubit(0), Qubit(5))
            .h(Qubit(0))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5)
            .measure(Qubit(5));
        assert_ne!(base.digest(), order.digest());
        // Truncation.
        let mut shorter = sample();
        shorter.reset(6);
        shorter
            .h(Qubit(0))
            .cnot(Qubit(0), Qubit(5))
            .rz(Qubit(2), 1.25)
            .xx(Qubit(1), Qubit(4), 0.5);
        assert_ne!(base.digest(), shorter.digest());
    }

    #[test]
    fn every_gate_variant_hashes_distinctly() {
        // Distinct variants on identical operands must not collide via
        // their tags (Measure vs Reset vs single-qubit unitaries, the
        // parametrized two-qubit family, ...).
        let q = Qubit(0);
        let p = Qubit(1);
        let r = Qubit(2);
        let gates = vec![
            Gate::H(q),
            Gate::X(q),
            Gate::Y(q),
            Gate::Z(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::T(q),
            Gate::Tdg(q),
            Gate::SqrtX(q),
            Gate::SqrtY(q),
            Gate::Rx(q, 0.5),
            Gate::Ry(q, 0.5),
            Gate::Rz(q, 0.5),
            Gate::Cnot(q, p),
            Gate::Cz(q, p),
            Gate::Cphase(q, p, 0.5),
            Gate::Zz(q, p, 0.5),
            Gate::Xx(q, p, 0.5),
            Gate::Swap(q, p),
            Gate::Toffoli(q, p, r),
            Gate::Measure(q),
            Gate::Reset(q),
            Gate::Barrier,
        ];
        let digests: Vec<Digest> = gates.iter().map(Fingerprint::fingerprint).collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{:?} vs {:?}", gates[i], gates[j]);
            }
        }
    }
}
