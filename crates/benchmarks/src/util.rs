//! Multi-controlled gates for the generators.
//!
//! The generators emit circuits at the CNOT level, so a multi-controlled
//! X is a V-chain of [`toffoli_network`]s over clean ancillas.

use tilt_circuit::{toffoli_network, Circuit, Qubit};

/// Appends a multi-controlled X over `controls` onto `target` using the
/// V-chain construction with clean ancillas.
///
/// Requires `controls.len() - 1` ancillas when `controls.len() >= 3`
/// (the chain ANDs controls pairwise into the ancillas, applies a final
/// CNOT, then uncomputes). Smaller cases degenerate to CNOT / Toffoli.
///
/// # Panics
///
/// Panics if fewer ancillas are supplied than required, or if `controls`
/// is empty.
pub fn mcx_vchain(c: &mut Circuit, controls: &[Qubit], ancillas: &[Qubit], target: Qubit) {
    match controls.len() {
        0 => panic!("multi-controlled X requires at least one control"),
        1 => {
            c.cnot(controls[0], target);
        }
        2 => {
            c.extend(toffoli_network(controls[0], controls[1], target));
        }
        k => {
            assert!(
                ancillas.len() >= k - 1,
                "V-chain over {k} controls needs {} ancillas, got {}",
                k - 1,
                ancillas.len()
            );
            // Compute: a0 = c0 AND c1, a_i = c_{i+1} AND a_{i-1}.
            c.extend(toffoli_network(controls[0], controls[1], ancillas[0]));
            for i in 2..k {
                c.extend(toffoli_network(
                    controls[i],
                    ancillas[i - 2],
                    ancillas[i - 1],
                ));
            }
            c.cnot(ancillas[k - 2], target);
            // Uncompute in reverse.
            for i in (2..k).rev() {
                c.extend(toffoli_network(
                    controls[i],
                    ancillas[i - 2],
                    ancillas[i - 1],
                ));
            }
            c.extend(toffoli_network(controls[0], controls[1], ancillas[0]));
        }
    }
}

/// Appends a multi-controlled Z over `qubits[..n-1]` onto `qubits[n-1]`,
/// lowered through [`mcx_vchain`] (`Z = H·X·H` on the target).
pub fn mcz_vchain(c: &mut Circuit, qubits: &[Qubit], ancillas: &[Qubit]) {
    let (controls, target) = qubits.split_at(qubits.len() - 1);
    let target = target[0];
    c.h(target);
    mcx_vchain(c, controls, ancillas, target);
    c.h(target);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::validate;

    #[test]
    fn mcx_degenerates_to_cnot_and_toffoli() {
        let mut c1 = Circuit::new(2);
        mcx_vchain(&mut c1, &[Qubit(0)], &[], Qubit(1));
        assert_eq!(c1.two_qubit_count(), 1);

        let mut c2 = Circuit::new(3);
        mcx_vchain(&mut c2, &[Qubit(0), Qubit(1)], &[], Qubit(2));
        assert_eq!(c2.two_qubit_count(), 6);
    }

    #[test]
    fn mcx_vchain_counts() {
        // k controls: 2(k-1) Toffolis + 1 CNOT = 12(k-1)+1 two-qubit gates.
        for k in 3..8 {
            let n = 2 * k; // controls + ancillas + target
            let mut c = Circuit::new(n);
            let controls: Vec<Qubit> = (0..k).map(Qubit).collect();
            let ancillas: Vec<Qubit> = (k..2 * k - 1).map(Qubit).collect();
            mcx_vchain(&mut c, &controls, &ancillas, Qubit(n - 1));
            assert_eq!(c.two_qubit_count(), 12 * (k - 1) + 1, "k={k}");
            assert!(validate(&c).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn mcx_vchain_panics_without_ancillas() {
        let mut c = Circuit::new(4);
        mcx_vchain(&mut c, &[Qubit(0), Qubit(1), Qubit(2)], &[], Qubit(3));
    }

    #[test]
    fn mcz_wraps_target_in_hadamards() {
        let mut c = Circuit::new(5);
        let qs: Vec<Qubit> = (0..3).map(Qubit).collect();
        mcz_vchain(&mut c, &qs, &[Qubit(3), Qubit(4)]);
        assert!(matches!(c.gates()[0], tilt_circuit::Gate::H(q) if q == Qubit(2)));
        assert!(validate(&c).is_ok());
    }
}
