//! Stabilizer (Clifford) simulation for QEC-scale workloads.
//!
//! An Aaronson–Gottesman CHP tableau simulator
//! ([arXiv:quant-ph/0406196]) over the workspace's circuit IR, in the
//! qubit-major layout of Gidney's Stim ([arXiv:2103.02202]). Where the
//! dense state vector needs `2^n` amplitudes — capping the engine at a
//! couple dozen qubits — the tableau stores `4n²` **bits** (125 KiB at
//! 501 qubits, 0.5 MB at 1000), so syndrome-extraction circuits for
//! 500+-qubit error-correction experiments simulate in about a
//! millisecond. The price: only Clifford programs qualify. Gates
//! outside the group (`t`, `ccx`, rotations off the π/2 grid, `cp` off
//! the π grid) are rejected with a structured [`NonCliffordGate`] error
//! naming the gate and its program index, never silently approximated.
//!
//! **Layout.** Column `q` of the X and Z planes holds qubit `q`'s bit
//! of every destabilizer and stabilizer row, so a gate is a few word
//! operations over its operands' columns, and the search for a
//! stabilizer that anticommutes with `Z_q` scans one column.
//!
//! **Sign cache.** The same columns are the bits of `U†X_qU` and
//! `U†Z_qU` (the state is `U|0…0⟩`). [`Tableau`] caches their signs
//! and updates them per gate, so a deterministic measurement reads its
//! outcome from the cached sign of `U†Z_qU` in `O(n/64)`. A random
//! measurement forgets the cache. A deterministic read whose sign is
//! not known takes the fallback: it multiplies the contributing
//! stabilizers column by column and caches the result. A circuit
//! without random measurements never takes the fallback.
//!
//! [arXiv:quant-ph/0406196]: https://arxiv.org/abs/quant-ph/0406196
//! [arXiv:2103.02202]: https://arxiv.org/abs/2103.02202
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//!
//! // 500-qubit GHZ state: far beyond any dense simulator.
//! let n = 500;
//! let mut c = Circuit::new(n);
//! c.h(Qubit(0));
//! for q in 1..n {
//!     c.cnot(Qubit(0), Qubit(q));
//! }
//! for q in 0..n {
//!     c.measure(Qubit(q));
//! }
//! let run = tilt_stabilizer::run(&c, 42).unwrap();
//! // All 500 bits agree; only the first coin flip was random.
//! assert_eq!(run.random_measurements, 1);
//! assert!(run.outcomes.iter().all(|&b| b == run.outcomes[0]));
//! ```

mod tableau;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tilt_circuit::{Circuit, Gate};

pub use tableau::{Measurement, NotClifford, Tableau};

/// A gate the stabilizer backend cannot simulate, with its position.
///
/// `gate` is the display form (e.g. `t q[3]`), `index` its position in
/// the program's gate list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonCliffordGate {
    /// Display form of the offending gate.
    pub gate: String,
    /// Index of the gate in the circuit's gate list.
    pub index: usize,
}

impl std::fmt::Display for NonCliffordGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-Clifford gate `{}` at index {}: the stabilizer backend only simulates \
             Clifford programs (rotations must sit on the \u{3c0}/2 grid, cp on the \u{3c0} grid)",
            self.gate, self.index
        )
    }
}

impl std::error::Error for NonCliffordGate {}

/// The result of [`run`]: measurement outcomes in program order plus
/// determinism accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StabilizerRun {
    /// One bit per `measure` gate, in program order.
    pub outcomes: Vec<bool>,
    /// How many of those outcomes were fixed by the state.
    pub deterministic_measurements: usize,
    /// How many were fresh coin flips.
    pub random_measurements: usize,
}

impl StabilizerRun {
    /// The outcomes as a `0`/`1` string in program order (empty when
    /// the program has no `measure` gates).
    pub fn bitstring(&self) -> String {
        self.outcomes
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }
}

/// Runs `circuit` on a fresh tableau, flipping coins from a
/// [`SmallRng`] seeded with `seed` (same seed ⇒ same outcomes).
///
/// `reset` gates consume randomness when the collapsed qubit was in
/// superposition but do not contribute to `outcomes`. Returns
/// [`NonCliffordGate`] at the first unsupported gate; the partial state
/// is discarded.
pub fn run(circuit: &Circuit, seed: u64) -> Result<StabilizerRun, NonCliffordGate> {
    run_on(&mut Tableau::new(circuit.n_qubits()), circuit, seed)
}

/// [`run`] on a given tableau, left for the caller to inspect.
fn run_on(t: &mut Tableau, circuit: &Circuit, seed: u64) -> Result<StabilizerRun, NonCliffordGate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = StabilizerRun {
        outcomes: Vec::new(),
        deterministic_measurements: 0,
        random_measurements: 0,
    };
    for (index, gate) in circuit.iter().enumerate() {
        match gate {
            Gate::Measure(q) => {
                let m = t.measure(q.index(), || rng.gen());
                out.outcomes.push(m.outcome);
                if m.deterministic {
                    out.deterministic_measurements += 1;
                } else {
                    out.random_measurements += 1;
                }
            }
            Gate::Reset(q) => {
                t.reset(q.index(), || rng.gen());
            }
            unitary => t.apply(unitary).map_err(|NotClifford| NonCliffordGate {
                gate: unitary.to_string(),
                index,
            })?,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::Qubit;
    use tilt_statevec::State;

    fn q(i: usize) -> Qubit {
        Qubit(i)
    }

    /// Marginal P(qubit = 1) from a dense state.
    fn prob_one(state: &State, qubit: usize) -> f64 {
        (0..1usize << state.n_qubits())
            .filter(|x| x & (1 << qubit) != 0)
            .map(|x| state.probability_of(x))
            .sum()
    }

    /// Cross-checks every qubit's marginal between the two backends:
    /// deterministic tableau outcomes must match statevec probability
    /// 0/1, random ones must sit at 1/2.
    fn assert_matches_statevec(c: &Circuit) {
        let state = State::zero(c.n_qubits()).run(c);
        let mut t = Tableau::new(c.n_qubits());
        for g in c {
            t.apply(g).unwrap();
        }
        for qubit in 0..c.n_qubits() {
            let p = prob_one(&state, qubit);
            let m = t.clone().measure(qubit, || false);
            if m.deterministic {
                let want = if m.outcome { 1.0 } else { 0.0 };
                assert!(
                    (p - want).abs() < 1e-9,
                    "qubit {qubit}: tableau fixed {want}, statevec P(1) = {p}"
                );
            } else {
                assert!(
                    (p - 0.5).abs() < 1e-9,
                    "qubit {qubit}: tableau random, statevec P(1) = {p}"
                );
            }
        }
    }

    #[test]
    fn fresh_tableau_measures_all_zero() {
        let mut t = Tableau::new(5);
        for i in 0..5 {
            let m = t.measure(i, || panic!("must be deterministic"));
            assert!(m.deterministic);
            assert!(!m.outcome);
        }
    }

    #[test]
    fn x_flips_the_outcome() {
        let mut t = Tableau::new(2);
        t.x_gate(1);
        assert_eq!(
            t.measure(1, || unreachable!()),
            Measurement {
                outcome: true,
                deterministic: true
            }
        );
        assert!(!t.measure(0, || unreachable!()).outcome);
    }

    #[test]
    fn bell_pair_correlates() {
        for coin in [false, true] {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            let first = t.measure(0, || coin);
            assert!(!first.deterministic);
            assert_eq!(first.outcome, coin);
            let second = t.measure(1, || unreachable!("fixed by the first"));
            assert!(second.deterministic);
            assert_eq!(second.outcome, coin);
        }
    }

    #[test]
    fn ghz_collapses_every_qubit_together() {
        let n = 64 + 3; // straddle a word boundary
        let mut t = Tableau::new(n);
        t.h(0);
        for i in 1..n {
            t.cnot(0, i);
        }
        let first = t.measure(0, || true);
        assert!(!first.deterministic);
        for i in 1..n {
            let m = t.measure(i, || unreachable!());
            assert!(m.deterministic);
            assert!(m.outcome);
        }
    }

    #[test]
    fn hzh_is_x() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.z_gate(0);
        t.h(0);
        assert_eq!(
            t.measure(0, || unreachable!()),
            Measurement {
                outcome: true,
                deterministic: true
            }
        );
    }

    #[test]
    fn s_squared_is_z() {
        let mut a = Tableau::new(1);
        a.h(0);
        a.s(0);
        a.s(0);
        a.h(0);
        let mut b = Tableau::new(1);
        b.h(0);
        b.z_gate(0);
        b.h(0);
        assert_eq!(
            a.measure(0, || unreachable!()).outcome,
            b.measure(0, || unreachable!()).outcome
        );
    }

    #[test]
    fn s_then_sdg_is_identity() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.sdg(0);
        t.h(0);
        let m = t.measure(0, || unreachable!());
        assert!(m.deterministic);
        assert!(!m.outcome);
    }

    #[test]
    fn sqrt_gates_square_to_paulis() {
        let mut t = Tableau::new(2);
        t.sqrt_x(0);
        t.sqrt_x(0); // = X
        t.sqrt_y(1);
        t.sqrt_y(1); // = Y
        for i in 0..2 {
            let m = t.measure(i, || unreachable!());
            assert!(m.deterministic);
            assert!(m.outcome, "qubit {i}");
        }
    }

    #[test]
    fn reset_forces_zero_and_consumes_a_coin() {
        let mut t = Tableau::new(1);
        t.h(0);
        let mut flipped = false;
        t.reset(0, || {
            flipped = true;
            true
        });
        assert!(flipped, "superposed qubit needs a coin");
        let m = t.measure(0, || unreachable!());
        assert!(m.deterministic);
        assert!(!m.outcome);
    }

    #[test]
    fn apply_lowers_clifford_angles() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut c = Circuit::new(3);
        c.rx(q(0), FRAC_PI_2);
        c.rx(q(0), FRAC_PI_2); // = X
        c.rz(q(1), FRAC_PI_2);
        c.rz(q(1), -FRAC_PI_2); // identity
        c.h(q(2));
        c.rz(q(2), PI); // = Z
        c.h(q(2)); // net X on qubit 2
        let mut t = Tableau::new(3);
        for g in &c {
            t.apply(g).unwrap();
        }
        assert!(t.measure(0, || unreachable!()).outcome);
        assert!(!t.measure(1, || unreachable!()).outcome);
        assert!(t.measure(2, || unreachable!()).outcome);
    }

    #[test]
    fn apply_rejects_non_clifford() {
        let mut t = Tableau::new(2);
        assert_eq!(t.apply(&Gate::T(q(0))), Err(NotClifford));
        assert_eq!(t.apply(&Gate::Rz(q(0), 0.3)), Err(NotClifford));
        assert_eq!(
            t.apply(&Gate::Cphase(q(0), q(1), std::f64::consts::FRAC_PI_2)),
            Err(NotClifford)
        );
        // The failed applications left the state untouched.
        assert!(!t.measure(0, || unreachable!()).outcome);
    }

    #[test]
    fn degenerate_operands_match_reference_semantics() {
        use std::f64::consts::PI;
        let mut t = Tableau::new(1);
        // cx q,q and swap q,q are the identity; rzz/rxx on one qubit are
        // global phase.
        t.apply(&Gate::Cnot(q(0), q(0))).unwrap();
        t.apply(&Gate::Swap(q(0), q(0))).unwrap();
        t.apply(&Gate::Zz(q(0), q(0), PI / 2.0)).unwrap();
        t.apply(&Gate::Xx(q(0), q(0), PI / 2.0)).unwrap();
        assert!(!t.measure(0, || unreachable!()).outcome);
        // cz q,q and cp(π) q,q act as Z.
        let mut t = Tableau::new(1);
        t.h(0);
        t.apply(&Gate::Cz(q(0), q(0))).unwrap();
        t.h(0); // HZH = X
        assert!(t.measure(0, || unreachable!()).outcome);
        let mut t = Tableau::new(1);
        t.h(0);
        t.apply(&Gate::Cphase(q(0), q(0), PI)).unwrap();
        t.h(0);
        assert!(t.measure(0, || unreachable!()).outcome);
    }

    #[test]
    fn marginals_match_statevec_on_handwritten_circuits() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut c = Circuit::new(4);
        c.h(q(0));
        c.cnot(q(0), q(1));
        c.s(q(1));
        c.sdg(q(2));
        c.zz(q(1), q(2), FRAC_PI_2);
        c.xx(q(2), q(3), -FRAC_PI_2);
        c.cphase(q(0), q(3), PI);
        c.ry(q(3), FRAC_PI_2);
        c.cz(q(0), q(2));
        c.swap(q(1), q(3));
        c.rx(q(2), -FRAC_PI_2);
        assert_matches_statevec(&c);
    }

    #[test]
    fn marginals_match_statevec_on_random_clifford_circuits() {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(0xC11F);
        for trial in 0..40 {
            let n = rng.gen_range(1usize..=6);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(5usize..40) {
                let a = rng.gen_range(0..n);
                match rng.gen_range(0u8..14) {
                    0 => {
                        c.h(q(a));
                    }
                    1 => {
                        c.x(q(a));
                    }
                    2 => {
                        c.y(q(a));
                    }
                    3 => {
                        c.z(q(a));
                    }
                    4 => {
                        c.s(q(a));
                    }
                    5 => {
                        c.sdg(q(a));
                    }
                    6 => {
                        c.push(Gate::SqrtX(q(a)));
                    }
                    7 => {
                        c.push(Gate::SqrtY(q(a)));
                    }
                    8 => {
                        let k = rng.gen_range(0u8..4) as f64;
                        c.rz(q(a), k * std::f64::consts::FRAC_PI_2);
                    }
                    _ if n >= 2 => {
                        let mut b = rng.gen_range(0..n - 1);
                        if b >= a {
                            b += 1;
                        }
                        match rng.gen_range(0u8..5) {
                            0 => {
                                c.cnot(q(a), q(b));
                            }
                            1 => {
                                c.cz(q(a), q(b));
                            }
                            2 => {
                                c.swap(q(a), q(b));
                            }
                            3 => {
                                let k = rng.gen_range(1u8..4) as f64;
                                c.zz(q(a), q(b), k * std::f64::consts::FRAC_PI_2);
                            }
                            _ => {
                                let k = rng.gen_range(1u8..4) as f64;
                                c.xx(q(a), q(b), k * std::f64::consts::FRAC_PI_2);
                            }
                        }
                    }
                    _ => {
                        c.h(q(a));
                    }
                }
            }
            assert_matches_statevec(&c);
            let _ = trial;
        }
    }

    #[test]
    fn run_reports_error_with_gate_and_index() {
        let mut c = Circuit::new(2);
        c.h(q(0));
        c.t(q(1));
        let err = run(&c, 0).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.gate.contains('t'), "display form: {}", err.gate);
        let msg = err.to_string();
        assert!(msg.contains("non-Clifford"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let mut c = Circuit::new(8);
        for i in 0..8 {
            c.h(q(i));
        }
        for i in 0..8 {
            c.measure(q(i));
        }
        let a = run(&c, 7).unwrap();
        let b = run(&c, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.random_measurements, 8);
        assert_eq!(a.deterministic_measurements, 0);
        // Different seeds must disagree somewhere on 8 coin flips
        // (probability 2⁻⁸ of collision per seed pair; these are fixed).
        let c2 = run(&c, 8).unwrap();
        assert_ne!(a.outcomes, c2.outcomes);
    }

    #[test]
    fn repetition_code_syndrome_round_is_quiet() {
        // d=3 repetition code, interleaved data/ancilla: data at 0,2,4;
        // ancillas at 1,3. No errors injected ⇒ syndromes read 0
        // deterministically.
        let mut c = Circuit::new(5);
        for &(d, a) in &[(0, 1), (2, 1), (2, 3), (4, 3)] {
            c.cnot(q(d), q(a));
        }
        for &a in &[1, 3] {
            c.measure(q(a));
        }
        let r = run(&c, 0).unwrap();
        assert_eq!(r.bitstring(), "00");
        assert_eq!(r.deterministic_measurements, 2);
    }

    #[test]
    fn large_width_is_cheap() {
        // 1001 qubits: utterly out of reach for the dense backend, and
        // word-boundary-straddling for the tableau.
        let n = 1001;
        let mut c = Circuit::new(n);
        c.h(q(0));
        for i in 1..n {
            c.cnot(q(i - 1), q(i));
        }
        for i in 0..n {
            c.measure(q(i));
        }
        let r = run(&c, 3).unwrap();
        assert_eq!(r.outcomes.len(), n);
        assert_eq!(r.random_measurements, 1);
        assert!(r.outcomes.iter().all(|&b| b == r.outcomes[0]));
    }

    #[test]
    fn quiet_distance_251_memory_reads_all_zeros() {
        // 501 qubits, 10 syndrome rounds: 2,500 syndrome bits plus 251
        // data readouts, every one fixed by the all-zero start, so a
        // wrong update rule shows up as a random or a flipped bit.
        let c = tilt_benchmarks::qec::repetition_code(251, 10);
        let r = run(&c, 7).unwrap();
        assert_eq!(r.outcomes.len(), 2_751);
        assert_eq!(r.deterministic_measurements, 2_751);
        assert!(r.outcomes.iter().all(|&b| !b));
    }

    /// Runner-independent gate on the sign cache: the fallback count
    /// depends only on the circuit.
    mod fallback_gate {
        use super::*;

        #[test]
        fn quiet_repetition_code_never_takes_the_fallback() {
            let c = tilt_benchmarks::qec::repetition_code(251, 10);
            let mut t = Tableau::new(c.n_qubits());
            let r = run_on(&mut t, &c, 7).unwrap();
            assert_eq!(r.deterministic_measurements, 2_751);
            assert_eq!(t.fallbacks, 0, "every syndrome read comes from the cache");
        }

        #[test]
        fn a_read_after_a_random_measurement_takes_the_fallback() {
            let mut c = Circuit::new(2);
            c.h(q(0));
            c.cnot(q(0), q(1));
            c.measure(q(0));
            c.measure(q(1));
            let mut t = Tableau::new(2);
            let r = run_on(&mut t, &c, 7).unwrap();
            assert_eq!(
                (r.random_measurements, r.deterministic_measurements),
                (1, 1)
            );
            assert!(t.fallbacks >= 1, "the random read forgot the cache");
        }
    }
}
