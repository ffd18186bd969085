//! Property tests pinning the optimized state-vector kernels to the
//! retained naive reference path.
//!
//! Randomized circuits over the full gate set run through every
//! execution mode — serial and forced-rayon, each under the dispatched
//! and the forced-scalar kernel tier — and each result must agree with
//! the seed's full-scan implementation to a fidelity of 1e-12. The
//! forced-parallel mode exercises the `rayon::join` splitting even below
//! the auto-parallel threshold (and degrades to inline execution on
//! single-core hosts, so the test is deterministic everywhere).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tilt::circuit::{Circuit, Gate, Qubit};
use tilt::statevec::{simd, Complex, State};

const EPS: f64 = 1e-12;

/// A random circuit over the complete unitary gate set (no measurement
/// — the verifier is pure-state), 4–8 qubits, up to 60 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (4usize..9).prop_flat_map(|n| {
        let q = move || (0..n).prop_map(Qubit);
        let pair = move || {
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| (Qubit(a), Qubit(b)))
        };
        let triple = move || {
            (0..n, 0..n, 0..n)
                .prop_filter("distinct operands", |(a, b, c)| a != b && b != c && a != c)
                .prop_map(|(a, b, c)| (Qubit(a), Qubit(b), Qubit(c)))
        };
        let angle = || -6.0f64..6.0;
        let gate = prop_oneof![
            q().prop_map(Gate::H),
            q().prop_map(Gate::X),
            q().prop_map(Gate::Y),
            q().prop_map(Gate::Z),
            q().prop_map(Gate::S),
            q().prop_map(Gate::Sdg),
            q().prop_map(Gate::T),
            q().prop_map(Gate::Tdg),
            q().prop_map(Gate::SqrtX),
            q().prop_map(Gate::SqrtY),
            (q(), angle()).prop_map(|(q, a)| Gate::Rx(q, a)),
            (q(), angle()).prop_map(|(q, a)| Gate::Ry(q, a)),
            (q(), angle()).prop_map(|(q, a)| Gate::Rz(q, a)),
            pair().prop_map(|(a, b)| Gate::Cnot(a, b)),
            pair().prop_map(|(a, b)| Gate::Cz(a, b)),
            (pair(), angle()).prop_map(|((a, b), t)| Gate::Cphase(a, b, t)),
            (pair(), angle()).prop_map(|((a, b), t)| Gate::Zz(a, b, t)),
            (pair(), angle()).prop_map(|((a, b), t)| Gate::Xx(a, b, t)),
            pair().prop_map(|(a, b)| Gate::Swap(a, b)),
            triple().prop_map(|(a, b, c)| Gate::Toffoli(a, b, c)),
            Just(Gate::Barrier),
        ];
        prop::collection::vec(gate, 0..60).prop_map(move |gates| Circuit::from_gates(n, gates))
    })
}

/// One execution mode: the parallel decision pinned either way, under
/// the dispatched or the forced-scalar kernel tier.
#[derive(Clone, Copy, Debug)]
struct Mode {
    parallel: bool,
    scalar: bool,
}

/// Every execution mode of the kernel path.
const MODES: [Mode; 4] = [
    Mode {
        parallel: false,
        scalar: false,
    },
    Mode {
        parallel: true,
        scalar: false,
    },
    Mode {
        parallel: false,
        scalar: true,
    },
    Mode {
        parallel: true,
        scalar: true,
    },
];

/// Runs `circuit` from `probe` in `mode`. The caller holds
/// `simd::test_tier_lock()`, so the tier toggle cannot race another
/// test.
fn run_in(mode: Mode, probe: &State, circuit: &Circuit) -> State {
    simd::force_scalar(mode.scalar);
    let out = probe.clone().run_with(circuit, Some(mode.parallel));
    simd::force_scalar(false);
    out
}

/// `true` when the two states hold the same amplitude bits.
fn bit_identical(a: &State, b: &State) -> bool {
    (0..1usize << a.n_qubits()).all(|x| {
        let (p, q) = (a.amplitude(x), b.amplitude(x));
        p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All optimized paths reproduce the naive path on random circuits
    /// from a random initial state.
    #[test]
    fn optimized_paths_match_naive(circuit in circuit_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let reference = probe.clone().run_naive(&circuit);
        for mode in MODES {
            let out = run_in(mode, &probe, &circuit);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{mode:?} diverged: fidelity {f}\ncircuit: {circuit}"
            );
            let norm = out.norm_sq();
            prop_assert!((norm - 1.0).abs() < EPS, "{mode:?} broke unitarity: {norm}");
        }
    }

    /// Single-gate dispatch (`apply`) agrees with the naive path
    /// amplitude-by-amplitude — no global-phase slack at this level.
    #[test]
    fn apply_matches_naive_exactly(circuit in circuit_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let mut fast = State::random(n, seed);
        let mut slow = fast.clone();
        for g in &circuit {
            fast.apply(g);
            slow.apply_naive(g);
        }
        for x in 0..1usize << n {
            let (a, b) = (fast.amplitude(x), slow.amplitude(x));
            prop_assert!(
                (a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS,
                "amplitude {x} diverged: {a:?} vs {b:?}\ncircuit: {circuit}"
            );
        }
    }

    /// `run` and `run_sampled` share one gate loop: on a circuit without
    /// measurement they leave the same amplitude bits, serial and forced
    /// parallel alike.
    #[test]
    fn run_matches_run_sampled_bit_for_bit(circuit in circuit_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (sampled, bits) = probe.clone().run_sampled(&circuit, &mut rng);
        prop_assert!(bits.is_empty());
        let runs = [
            ("run", probe.clone().run(&circuit)),
            ("serial", probe.clone().run_with(&circuit, Some(false))),
            ("parallel", probe.clone().run_with(&circuit, Some(true))),
        ];
        for (name, out) in runs {
            prop_assert!(
                bit_identical(&out, &sampled),
                "{name} differs from run_sampled\ncircuit: {circuit}"
            );
        }
    }

    /// Permutation-dense circuits pin the parallel `CNOT`/`SWAP`/
    /// `Toffoli` kernels (forced-rayon modes) to the naive path.
    #[test]
    fn parallel_permutation_kernels_match_naive(circuit in permutation_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let reference = probe.clone().run_naive(&circuit);
        for mode in MODES {
            let out = run_in(mode, &probe, &circuit);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{mode:?} diverged on permutation circuit: fidelity {f}\ncircuit: {circuit}"
            );
        }
    }

    /// Diagonal-dense circuits (long `Rz`/`CZ`/`CPhase`/`ZZ` stretches)
    /// pin the phase kernels to the naive path in every mode.
    #[test]
    fn diagonal_circuits_match_naive(circuit in diagonal_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let reference = probe.clone().run_naive(&circuit);
        for mode in MODES {
            let out = run_in(mode, &probe, &circuit);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{mode:?} diverged on diagonal circuit: fidelity {f}\ncircuit: {circuit}"
            );
        }
    }
}

/// Circuits made almost entirely of permutation gates, so the
/// contiguous-run swap kernels (and their parallel splits) dominate.
fn permutation_strategy() -> impl Strategy<Value = Circuit> {
    (4usize..9).prop_flat_map(|n| {
        let q = move || (0..n).prop_map(Qubit);
        let pair = move || {
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| (Qubit(a), Qubit(b)))
        };
        let triple = move || {
            (0..n, 0..n, 0..n)
                .prop_filter("distinct operands", |(a, b, c)| a != b && b != c && a != c)
                .prop_map(|(a, b, c)| (Qubit(a), Qubit(b), Qubit(c)))
        };
        let gate = prop_oneof![
            pair().prop_map(|(a, b)| Gate::Cnot(a, b)),
            pair().prop_map(|(a, b)| Gate::Swap(a, b)),
            triple().prop_map(|(a, b, c)| Gate::Toffoli(a, b, c)),
            q().prop_map(Gate::X),
            q().prop_map(Gate::H),
        ];
        prop::collection::vec(gate, 1..60).prop_map(move |gates| Circuit::from_gates(n, gates))
    })
}

/// Circuits dominated by diagonal gates with occasional `H` separators.
fn diagonal_strategy() -> impl Strategy<Value = Circuit> {
    (4usize..9).prop_flat_map(|n| {
        let q = move || (0..n).prop_map(Qubit);
        let pair = move || {
            (0..n, 0..n)
                .prop_filter("distinct operands", |(a, b)| a != b)
                .prop_map(|(a, b)| (Qubit(a), Qubit(b)))
        };
        let angle = || -6.0f64..6.0;
        let gate = prop_oneof![
            (q(), angle()).prop_map(|(q, a)| Gate::Rz(q, a)),
            q().prop_map(Gate::S),
            q().prop_map(Gate::T),
            q().prop_map(Gate::Z),
            pair().prop_map(|(a, b)| Gate::Cz(a, b)),
            (pair(), angle()).prop_map(|((a, b), t)| Gate::Cphase(a, b, t)),
            (pair(), angle()).prop_map(|((a, b), t)| Gate::Zz(a, b, t)),
            // Rare non-diagonal separators.
            q().prop_map(Gate::H),
        ];
        prop::collection::vec(gate, 1..80).prop_map(move |gates| Circuit::from_gates(n, gates))
    })
}

/// A deterministic deep-circuit check at a size that crosses the
/// parallel threshold logic paths more meaningfully than the property
/// sizes (kept small enough for CI).
#[test]
fn deep_circuit_all_modes_agree() {
    let _guard = simd::test_tier_lock();
    let n = 10;
    let mut c = Circuit::new(n);
    for layer in 0..20 {
        for q in 0..n {
            c.rz(Qubit(q), 0.1 + (layer * n + q) as f64 * 0.01);
            c.h(Qubit(q));
        }
        for q in 0..n - 1 {
            if (layer + q) % 3 == 0 {
                c.cnot(Qubit(q), Qubit(q + 1));
            } else {
                c.cphase(Qubit(q), Qubit(q + 1), 0.2 + q as f64 * 0.05);
            }
        }
    }
    let probe = State::random(n, 2024);
    let reference = probe.clone().run_naive(&c);
    for mode in MODES {
        let out = run_in(mode, &probe, &c);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{mode:?}: fidelity {f}");
    }
}

/// A small Cuccaro adder (T-dressed CNOT traffic end to end) matches
/// the naive reference in every mode.
#[test]
fn cuccaro_adder_all_modes_agree() {
    use tilt::benchmarks::adder::cuccaro_adder;
    let _guard = simd::test_tier_lock();
    let adder = cuccaro_adder(4); // 10 qubits: cheap enough for debug CI
    let n = adder.n_qubits();
    let probe = State::random(n, 4242);
    let reference = probe.clone().run_naive(&adder);
    for mode in MODES {
        let out = run_in(mode, &probe, &adder);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{mode:?}: fidelity {f}");
    }
}

// --- SIMD dispatch tier vs scalar fallback --------------------------------
//
// The compute kernels are tier dispatchers: `avx2_fma` where the host
// supports it, the portable scalar bodies otherwise (and always under
// `TILT_SIMD=off`). These properties pin the dispatched tier to the
// forced-scalar tier *and* to an index-arithmetic naive reference at
// 1e-12 over random register sizes (down to 2 amplitudes — smaller than
// one SIMD block), qubit positions/strides, and matrices. On a host
// without AVX2 both runs take the scalar path and the comparison is
// trivially exact, which is what the `TILT_SIMD=off` CI leg asserts.

/// Runs `f` twice from the same initial state: once under normal
/// dispatch, once with the scalar tier forced. The tier is
/// process-global, so the toggle is serialized against every other
/// bitwise-sensitive test via the crate's tier lock.
fn both_tiers(init: &[Complex], f: impl Fn(&mut [Complex])) -> (Vec<Complex>, Vec<Complex>) {
    let _guard = simd::test_tier_lock();
    let mut dispatched = init.to_vec();
    simd::force_scalar(false);
    f(&mut dispatched);
    let mut scalar = init.to_vec();
    simd::force_scalar(true);
    f(&mut scalar);
    simd::force_scalar(false);
    (dispatched, scalar)
}

fn assert_close(got: &[Complex], want: &[Complex], what: &str) {
    for (x, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS,
            "{what}: amplitude {x} diverged: {a:?} vs {b:?}"
        );
    }
}

/// A random register of `2^n` amplitudes (not normalized — kernel
/// linearity does not care, and unnormalized inputs catch scaling bugs).
fn raw_state(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex::new(re, im)),
        1usize << n,
    )
}

fn matrix2() -> impl Strategy<Value = [[Complex; 2]; 2]> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4).prop_map(|v| {
        let c = |i: usize| Complex::new(v[i].0, v[i].1);
        [[c(0), c(1)], [c(2), c(3)]]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `apply_1q`: dispatched == forced-scalar == naive bit-arithmetic
    /// reference, over every stride (q = 0 is the interleaved SIMD
    /// block path; n = 1 is a 2-amplitude state below one SIMD block).
    #[test]
    fn simd_apply_1q_matches_scalar_and_naive(
        (_n, q, init) in (1usize..9).prop_flat_map(|n| (Just(n), 0..n, raw_state(n))),
        m in matrix2(),
    ) {
        use tilt::statevec::kernels::apply_1q;
        let (dispatched, scalar) = both_tiers(&init, |amps| apply_1q(amps, q, m, false));
        let mut naive = init.clone();
        for x in 0..init.len() {
            if x & (1 << q) == 0 {
                let y = x | (1 << q);
                naive[x] = m[0][0] * init[x] + m[0][1] * init[y];
                naive[y] = m[1][0] * init[x] + m[1][1] * init[y];
            }
        }
        assert_close(&dispatched, &scalar, "dispatched vs scalar");
        assert_close(&dispatched, &naive, "dispatched vs naive");
    }

    /// The diagonal/phase kernels (the cache-blocked plane sweeps).
    #[test]
    fn simd_diag_kernels_match_scalar_and_naive(
        (_n, q, init) in (1usize..9).prop_flat_map(|n| (Just(n), 0..n, raw_state(n))),
        (t0, t1) in (-6.0f64..6.0, -6.0f64..6.0),
    ) {
        use tilt::statevec::kernels::{diag_1q, phase_1q};
        let (p0, p1) = (Complex::cis(t0), Complex::cis(t1));

        let (dispatched, scalar) = both_tiers(&init, |amps| diag_1q(amps, q, p0, p1, false));
        let naive: Vec<Complex> = init
            .iter()
            .enumerate()
            .map(|(x, &a)| a * if x & (1 << q) == 0 { p0 } else { p1 })
            .collect();
        assert_close(&dispatched, &scalar, "diag_1q dispatched vs scalar");
        assert_close(&dispatched, &naive, "diag_1q dispatched vs naive");

        let (dispatched, scalar) = both_tiers(&init, |amps| phase_1q(amps, q, p1, false));
        let naive: Vec<Complex> = init
            .iter()
            .enumerate()
            .map(|(x, &a)| if x & (1 << q) == 0 { a } else { a * p1 })
            .collect();
        assert_close(&dispatched, &scalar, "phase_1q dispatched vs scalar");
        assert_close(&dispatched, &naive, "phase_1q dispatched vs naive");
    }

    /// The `XX(θ)` orbit rotation over random operand pairs (qlo = 0
    /// orbits are single-amplitude zips that stay scalar by design).
    #[test]
    fn simd_xx_rotate_matches_scalar_and_naive(
        (_n, a, b, init) in (2usize..9).prop_flat_map(|n| {
            (0..n, 0..n)
                .prop_filter("distinct", |(a, b)| a != b)
                .prop_flat_map(move |(a, b)| (Just(n), Just(a), Just(b), raw_state(n)))
        }),
        theta in -6.0f64..6.0,
    ) {
        use tilt::statevec::kernels::xx_rotate;
        let cos = Complex::new((theta / 2.0).cos(), 0.0);
        let isin = Complex::new(0.0, -(theta / 2.0).sin());
        let (dispatched, scalar) = both_tiers(&init, |amps| xx_rotate(amps, a, b, cos, isin, false));
        let mask = (1 << a) | (1 << b);
        let mut naive = init.clone();
        for x in 0..init.len() {
            let y = x ^ mask;
            if x < y {
                naive[x] = cos * init[x] + isin * init[y];
                naive[y] = cos * init[y] + isin * init[x];
            }
        }
        assert_close(&dispatched, &scalar, "dispatched vs scalar");
        assert_close(&dispatched, &naive, "dispatched vs naive");
    }

    /// Whole-circuit agreement across tiers: `run_with`, serial and
    /// forced parallel, produces the same state under forced-scalar as
    /// under normal dispatch.
    #[test]
    fn simd_full_pipeline_matches_scalar(circuit in circuit_strategy(), seed in 0u64..1000) {
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        for parallel in [false, true] {
            let _guard = simd::test_tier_lock();
            let dispatched = run_in(Mode { parallel, scalar: false }, &probe, &circuit);
            let scalar = run_in(Mode { parallel, scalar: true }, &probe, &circuit);
            drop(_guard);
            let f = dispatched.fidelity(&scalar);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "parallel={parallel}: tiers diverged: fidelity {f}\ncircuit: {circuit}"
            );
        }
    }
}

/// A 15-qubit QFT ladder: long controlled-phase rows between
/// Hadamards, the shape of the same-run timing circuit.
#[test]
fn wide_diagonal_ladder_all_modes_agree() {
    let _guard = simd::test_tier_lock();
    let n = 15;
    let mut c = Circuit::new(n);
    for j in 0..n {
        c.h(Qubit(j));
        for k in (j + 1)..n {
            c.cphase(
                Qubit(j),
                Qubit(k),
                std::f64::consts::PI / (1 << (k - j)) as f64,
            );
        }
    }
    let probe = State::random(n, 77);
    let reference = probe.clone().run_naive(&c);
    for mode in MODES {
        let out = run_in(mode, &probe, &c);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{mode:?}: fidelity {f}");
    }
}

/// Serial and forced-parallel execution agree bit for bit above the
/// auto-parallel threshold, and with `run_sampled`, over every gate
/// kind —
/// on low qubits and on the top qubit, whose single block `apply_1q`
/// splits by zipping its halves rather than by chunking. Splitting
/// only decides which thread touches an amplitude, never the arithmetic
/// it sees, so `==` on the bits (not a tolerance) is the contract.
#[test]
fn serial_and_parallel_kernels_are_bit_identical() {
    use std::f64::consts::PI;
    let _guard = simd::test_tier_lock();
    let n = 17;
    assert!(1usize << n > tilt::statevec::kernels::PARALLEL_THRESHOLD);
    let top = n - 1;
    let q = Qubit;
    let mut gates = Vec::new();
    for (a, b, c) in [(0usize, top, 9usize), (7, 0, 12), (top, 3, 1)] {
        let t = 0.3 + a as f64 * 0.1;
        gates.extend([
            Gate::H(q(a)),
            Gate::X(q(a)),
            Gate::Y(q(a)),
            Gate::Z(q(a)),
            Gate::S(q(a)),
            Gate::Sdg(q(a)),
            Gate::T(q(a)),
            Gate::Tdg(q(a)),
            Gate::SqrtX(q(a)),
            Gate::SqrtY(q(a)),
            Gate::Rx(q(a), t),
            Gate::Ry(q(a), -t),
            Gate::Rz(q(a), 2.0 * t),
            Gate::Cnot(q(a), q(b)),
            Gate::Cnot(q(b), q(a)),
            Gate::Cz(q(a), q(b)),
            Gate::Cphase(q(b), q(a), t),
            Gate::Zz(q(a), q(b), -t),
            Gate::Xx(q(a), q(b), t),
            Gate::Swap(q(a), q(b)),
            Gate::Toffoli(q(a), q(b), q(c)),
            Gate::H(q(b)),
        ]);
    }
    // A controlled-phase ladder into the top qubit.
    for k in 1..8 {
        gates.push(Gate::Cphase(q(top - k), q(top), PI / (1 << k) as f64));
    }
    let circuit = Circuit::from_gates(n, gates);
    let probe = State::random(n, 17);
    let serial = probe.clone().run_with(&circuit, Some(false));
    let parallel = probe.clone().run_with(&circuit, Some(true));
    let (sampled, _) = probe.run_sampled(&circuit, &mut SmallRng::seed_from_u64(17));
    assert!(
        bit_identical(&serial, &parallel),
        "serial and parallel differ"
    );
    assert!(
        bit_identical(&serial, &sampled),
        "run and run_sampled differ"
    );
}
