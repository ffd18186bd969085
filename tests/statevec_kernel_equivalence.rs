//! Property tests pinning the optimized state-vector kernels to the
//! retained naive reference path.
//!
//! Randomized circuits over the full gate set run through every
//! execution mode — fused, unfused, serial, and forced-rayon — and each
//! result must agree with the seed's full-scan implementation to a
//! fidelity of 1e-12. The forced-parallel mode exercises the
//! `rayon::join` splitting even below the auto-parallel threshold (and
//! degrades to inline execution on single-core hosts, so the test is
//! deterministic everywhere).

use proptest::prelude::*;
use tilt::circuit::{Circuit, Gate, Qubit};
use tilt::statevec::{simd, Complex, RunOptions, State};

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

/// Every execution mode the optimized pipeline exposes.
fn modes() -> [(&'static str, RunOptions); 4] {
    [
        ("fused/auto", RunOptions::optimized()),
        ("unfused/serial", RunOptions::serial_unfused()),
        (
            "fused/rayon",
            RunOptions {
                fuse: true,
                parallel: Some(true),
            },
        ),
        (
            "unfused/rayon",
            RunOptions {
                fuse: false,
                parallel: Some(true),
            },
        ),
    ]
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
        for (name, opts) in modes() {
            let out = probe.clone().run_with(&circuit, opts);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{name} diverged: fidelity {f}\ncircuit: {circuit}"
            );
            let norm = out.norm_sq();
            prop_assert!((norm - 1.0).abs() < EPS, "{name} broke unitarity: {norm}");
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

    /// Fusion never changes the number of qubits a circuit acts on, and
    /// fused execution from |0…0⟩ matches unfused execution.
    #[test]
    fn fused_equals_unfused_from_zero(circuit in circuit_strategy()) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let fused = State::zero(n).run_with(&circuit, RunOptions::optimized());
        let unfused = State::zero(n).run_with(&circuit, RunOptions::serial_unfused());
        let f = fused.fidelity(&unfused);
        prop_assert!((f - 1.0).abs() < EPS, "fidelity {f}\ncircuit: {circuit}");
    }

    /// Permutation-dense circuits pin the parallel `CNOT`/`SWAP`/
    /// `Toffoli` kernels (forced-rayon modes) to the naive path.
    #[test]
    fn parallel_permutation_kernels_match_naive(circuit in permutation_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let reference = probe.clone().run_naive(&circuit);
        for (name, opts) in modes() {
            let out = probe.clone().run_with(&circuit, opts);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{name} diverged on permutation circuit: fidelity {f}\ncircuit: {circuit}"
            );
        }
    }

    /// Diagonal-dense circuits (long `Rz`/`CZ`/`CPhase`/`ZZ` stretches)
    /// exercise the batched hierarchical sweep; every mode must still
    /// match naive.
    #[test]
    fn diagonal_run_batching_matches_naive(circuit in diagonal_strategy(), seed in 0u64..1000) {
        let _guard = simd::test_tier_lock();
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        let reference = probe.clone().run_naive(&circuit);
        for (name, opts) in modes() {
            let out = probe.clone().run_with(&circuit, opts);
            let f = out.fidelity(&reference);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{name} diverged on diagonal circuit: fidelity {f}\ncircuit: {circuit}"
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

/// Circuits dominated by diagonal gates with occasional `H` separators,
/// producing exactly the long fused-diagonal runs the batcher targets.
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
            // Rare non-diagonal separators force run flushes mid-circuit.
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
    for (name, opts) in modes() {
        let out = probe.clone().run_with(&c, opts);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{name}: fidelity {f}");
    }
}

/// Regression pin for the fusion cost model (ROADMAP item): the
/// Clifford+T-lowered Cuccaro adder must fuse into *monomial*
/// (permutation + phase) two-qubit blocks only — never dense 4×4s.
/// Before the fix, `H`/rotations merging into CNOT blocks densified
/// them, and the dense pass made fused execution ~2× slower than
/// unfused on one core; monomial blocks dispatch to the cheap
/// phase-sweep + swap kernels instead.
#[test]
fn cuccaro_adder_fuses_to_monomial_blocks_only() {
    use tilt::benchmarks::adder::cuccaro_adder;
    use tilt::statevec::fuse::{fuse, is_monomial4, FusedOp};
    let adder = cuccaro_adder(8); // 18 qubits of raw CNOT/T/H traffic
    let ops = fuse(&adder);
    let mut two_q_blocks = 0usize;
    for op in &ops {
        if let FusedOp::TwoQ { m, .. } = op {
            two_q_blocks += 1;
            assert!(
                is_monomial4(m),
                "a dense fused block leaked into the adder stream: {m:?}"
            );
        }
    }
    assert!(two_q_blocks > 0, "the adder must produce fused 2q blocks");
}

/// The monomial fast path must stay exact: fused execution of a small
/// Cuccaro adder (T-dressed CNOT traffic end to end) matches the naive
/// reference in every mode.
#[test]
fn cuccaro_adder_all_modes_agree() {
    use tilt::benchmarks::adder::cuccaro_adder;
    let _guard = simd::test_tier_lock();
    let adder = cuccaro_adder(4); // 10 qubits: cheap enough for debug CI
    let n = adder.n_qubits();
    let probe = State::random(n, 4242);
    let reference = probe.clone().run_naive(&adder);
    for (name, opts) in modes() {
        let out = probe.clone().run_with(&adder, opts);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{name}: fidelity {f}");
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

fn matrix4() -> impl Strategy<Value = [[Complex; 4]; 4]> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 16).prop_map(|v| {
        let c = |i: usize| Complex::new(v[i].0, v[i].1);
        [
            [c(0), c(1), c(2), c(3)],
            [c(4), c(5), c(6), c(7)],
            [c(8), c(9), c(10), c(11)],
            [c(12), c(13), c(14), c(15)],
        ]
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

    /// `apply_2q` over random (qlo, qhi) pairs, covering the qlo = 0
    /// interleaved path and the zipped-runs path.
    #[test]
    fn simd_apply_2q_matches_scalar_and_naive(
        (_n, qlo, qhi, init) in (2usize..9).prop_flat_map(|n| {
            (0..n, 0..n)
                .prop_filter("distinct", |(a, b)| a != b)
                .prop_flat_map(move |(a, b)| (Just(n), Just(a.min(b)), Just(a.max(b)), raw_state(n)))
        }),
        m in matrix4(),
    ) {
        use tilt::statevec::kernels::apply_2q;
        let (dispatched, scalar) = both_tiers(&init, |amps| apply_2q(amps, qlo, qhi, m, false));
        let mut naive = init.clone();
        for x in 0..init.len() {
            if x & (1 << qlo) == 0 && x & (1 << qhi) == 0 {
                let idx = [x, x | (1 << qlo), x | (1 << qhi), x | (1 << qlo) | (1 << qhi)];
                for (r, &xi) in idx.iter().enumerate() {
                    let mut acc = Complex::ZERO;
                    for (c, &xc) in idx.iter().enumerate() {
                        acc += m[r][c] * init[xc];
                    }
                    naive[xi] = acc;
                }
            }
        }
        assert_close(&dispatched, &scalar, "dispatched vs scalar");
        assert_close(&dispatched, &naive, "dispatched vs naive");
    }

    /// The diagonal/phase kernels (the cache-blocked plane sweeps) and
    /// the global scale.
    #[test]
    fn simd_diag_kernels_match_scalar_and_naive(
        (_n, q, init) in (1usize..9).prop_flat_map(|n| (Just(n), 0..n, raw_state(n))),
        (t0, t1) in (-6.0f64..6.0, -6.0f64..6.0),
    ) {
        use tilt::statevec::kernels::{diag_1q, phase_1q, scale_all};
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

        let (dispatched, scalar) = both_tiers(&init, |amps| scale_all(amps, p0, false));
        let naive: Vec<Complex> = init.iter().map(|&a| a * p0).collect();
        assert_close(&dispatched, &scalar, "scale_all dispatched vs scalar");
        assert_close(&dispatched, &naive, "scale_all dispatched vs naive");
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

    /// The fused diag-run path: random term batches through the
    /// hierarchical tree sweep (n up to 9 reaches the `Split` node above
    /// the table cutoff; the SIMD table sweep runs the leaves).
    #[test]
    fn simd_diag_run_matches_scalar_and_naive(
        (_n, init, terms) in (1usize..10).prop_flat_map(|n| {
            let term = term_strategy(n);
            (Just(n), raw_state(n), prop::collection::vec(term, 1..6))
        }),
    ) {
        use tilt::statevec::kernels::apply_diag_run;
        for parallel in [false, true] {
            let (dispatched, scalar) =
                both_tiers(&init, |amps| apply_diag_run(amps, &terms, parallel));
            let mut naive = init.clone();
            for (x, amp) in naive.iter_mut().enumerate() {
                for t in &terms {
                    *amp = *amp * t.factor(x);
                }
            }
            assert_close(&dispatched, &scalar, "diag run dispatched vs scalar");
            assert_close(&dispatched, &naive, "diag run dispatched vs naive");
        }
    }

    /// Whole-circuit agreement across tiers: the full `run_with`
    /// pipeline (fusion, batching, parallel splits) produces the same
    /// state under forced-scalar as under normal dispatch.
    #[test]
    fn simd_full_pipeline_matches_scalar(circuit in circuit_strategy(), seed in 0u64..1000) {
        let n = circuit.n_qubits();
        let probe = State::random(n, seed);
        for (name, opts) in modes() {
            let _guard = simd::test_tier_lock();
            simd::force_scalar(false);
            let dispatched = probe.clone().run_with(&circuit, opts);
            simd::force_scalar(true);
            let scalar = probe.clone().run_with(&circuit, opts);
            simd::force_scalar(false);
            drop(_guard);
            let f = dispatched.fidelity(&scalar);
            prop_assert!(
                (f - 1.0).abs() < EPS,
                "{name} tiers diverged: fidelity {f}\ncircuit: {circuit}"
            );
        }
    }
}

/// A random normalized diagonal term on qubits below `n` (the same
/// shape the fusion batcher emits).
fn term_strategy(n: usize) -> impl Strategy<Value = tilt::statevec::kernels::DiagTerm> {
    use tilt::statevec::kernels::DiagTerm;
    let one = (0..n, -6.0f64..6.0).prop_map(|(q, t)| DiagTerm::One {
        q,
        p: [Complex::ONE, Complex::cis(t)],
    });
    if n < 2 {
        return one.boxed();
    }
    let two = (0..n, 0..n, -6.0f64..6.0, -6.0f64..6.0, -6.0f64..6.0)
        .prop_filter("distinct", |(a, b, ..)| a != b)
        .prop_map(|(a, b, t1, t2, t3)| DiagTerm::Two {
            qlo: a.min(b),
            qhi: a.max(b),
            d: [
                Complex::ONE,
                Complex::cis(t1),
                Complex::cis(t2),
                Complex::cis(t3),
            ],
        });
    prop_oneof![one, two].boxed()
}

/// A QFT-style ladder wide enough that one diagonal run spans more
/// distinct qubits than the batcher's budget, forcing mid-run flushes
/// (the QFT row shape is exactly the workload the batching targets).
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
    for (name, opts) in modes() {
        let out = probe.clone().run_with(&c, opts);
        let f = out.fidelity(&reference);
        assert!((f - 1.0).abs() < EPS, "{name}: fidelity {f}");
    }
}

/// Serial and forced-parallel execution agree bit for bit above the
/// auto-parallel threshold, fused and unfused, over every gate kind —
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
    // A controlled-phase ladder into the top qubit: one diagonal run
    // long enough for the batched hierarchical sweep.
    for k in 1..8 {
        gates.push(Gate::Cphase(q(top - k), q(top), PI / (1 << k) as f64));
    }
    let circuit = Circuit::from_gates(n, gates);
    let probe = State::random(n, 17);
    for fuse in [false, true] {
        let run = |parallel| {
            let opts = RunOptions {
                fuse,
                parallel: Some(parallel),
            };
            probe.clone().run_with(&circuit, opts)
        };
        let (serial, parallel) = (run(false), run(true));
        for x in 0..1usize << n {
            let (a, b) = (serial.amplitude(x), parallel.amplitude(x));
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "fuse={fuse}: amplitude {x} differs: {a:?} vs {b:?}"
            );
        }
    }
}
