//! The retained naive reference path.
//!
//! This is the seed implementation of gate application: one full scan
//! of all `2^n` amplitudes per gate with a bit-test branch in the loop
//! body. It is kept in-tree, bit-for-bit, as the semantic baseline the
//! optimized kernels are property-tested and timed against (see
//! `tests/statevec_kernel_equivalence.rs` and `tests/same_run_ratios.rs`).
//! Those suites sit outside the crate and call [`apply_naive`] and
//! `State::run_naive` as their reference oracle, so both stay public
//! rather than `#[cfg(test)]`.
//!
//! The only change from the seed is hoisting the `Rz`/`ZZ` phase
//! factors out of the amplitude loops — the seed recomputed `sin`/`cos`
//! per amplitude, which made the baseline artificially slow rather than
//! representatively naive.

use crate::complex::Complex;
use tilt_circuit::Gate;

/// Applies `gate` to `amps` with the seed's full-scan implementation.
///
/// # Panics
///
/// Panics on [`Gate::Measure`] (this is a pure-state verifier).
pub fn apply_naive(amps: &mut [Complex], gate: &Gate) {
    match *gate {
        Gate::Barrier => {}
        Gate::Measure(_) | Gate::Reset(_) => {
            panic!("state-vector verifier cannot measure or reset")
        }
        Gate::H(q) => {
            let s = std::f64::consts::FRAC_1_SQRT_2;
            apply_1q_naive(
                amps,
                q.index(),
                [
                    [Complex::new(s, 0.0), Complex::new(s, 0.0)],
                    [Complex::new(s, 0.0), Complex::new(-s, 0.0)],
                ],
            );
        }
        Gate::X(q) => apply_1q_naive(
            amps,
            q.index(),
            [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
        ),
        Gate::Y(q) => apply_1q_naive(
            amps,
            q.index(),
            [[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]],
        ),
        Gate::Z(q) => phase_if(amps, q.index(), Complex::new(-1.0, 0.0)),
        Gate::S(q) => phase_if(amps, q.index(), Complex::I),
        Gate::Sdg(q) => phase_if(amps, q.index(), -Complex::I),
        Gate::T(q) => phase_if(amps, q.index(), Complex::cis(std::f64::consts::FRAC_PI_4)),
        Gate::Tdg(q) => phase_if(amps, q.index(), Complex::cis(-std::f64::consts::FRAC_PI_4)),
        Gate::SqrtX(q) => {
            let p = Complex::new(0.5, 0.5);
            let m = Complex::new(0.5, -0.5);
            apply_1q_naive(amps, q.index(), [[p, m], [m, p]]);
        }
        Gate::SqrtY(q) => {
            let p = Complex::new(0.5, 0.5);
            apply_1q_naive(amps, q.index(), [[p, -p], [p, p]]);
        }
        Gate::Rx(q, t) => {
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            apply_1q_naive(
                amps,
                q.index(),
                [
                    [Complex::new(c, 0.0), Complex::new(0.0, -s)],
                    [Complex::new(0.0, -s), Complex::new(c, 0.0)],
                ],
            );
        }
        Gate::Ry(q, t) => {
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            apply_1q_naive(
                amps,
                q.index(),
                [
                    [Complex::new(c, 0.0), Complex::new(-s, 0.0)],
                    [Complex::new(s, 0.0), Complex::new(c, 0.0)],
                ],
            );
        }
        Gate::Rz(q, t) => {
            let m = 1usize << q.index();
            let lo = Complex::cis(-t / 2.0);
            let hi = Complex::cis(t / 2.0);
            for (x, a) in amps.iter_mut().enumerate() {
                *a = *a * if x & m == 0 { lo } else { hi };
            }
        }
        Gate::Cnot(c, t) => {
            let (mc, mt) = (1usize << c.index(), 1usize << t.index());
            for x in 0..amps.len() {
                if x & mc != 0 && x & mt == 0 {
                    amps.swap(x, x | mt);
                }
            }
        }
        Gate::Cz(a, b) => {
            let m = (1usize << a.index()) | (1usize << b.index());
            for (x, amp) in amps.iter_mut().enumerate() {
                if x & m == m {
                    *amp = -*amp;
                }
            }
        }
        Gate::Cphase(a, b, lambda) => {
            let m = (1usize << a.index()) | (1usize << b.index());
            let phase = Complex::cis(lambda);
            for (x, amp) in amps.iter_mut().enumerate() {
                if x & m == m {
                    *amp = *amp * phase;
                }
            }
        }
        Gate::Zz(a, b, t) => {
            let (ma, mb) = (1usize << a.index(), 1usize << b.index());
            let same = Complex::cis(-t / 2.0);
            let diff = Complex::cis(t / 2.0);
            for (x, amp) in amps.iter_mut().enumerate() {
                let parity = ((x & ma != 0) as u8) ^ ((x & mb != 0) as u8);
                *amp = *amp * if parity == 0 { same } else { diff };
            }
        }
        Gate::Xx(a, b, t) => {
            let mask = (1usize << a.index()) | (1usize << b.index());
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            let cos = Complex::new(c, 0.0);
            let isin = Complex::new(0.0, -s);
            for x in 0..amps.len() {
                let y = x ^ mask;
                if x < y {
                    let (ax, ay) = (amps[x], amps[y]);
                    amps[x] = cos * ax + isin * ay;
                    amps[y] = cos * ay + isin * ax;
                }
            }
        }
        Gate::Swap(a, b) => {
            let (ma, mb) = (1usize << a.index(), 1usize << b.index());
            for x in 0..amps.len() {
                if x & ma != 0 && x & mb == 0 {
                    amps.swap(x, (x & !ma) | mb);
                }
            }
        }
        Gate::Toffoli(c0, c1, t) => {
            let (m0, m1, mt) = (
                1usize << c0.index(),
                1usize << c1.index(),
                1usize << t.index(),
            );
            for x in 0..amps.len() {
                if x & m0 != 0 && x & m1 != 0 && x & mt == 0 {
                    amps.swap(x, x | mt);
                }
            }
        }
    }
}

/// The seed's general single-qubit application: full scan with a
/// bit-test branch.
fn apply_1q_naive(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]) {
    let mask = 1usize << q;
    for x in 0..amps.len() {
        if x & mask == 0 {
            let y = x | mask;
            let (a0, a1) = (amps[x], amps[y]);
            amps[x] = m[0][0] * a0 + m[0][1] * a1;
            amps[y] = m[1][0] * a0 + m[1][1] * a1;
        }
    }
}

/// The seed's conditional phase: full scan multiplying where bit `q`
/// is set.
fn phase_if(amps: &mut [Complex], q: usize, phase: Complex) {
    let mask = 1usize << q;
    for (x, amp) in amps.iter_mut().enumerate() {
        if x & mask != 0 {
            *amp = *amp * phase;
        }
    }
}
