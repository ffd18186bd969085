//! Pair-indexed gate kernels.
//!
//! Every kernel here avoids the naive pattern of scanning all `2^n`
//! basis indices and branching on bit tests. Instead the amplitude
//! array is decomposed *structurally* around the operand qubits:
//!
//! * For a target qubit `q`, the array splits into contiguous blocks of
//!   `2^(q+1)` amplitudes whose lower half has bit `q = 0` and upper
//!   half has bit `q = 1`. Zipping the halves enumerates exactly the
//!   `2^(n-1)` amplitude pairs `(x, x | 2^q)` with no bit tests — the
//!   block/offset decomposition is the `low | (high << (q+1))` splice
//!   expressed as slice arithmetic, which the optimizer turns into
//!   branch-free, vectorizable loops over contiguous memory.
//! * Diagonal gates (`Rz`, `S`, `T`, `CZ`, `CPhase`, `ZZ`) never touch
//!   amplitudes they would multiply by 1: they sweep only the affected
//!   sub-runs, with the one or two phase factors computed **once**, not
//!   per amplitude.
//! * Permutation gates (`CNOT`, `SWAP`, `Toffoli`) move whole
//!   contiguous runs with `swap_with_slice` (memcpy speed) whenever the
//!   run structure allows.
//!
//! # One thread
//!
//! Every kernel runs on the calling thread, over the whole array. The
//! crate checks routed circuits at small width; it is not a
//! performance simulator, so a state of `2^16` amplitudes or more gets
//! no multi-core speedup.
//!
//! # Dispatch tiers
//!
//! The arithmetic-heavy kernels (`apply_1q`, `diag_1q`, `phase_1q` and
//! `xx_rotate`) resolve their instruction tier per call: the
//! explicit-SIMD implementation when [`crate::simd`] resolves the
//! `avx2_fma` tier, otherwise a private portable scalar body. Tests pin the two tiers
//! against each other with [`crate::simd::force_scalar`]. The
//! permutation kernels move memory rather than compute and stay scalar
//! (`swap_with_slice` is already memcpy-speed).

use crate::complex::Complex;
use crate::simd;

/// Every kernel refuses operands outside the register, matching the
/// naive path's (and `State::apply`'s documented) panic instead of
/// silently applying nothing when the operand stride exceeds the
/// amplitude array.
#[inline]
fn assert_in_register(len: usize, stride: usize) {
    assert!(
        stride < len,
        "gate operand outside the register ({len} amplitudes)"
    );
}

// --- single-qubit kernels -------------------------------------------------

/// Applies the 2×2 matrix `m` to target `q`.
pub fn apply_1q(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]) {
    let stride = 1usize << q;
    assert_in_register(amps.len(), stride);
    if simd::active() {
        simd::apply_1q(amps, q, m);
    } else {
        apply_1q_scalar(amps, q, m);
    }
}

/// Portable scalar body of [`apply_1q`]: serial pair-indexed loop.
fn apply_1q_scalar(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]) {
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a0, *a1);
            *a0 = m[0][0] * x + m[0][1] * y;
            *a1 = m[1][0] * x + m[1][1] * y;
        }
    }
}

/// Multiplies every amplitude whose bit `q` is set by `phase`
/// (the `diag(1, phase)` gate: `Z`, `S`, `T`, …).
pub fn phase_1q(amps: &mut [Complex], q: usize, phase: Complex) {
    let stride = 1usize << q;
    assert_in_register(amps.len(), stride);
    if simd::active() {
        simd::phase_1q(amps, q, phase);
    } else {
        phase_1q_scalar(amps, q, phase);
    }
}

/// Portable scalar body of [`phase_1q`].
fn phase_1q_scalar(amps: &mut [Complex], q: usize, phase: Complex) {
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(2 * stride) {
        for a in &mut block[stride..] {
            *a = *a * phase;
        }
    }
}

/// `diag(p0, p1)` on qubit `q` — both factors precomputed (`Rz`). The
/// SIMD tier cache-blocks the two plane sweeps.
pub fn diag_1q(amps: &mut [Complex], q: usize, p0: Complex, p1: Complex) {
    let stride = 1usize << q;
    assert_in_register(amps.len(), stride);
    if simd::active() {
        simd::diag_1q(amps, q, p0, p1);
    } else {
        diag_1q_scalar(amps, q, p0, p1);
    }
}

/// Portable scalar body of [`diag_1q`]: two full plane passes.
fn diag_1q_scalar(amps: &mut [Complex], q: usize, p0: Complex, p1: Complex) {
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for a in lo {
            *a = *a * p0;
        }
        for a in hi {
            *a = *a * p1;
        }
    }
}

// --- two-qubit diagonal kernels -------------------------------------------

/// Multiplies every amplitude with **both** bits `a` and `b` set by
/// `phase` (`CZ`, `CPhase`). Touches exactly `2^(n-2)` amplitudes.
pub fn phase_both(amps: &mut [Complex], a: usize, b: usize, phase: Complex) {
    let (qlo, qhi) = (a.min(b), a.max(b));
    let stride_hi = 1usize << qhi;
    assert_in_register(amps.len(), stride_hi);
    for block in amps.chunks_exact_mut(2 * stride_hi) {
        // Upper half has bit qhi set; within it, sweep bit qlo set.
        phase_1q(&mut block[stride_hi..], qlo, phase);
    }
}

/// `ZZ(θ)`-style parity phase: amplitudes where bits `a` and `b` agree
/// get `same`, where they differ get `diff`. Runs are contiguous with
/// per-run constant factors — no per-amplitude parity computation.
pub fn phase_parity(amps: &mut [Complex], a: usize, b: usize, same: Complex, diff: Complex) {
    let (qlo, qhi) = (a.min(b), a.max(b));
    let stride_hi = 1usize << qhi;
    assert_in_register(amps.len(), stride_hi);
    for block in amps.chunks_exact_mut(2 * stride_hi) {
        let (lo, hi) = block.split_at_mut(stride_hi);
        diag_1q(lo, qlo, same, diff);
        diag_1q(hi, qlo, diff, same);
    }
}

// --- permutation kernels --------------------------------------------------

/// X on target `t` controlled on every bit of `ctrl_mask` being set
/// (`ctrl_mask == 0` is a plain X; one bit is CNOT; two bits Toffoli).
///
/// Swaps the `t=0` / `t=1` amplitudes of every basis state satisfying
/// the controls, moving whole contiguous runs where possible.
pub fn controlled_x(amps: &mut [Complex], ctrl_mask: usize, t: usize) {
    let stride = 1usize << t;
    assert_in_register(amps.len(), stride.max(ctrl_mask));
    let low_ctrl = ctrl_mask & (stride - 1);
    let high_ctrl = ctrl_mask & !(2 * stride - 1);
    debug_assert_eq!(low_ctrl | high_ctrl, ctrl_mask, "control on target bit");
    for (bi, block) in amps.chunks_exact_mut(2 * stride).enumerate() {
        if (bi * 2 * stride) & high_ctrl != high_ctrl {
            continue;
        }
        let (lo, hi) = block.split_at_mut(stride);
        if low_ctrl == 0 {
            lo.swap_with_slice(hi);
        } else {
            // Only offsets with every low control bit set participate.
            swap_masked(lo, hi, low_ctrl);
        }
    }
}

/// Swaps `lo[j] ↔ hi[j]` for every offset `j` with all bits of `mask`
/// set, moving the longest contiguous runs the mask allows.
fn swap_masked(lo: &mut [Complex], hi: &mut [Complex], mask: usize) {
    // Runs below the lowest control bit are contiguous.
    let run = 1usize << mask.trailing_zeros();
    let step = 2 * run;
    let mut j = run; // first offset with the lowest control bit set
    while j < lo.len() {
        if j & mask == mask {
            lo[j..j + run].swap_with_slice(&mut hi[j..j + run]);
        }
        j += step;
    }
}

/// SWAP of qubits `a` and `b`: exchanges the `(a=1, b=0)` and
/// `(a=0, b=1)` amplitude sets as contiguous runs.
pub fn swap_qubits(amps: &mut [Complex], a: usize, b: usize) {
    let (qlo, qhi) = (a.min(b), a.max(b));
    let (slo, shi) = (1usize << qlo, 1usize << qhi);
    assert_in_register(amps.len(), shi);
    for block in amps.chunks_exact_mut(2 * shi) {
        let (lo, hi) = block.split_at_mut(shi);
        // lo: bit qhi = 0; hi: bit qhi = 1. Swap lo's qlo=1 runs
        // with hi's qlo=0 runs.
        for (lc, hc) in lo
            .chunks_exact_mut(2 * slo)
            .zip(hi.chunks_exact_mut(2 * slo))
        {
            let (_, l1) = lc.split_at_mut(slo);
            let (h0, _) = hc.split_at_mut(slo);
            l1.swap_with_slice(h0);
        }
    }
}

// --- the XX Mølmer–Sørensen kernel ----------------------------------------

/// `XX(θ) = exp(-iθ/2·X⊗X)` on qubits `a`, `b`: rotates the amplitude
/// pairs `(x, x ^ (2^a | 2^b))` by `cos = cos(θ/2)`,
/// `isin = -i·sin(θ/2)`, both precomputed by the caller.
pub fn xx_rotate(amps: &mut [Complex], a: usize, b: usize, cos: Complex, isin: Complex) {
    let (qlo, qhi) = (a.min(b), a.max(b));
    let (slo, shi) = (1usize << qlo, 1usize << qhi);
    assert_in_register(amps.len(), shi);
    for block in amps.chunks_exact_mut(2 * shi) {
        let (lo, hi) = block.split_at_mut(shi);
        for (lc, hc) in lo
            .chunks_exact_mut(2 * slo)
            .zip(hi.chunks_exact_mut(2 * slo))
        {
            let (l0, l1) = lc.split_at_mut(slo);
            let (h0, h1) = hc.split_at_mut(slo);
            // Orbits: (qlo=0,qhi=0) ↔ (1,1) and (1,0) ↔ (0,1).
            rotate_zip(l0, h1, cos, isin);
            rotate_zip(l1, h0, cos, isin);
        }
    }
}

/// Applies the symmetric 2×2 rotation `[[cos, isin], [isin, cos]]` to
/// zipped slices, picking the tier (runs of one amplitude — `qlo = 0`
/// orbits — stay scalar; there is nothing to vectorize).
#[inline]
fn rotate_zip(xs: &mut [Complex], ys: &mut [Complex], cos: Complex, isin: Complex) {
    if simd::active() && xs.len() >= 2 {
        simd::rotate_zip(xs, ys, cos, isin);
    } else {
        for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
            let (ax, ay) = (*x, *y);
            *x = cos * ax + isin * ay;
            *y = cos * ay + isin * ax;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amp(re: f64) -> Complex {
        Complex::new(re, 0.0)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n).map(|i| amp(i as f64)).collect()
    }

    #[test]
    fn phase_both_hits_exactly_the_11_subspace() {
        let mut v = ramp(16);
        phase_both(&mut v, 0, 2, Complex::new(-1.0, 0.0));
        for (x, a) in v.iter().enumerate() {
            let expect = if x & 0b101 == 0b101 {
                -(x as f64)
            } else {
                x as f64
            };
            assert_eq!(a.re, expect, "index {x}");
        }
    }

    #[test]
    fn controlled_x_is_cnot() {
        for (c, t) in [(0usize, 2usize), (2, 0), (1, 3), (3, 1)] {
            let mut v = ramp(16);
            controlled_x(&mut v, 1 << c, t);
            for (x, a) in v.iter().enumerate() {
                let src = if x & (1 << c) != 0 { x ^ (1 << t) } else { x };
                assert_eq!(a.re, src as f64, "c={c} t={t} index {x}");
            }
        }
    }

    #[test]
    fn controlled_x_two_controls_is_toffoli() {
        let mut v = ramp(8);
        controlled_x(&mut v, 0b011, 2);
        for (x, a) in v.iter().enumerate() {
            let src = if x & 0b011 == 0b011 { x ^ 0b100 } else { x };
            assert_eq!(a.re, src as f64, "index {x}");
        }
    }

    #[test]
    fn swap_qubits_permutes_indices() {
        for (a, b) in [(0usize, 1usize), (0, 3), (2, 3), (3, 0)] {
            let mut v = ramp(16);
            swap_qubits(&mut v, a, b);
            for (x, amp_x) in v.iter().enumerate() {
                let ba = (x >> a) & 1;
                let bb = (x >> b) & 1;
                let src = (x & !(1 << a) & !(1 << b)) | (bb << a) | (ba << b);
                assert_eq!(amp_x.re, src as f64, "a={a} b={b} index {x}");
            }
        }
    }

    #[test]
    fn parity_phase_matches_bit_arithmetic() {
        let mut v = ramp(32);
        let same = Complex::cis(0.3);
        let diff = Complex::cis(-0.3);
        phase_parity(&mut v, 1, 3, same, diff);
        for (x, a) in v.iter().enumerate() {
            let p = ((x >> 1) ^ (x >> 3)) & 1;
            let expect = amp(x as f64) * if p == 0 { same } else { diff };
            assert!((a.re - expect.re).abs() < 1e-12 && (a.im - expect.im).abs() < 1e-12);
        }
    }
}
