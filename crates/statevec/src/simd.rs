//! Explicit-SIMD kernel tier: AVX2+FMA implementations of the hot
//! pair-indexed loops, selected at runtime.
//!
//! The scalar kernels in [`crate::kernels`] are already branch-free
//! loops over contiguous memory, but the auto-vectorizer cannot use the
//! interleaved-complex trick this module is built on: two `Complex`
//! amplitudes are one `__m256d` of four `f64` lanes
//! `[re0, im0, re1, im1]`, and a complex multiply is one lane swap, one
//! multiply, and one `fmaddsub` (`a·b ∓ c` on even/odd lanes) — no
//! shuffle-heavy de-interleaving. [`Complex`] is `repr(C)` with a
//! compile-time size/alignment assertion precisely so this
//! reinterpretation is defined.
//!
//! # Dispatch
//!
//! [`tier`] resolves once per process:
//!
//! * `avx2_fma` — x86-64 host where `is_x86_feature_detected!` reports
//!   both `avx2` and `fma`;
//! * `scalar` — everything else, or when the `TILT_SIMD` environment
//!   variable is set to `off`/`0`/`scalar` (the bisection override: a
//!   suspected kernel regression can be pinned to dispatch by rerunning
//!   with `TILT_SIMD=off`).
//!
//! The resolved tier is recorded in `bench/ledger.jsonl` (field
//! `same_run.kernel_tier`), and [`force_scalar`] lets tests, the
//! same-run speedup gate among them, compare both tiers inside one
//! process. Every entry point here has the matching scalar kernel as
//! its portable fallback and is pinned equivalent at 1e-12 by
//! `tests/statevec_kernel_equivalence.rs` under both tiers.
//!
//! # Cache blocking
//!
//! For a high-stride target qubit the pair planes `lo` and `hi` sit
//! `stride · 16` bytes apart. The diagonal kernels used to sweep the
//! full `lo` plane and then the full `hi` plane — two passes whose
//! working set each exceed L1 once `stride` passes a few thousand
//! amplitudes. The SIMD tier instead walks both planes in
//! [`L1_TILE`]-sized tiles (`lo[t..t+T]` then `hi[t..t+T]`), so the two
//! write streams stay within one L1 footprint of each other and the
//! hardware prefetcher sees two short dense streams instead of two long
//! alternating ones.

use crate::complex::Complex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The kernel implementation a process dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `std::arch` AVX2+FMA intrinsics (x86-64 with runtime-detected
    /// `avx2` and `fma`).
    Avx2Fma,
    /// The portable scalar kernels of [`crate::kernels`].
    Scalar,
}

impl Tier {
    /// The stable name recorded in bench records (`avx2_fma` /
    /// `scalar`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Avx2Fma => "avx2_fma",
            Tier::Scalar => "scalar",
        }
    }
}

static TIER: OnceLock<Tier> = OnceLock::new();

/// Process-wide scalar override, below the detected tier: lets one
/// process benchmark/test both tiers (see [`force_scalar`]).
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn detect() -> Tier {
    if let Ok(v) = std::env::var("TILT_SIMD") {
        if matches!(v.as_str(), "off" | "0" | "scalar") {
            return Tier::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Tier::Avx2Fma;
        }
    }
    Tier::Scalar
}

/// The kernel tier this process resolved (detected once, then cached).
/// [`force_scalar`] is reported: with the override armed this returns
/// [`Tier::Scalar`].
pub fn tier() -> Tier {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return Tier::Scalar;
    }
    *TIER.get_or_init(detect)
}

/// [`tier`]'s stable name — the `same_run.kernel_tier` field of the
/// bench ledger.
pub fn tier_name() -> &'static str {
    tier().name()
}

/// Forces the scalar tier on (`true`) or restores detection (`false`).
///
/// A test hook: the equivalence suites and the same-run speedup gate
/// use it to run both tiers in one process. Takes effect on the next kernel
/// call; not intended for use while kernels run on other threads.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// `true` when kernel entry points should take the AVX2+FMA path.
#[inline]
pub(crate) fn active() -> bool {
    tier() == Tier::Avx2Fma
}

/// Serializes tests that toggle [`force_scalar`] against tests that
/// compare kernel outputs bitwise — the dispatch tier is process-global,
/// so a mid-comparison toggle from a concurrently running test would
/// mix tiers across the two runs being compared.
#[doc(hidden)]
pub fn test_tier_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tile length, in complex amplitudes, for cache-blocked plane sweeps:
/// 1024 amplitudes = 16 KiB per plane, so a lo+hi tile pair (32 KiB)
/// fits a typical L1d.
pub(crate) const L1_TILE: usize = 1 << 10;

// Safe shims over the `target_feature` functions. Callers must have
// checked `active()`; on non-x86-64 targets `active()` is always false
// and these bodies are unreachable.

macro_rules! shim {
    ($(fn $name:ident($($arg:ident: $ty:ty),*);)*) => {
        $(
            #[inline]
            #[allow(unused_variables)]
            pub(crate) fn $name($($arg: $ty),*) {
                debug_assert!(active(), "SIMD kernel called with scalar tier resolved");
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `active()` established avx2+fma at runtime.
                unsafe { avx::$name($($arg),*) }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("SIMD tier is never active off x86-64")
            }
        )*
    };
}

shim! {
    fn apply_1q(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]);
    fn apply_1q_zip(lo: &mut [Complex], hi: &mut [Complex], m: [[Complex; 2]; 2]);
    fn apply_2q(amps: &mut [Complex], qlo: usize, qhi: usize, m: [[Complex; 4]; 4]);
    fn diag_1q(amps: &mut [Complex], q: usize, p0: Complex, p1: Complex);
    fn phase_1q(amps: &mut [Complex], q: usize, phase: Complex);
    fn scale_all(amps: &mut [Complex], factor: Complex);
    fn sweep_table(amps: &mut [Complex], table: &[Complex]);
    fn rotate_zip(xs: &mut [Complex], ys: &mut [Complex], cos: Complex, isin: Complex);
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::L1_TILE;
    use crate::complex::Complex;
    use std::arch::x86_64::*;

    /// Loads two consecutive complexes as `[re0, im0, re1, im1]`.
    ///
    /// # Safety
    /// `p` must be valid for reading 2 `Complex` (4 `f64`); alignment
    /// beyond `f64`'s is not required (unaligned load).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load2(p: *const Complex) -> __m256d {
        // SAFETY: caller guarantees `p` is readable for 2 `Complex`;
        // `Complex` is `repr(C)` `{ re: f64, im: f64 }`, so 2 of them
        // are exactly 4 contiguous `f64` and the unaligned load needs
        // no further alignment.
        unsafe { _mm256_loadu_pd(p as *const f64) }
    }

    /// Stores `[re0, im0, re1, im1]` over two consecutive complexes.
    ///
    /// # Safety
    /// `p` must be valid for writing 2 `Complex`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store2(p: *mut Complex, v: __m256d) {
        // SAFETY: caller guarantees `p` is writable for 2 `Complex`
        // (4 contiguous `f64`); unaligned store.
        unsafe { _mm256_storeu_pd(p as *mut f64, v) }
    }

    /// A scalar complex broadcast into both 128-bit halves:
    /// `[re, im, re, im]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn broadcast(c: Complex) -> __m256d {
        _mm256_setr_pd(c.re, c.im, c.re, c.im)
    }

    /// Lanewise complex multiply of two interleaved-complex vectors:
    /// for each 128-bit half `(ar, ai)·(br, bi)`.
    ///
    /// `fmaddsub(a, bre, t)` computes `a·bre − t` on even lanes and
    /// `a·bre + t` on odd lanes, which with `t = swap(a)·bim` is exactly
    /// `(ar·br − ai·bi, ai·br + ar·bi)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cmul(a: __m256d, b: __m256d) -> __m256d {
        let bre = _mm256_movedup_pd(b); // [br, br, br, br] per half
        let bim = _mm256_permute_pd(b, 0xF); // [bi, bi, bi, bi] per half
        let aswap = _mm256_permute_pd(a, 0x5); // [ai, ar, ai, ar]
        _mm256_fmaddsub_pd(a, bre, _mm256_mul_pd(aswap, bim))
    }

    /// `acc + a·b` (lanewise complex), fused where the ISA allows.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cmul_add(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: pure register arithmetic under the same
        // target-feature contract as this fn.
        unsafe { _mm256_add_pd(acc, cmul(a, b)) }
    }

    /// Multiplies every amplitude of `amps` by the constant `factor`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_all(amps: &mut [Complex], factor: Complex) {
        // SAFETY: register-only broadcast under this fn's features.
        let f = unsafe { broadcast(factor) };
        let n = amps.len() & !1;
        let p = amps.as_mut_ptr();
        let mut i = 0;
        while i < n {
            // SAFETY: `i + 1 < amps.len()` (n is len rounded down to
            // even), so `p.add(i)` covers two in-bounds amplitudes of
            // the exclusively borrowed slice.
            unsafe { store2(p.add(i), cmul(load2(p.add(i)), f)) };
            i += 2;
        }
        if n < amps.len() {
            amps[n] = amps[n] * factor;
        }
    }

    /// Elementwise multiply by a table whose length divides the
    /// chunking (the batched diagonal run's leaf sweep). Tables are
    /// power-of-two sized, so a table of length ≥ 2 vectorizes exactly;
    /// a length-1 table is a plain scale.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep_table(amps: &mut [Complex], table: &[Complex]) {
        let t = table.len();
        if t < 2 {
            if let Some(&f) = table.first() {
                // SAFETY: same slice, same feature contract.
                unsafe { scale_all(amps, f) };
            }
            return;
        }
        let tp = table.as_ptr();
        for chunk in amps.chunks_exact_mut(t) {
            let p = chunk.as_mut_ptr();
            let mut i = 0;
            while i < t {
                // SAFETY: `i + 1 < t`, `t` even (power of two ≥ 2), so
                // both `p.add(i)` (chunk of length t) and `tp.add(i)`
                // (table of length t) cover two in-bounds amplitudes.
                unsafe { store2(p.add(i), cmul(load2(p.add(i)), load2(tp.add(i)))) };
                i += 2;
            }
        }
    }

    /// Multiplies a contiguous run by a constant — the tile primitive
    /// of the diagonal kernels.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale_run(p: *mut Complex, len: usize, f: __m256d, scalar: Complex) {
        let n = len & !1;
        let mut i = 0;
        while i < n {
            // SAFETY: caller guarantees `p..p+len` is exclusively
            // writable; `i + 1 < len`, so the two-amplitude access
            // stays inside the run.
            unsafe { store2(p.add(i), cmul(load2(p.add(i)), f)) };
            i += 2;
        }
        if n < len {
            // SAFETY: `n < len`, in-bounds of the caller's run; no
            // other reference aliases it.
            let a = unsafe { &mut *p.add(n) };
            *a = *a * scalar;
        }
    }

    /// `diag(p0, p1)` on qubit `q`: cache-blocked plane sweeps. Within
    /// each `2^(q+1)` block the lo/hi planes are walked in [`L1_TILE`]
    /// pieces — `lo[t..t+T]` then `hi[t..t+T]` — instead of two full
    /// passes `stride` apart.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn diag_1q(amps: &mut [Complex], q: usize, p0: Complex, p1: Complex) {
        let stride = 1usize << q;
        // SAFETY: register-only broadcasts under this fn's features.
        let (f0, f1) = unsafe { (broadcast(p0), broadcast(p1)) };
        for block in amps.chunks_exact_mut(2 * stride) {
            let base = block.as_mut_ptr();
            let mut t = 0;
            while t < stride {
                let tile = L1_TILE.min(stride - t);
                // SAFETY: `t + tile <= stride`, so both runs —
                // `[t, t+tile)` in the lo plane and
                // `[stride+t, stride+t+tile)` in the hi plane — stay
                // inside this exclusively borrowed 2·stride block.
                unsafe {
                    scale_run(base.add(t), tile, f0, p0);
                    scale_run(base.add(stride + t), tile, f1, p1);
                }
                t += tile;
            }
        }
    }

    /// Multiplies every amplitude with bit `q` set by `phase` (the hi
    /// plane only; the lo plane is untouched, so no tiling partner).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn phase_1q(amps: &mut [Complex], q: usize, phase: Complex) {
        let stride = 1usize << q;
        // SAFETY: register-only broadcast under this fn's features.
        let f = unsafe { broadcast(phase) };
        for block in amps.chunks_exact_mut(2 * stride) {
            // SAFETY: the hi plane `[stride, 2·stride)` of this
            // exclusively borrowed 2·stride block.
            unsafe { scale_run(block.as_mut_ptr().add(stride), stride, f, phase) };
        }
    }

    /// The 2×2 rotation of zipped planes: `lo[i], hi[i]` become
    /// `m·(lo[i], hi[i])`. Planes must have equal length ≥ 1.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply_1q_zip(
        lo: &mut [Complex],
        hi: &mut [Complex],
        m: [[Complex; 2]; 2],
    ) {
        debug_assert_eq!(lo.len(), hi.len());
        // SAFETY: register-only broadcasts under this fn's features.
        let (m00, m01, m10, m11) = unsafe {
            (
                broadcast(m[0][0]),
                broadcast(m[0][1]),
                broadcast(m[1][0]),
                broadcast(m[1][1]),
            )
        };
        let len = lo.len();
        let n = len & !1;
        let (lp, hp) = (lo.as_mut_ptr(), hi.as_mut_ptr());
        let mut i = 0;
        while i < n {
            // SAFETY: `i + 1 < len` for both equal-length, disjoint,
            // exclusively borrowed planes, so each two-amplitude
            // load/store is in-bounds and non-aliasing.
            unsafe {
                let x = load2(lp.add(i));
                let y = load2(hp.add(i));
                store2(lp.add(i), cmul_add(cmul(x, m00), y, m01));
                store2(hp.add(i), cmul_add(cmul(x, m10), y, m11));
            }
            i += 2;
        }
        if n < len {
            let (x, y) = (lo[n], hi[n]);
            lo[n] = m[0][0] * x + m[0][1] * y;
            hi[n] = m[1][0] * x + m[1][1] * y;
        }
    }

    /// Applies the 2×2 matrix `m` to target `q`.
    ///
    /// `q = 0` pairs are interleaved in memory (`[x, y]` is one
    /// vector), so each block is processed whole: duplicate `x` and `y`
    /// across halves and combine with the matrix *columns*
    /// (`[m00, m10]`, `[m01, m11]`), producing `[x', y']` in one store.
    /// For `q ≥ 1` the planes are contiguous and zip in L1 tiles.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply_1q(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]) {
        if q == 0 {
            let col0 = _mm256_setr_pd(m[0][0].re, m[0][0].im, m[1][0].re, m[1][0].im);
            let col1 = _mm256_setr_pd(m[0][1].re, m[0][1].im, m[1][1].re, m[1][1].im);
            let n = amps.len();
            let p = amps.as_mut_ptr();
            let mut i = 0;
            while i < n {
                // SAFETY: the statevector length is a power of two ≥ 2,
                // so `i + 1 < n` and `p.add(i)` covers one in-bounds
                // `[x, y]` pair of the exclusively borrowed slice.
                unsafe {
                    let v = load2(p.add(i));
                    let x = _mm256_permute2f128_pd(v, v, 0x00); // [x, x]
                    let y = _mm256_permute2f128_pd(v, v, 0x11); // [y, y]
                    store2(p.add(i), cmul_add(cmul(x, col0), y, col1));
                }
                i += 2;
            }
            return;
        }
        let stride = 1usize << q;
        for block in amps.chunks_exact_mut(2 * stride) {
            let (lo, hi) = block.split_at_mut(stride);
            let mut t = 0;
            while t < stride {
                let tile = L1_TILE.min(stride - t);
                // SAFETY: equal-length disjoint reborrows of this
                // block's planes, same feature contract.
                unsafe { apply_1q_zip(&mut lo[t..t + tile], &mut hi[t..t + tile], m) };
                t += tile;
            }
        }
    }

    /// The symmetric `[[cos, isin], [isin, cos]]` rotation of zipped
    /// runs (the `XX(θ)` orbit kernel).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rotate_zip(
        xs: &mut [Complex],
        ys: &mut [Complex],
        cos: Complex,
        isin: Complex,
    ) {
        // SAFETY: forwards the caller's equal-length disjoint planes
        // under the same feature contract.
        unsafe { apply_1q_zip(xs, ys, [[cos, isin], [isin, cos]]) };
    }

    /// Applies a general 4×4 matrix to the pair `(qlo, qhi)`,
    /// `qlo < qhi`, `v = bit(qlo) + 2·bit(qhi)`.
    ///
    /// `qlo = 0` keeps the `(v=0, v=1)` and `(v=2, v=3)` members
    /// adjacent in memory, so the block is combined column-wise like
    /// the interleaved 1q case; `qlo ≥ 1` zips four contiguous runs.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply_2q(
        amps: &mut [Complex],
        qlo: usize,
        qhi: usize,
        m: [[Complex; 4]; 4],
    ) {
        let (slo, shi) = (1usize << qlo, 1usize << qhi);
        if qlo == 0 {
            // Row-pair columns: colab[j] = [m[a][j], m[b][j]].
            let col = |a: usize, b: usize, j: usize| {
                _mm256_setr_pd(m[a][j].re, m[a][j].im, m[b][j].re, m[b][j].im)
            };
            let c01: [__m256d; 4] = [col(0, 1, 0), col(0, 1, 1), col(0, 1, 2), col(0, 1, 3)];
            let c23: [__m256d; 4] = [col(2, 3, 0), col(2, 3, 1), col(2, 3, 2), col(2, 3, 3)];
            for block in amps.chunks_exact_mut(2 * shi) {
                let (lo, hi) = block.split_at_mut(shi);
                let (lp, hp) = (lo.as_mut_ptr(), hi.as_mut_ptr());
                let mut i = 0;
                while i < shi {
                    // SAFETY: `shi` is a power of two ≥ 2 (qhi > qlo =
                    // 0), so `i + 1 < shi` and both two-amplitude
                    // accesses hit the disjoint, exclusively borrowed
                    // lo/hi planes in-bounds.
                    unsafe {
                        let v01 = load2(lp.add(i)); // [a0, a1]
                        let v23 = load2(hp.add(i)); // [a2, a3]
                        let a0 = _mm256_permute2f128_pd(v01, v01, 0x00);
                        let a1 = _mm256_permute2f128_pd(v01, v01, 0x11);
                        let a2 = _mm256_permute2f128_pd(v23, v23, 0x00);
                        let a3 = _mm256_permute2f128_pd(v23, v23, 0x11);
                        let lo_out = cmul_add(
                            cmul_add(cmul_add(cmul(a0, c01[0]), a1, c01[1]), a2, c01[2]),
                            a3,
                            c01[3],
                        );
                        let hi_out = cmul_add(
                            cmul_add(cmul_add(cmul(a0, c23[0]), a1, c23[1]), a2, c23[2]),
                            a3,
                            c23[3],
                        );
                        store2(lp.add(i), lo_out);
                        store2(hp.add(i), hi_out);
                    }
                    i += 2;
                }
            }
            return;
        }
        // SAFETY: register-only broadcasts under this fn's features.
        let mb: [[__m256d; 4]; 4] = unsafe {
            [
                [
                    broadcast(m[0][0]),
                    broadcast(m[0][1]),
                    broadcast(m[0][2]),
                    broadcast(m[0][3]),
                ],
                [
                    broadcast(m[1][0]),
                    broadcast(m[1][1]),
                    broadcast(m[1][2]),
                    broadcast(m[1][3]),
                ],
                [
                    broadcast(m[2][0]),
                    broadcast(m[2][1]),
                    broadcast(m[2][2]),
                    broadcast(m[2][3]),
                ],
                [
                    broadcast(m[3][0]),
                    broadcast(m[3][1]),
                    broadcast(m[3][2]),
                    broadcast(m[3][3]),
                ],
            ]
        };
        for block in amps.chunks_exact_mut(2 * shi) {
            let (lo, hi) = block.split_at_mut(shi);
            for (lc, hc) in lo
                .chunks_exact_mut(2 * slo)
                .zip(hi.chunks_exact_mut(2 * slo))
            {
                let (l0, l1) = lc.split_at_mut(slo);
                let (h0, h1) = hc.split_at_mut(slo);
                let p = [
                    l0.as_mut_ptr(),
                    l1.as_mut_ptr(),
                    h0.as_mut_ptr(),
                    h1.as_mut_ptr(),
                ];
                let mut i = 0;
                while i < slo {
                    // SAFETY: `slo` is a power of two ≥ 2 (qlo ≥ 1), so
                    // `i + 1 < slo`; the four runs are disjoint
                    // `slo`-length split-offs of this exclusively
                    // borrowed block, so every two-amplitude access is
                    // in-bounds and non-aliasing.
                    unsafe {
                        let v = [
                            load2(p[0].add(i)),
                            load2(p[1].add(i)),
                            load2(p[2].add(i)),
                            load2(p[3].add(i)),
                        ];
                        for r in 0..4 {
                            let acc = cmul_add(
                                cmul_add(
                                    cmul_add(cmul(v[0], mb[r][0]), v[1], mb[r][1]),
                                    v[2],
                                    mb[r][2],
                                ),
                                v[3],
                                mb[r][3],
                            );
                            store2(p[r].add(i), acc);
                        }
                    }
                    i += 2;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_name_is_stable() {
        assert!(matches!(tier_name(), "avx2_fma" | "scalar"));
    }

    #[test]
    fn force_scalar_overrides_detection() {
        let _guard = test_tier_lock();
        force_scalar(true);
        assert_eq!(tier(), Tier::Scalar);
        assert!(!active());
        force_scalar(false);
        assert_eq!(tier(), *TIER.get_or_init(detect));
    }
}
