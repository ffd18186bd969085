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
//! process. Every entry point here has a matching private scalar body
//! in [`crate::kernels`] as its portable fallback, and the public
//! kernels are pinned equivalent at 1e-12 by
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
    fn diag_1q(amps: &mut [Complex], q: usize, p0: Complex, p1: Complex);
    fn phase_1q(amps: &mut [Complex], q: usize, phase: Complex);
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

    /// Multiplies a contiguous run by a constant — the tile primitive
    /// of the diagonal kernels (`f` is `scalar` broadcast).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale(run: &mut [Complex], f: __m256d, scalar: Complex) {
        let n = run.len() & !1;
        let p = run.as_mut_ptr();
        let mut i = 0;
        while i < n {
            // SAFETY: `i + 1 < run.len()` (n is the length rounded down
            // to even), so `p.add(i)` covers two in-bounds amplitudes of
            // the exclusively borrowed run.
            unsafe { store2(p.add(i), cmul(load2(p.add(i)), f)) };
            i += 2;
        }
        if let Some(a) = run.get_mut(n) {
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
            let (lo, hi) = block.split_at_mut(stride);
            let mut t = 0;
            while t < stride {
                let tile = L1_TILE.min(stride - t);
                // SAFETY: disjoint in-bounds reborrows of this block's
                // planes, same feature contract.
                unsafe {
                    scale(&mut lo[t..t + tile], f0, p0);
                    scale(&mut hi[t..t + tile], f1, p1);
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
            // SAFETY: the hi plane of this block, same feature contract.
            unsafe { scale(&mut block[stride..], f, phase) };
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
                store2(lp.add(i), _mm256_add_pd(cmul(x, m00), cmul(y, m01)));
                store2(hp.add(i), _mm256_add_pd(cmul(x, m10), cmul(y, m11)));
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
                    store2(p.add(i), _mm256_add_pd(cmul(x, col0), cmul(y, col1)));
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
