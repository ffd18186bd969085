//! The qubit-major Aaronson–Gottesman tableau with cached measurement
//! signs.
//!
//! # Layout
//!
//! The state of an `n`-qubit stabilizer circuit is `U|0…0⟩` for a
//! Clifford `U`, held as the `2n` Pauli rows of CHP: destabilizer `i`
//! is `U·X_i·U†` and stabilizer `i` is `U·Z_i·U†`, each
//! `(-1)^{r} · ∏_q X_q^{x_q} Z_q^{z_q}`. The X and Z bits are stored
//! **qubit-major**: column `q` of the X plane holds the X bit at qubit
//! `q` of every row as a bitset of `2·w` words, `w = ceil(n/64)`, with
//! destabilizer `i` at bit `i` and stabilizer `i` at bit `64·w + i` (the
//! stabilizer half starts on a word boundary). The Z plane is laid out
//! alike, and the forward signs `r` form one more bitset of the same
//! shape. So a gate on qubit `q` is a few word operations over column
//! `q`, signs included, and a two-qubit gate touches two columns; the
//! search for a stabilizer that anticommutes with `Z_q` scans the
//! stabilizer half of one column.
//!
//! Both planes take `2 · n · 2w` words: `4n²` bits, 125 KiB at the 501
//! qubits of a distance-251 repetition code and 0.5 MB at 1000 qubits.
//!
//! # Sign cache
//!
//! Read the other way, the columns are the inverse tableau: column `q`
//! of the X plane is the Pauli `U†·Z_q·U` (its stabilizer half gives
//! the X part, its destabilizer half the Z part) and column `q` of the
//! Z plane is `U†·X_q·U`. Their signs are not in the forward tableau,
//! so they are cached beside it, each either known or not. Every gate
//! `G` turns `U` into `G·U` and updates the cached signs with the
//! prepend rules of Gidney's Stim (arXiv:2103.02202): `G†·P·G` is a
//! product of at most two Paulis on `G`'s qubits, so a new sign is the
//! sign of a product of at most two columns, a popcount over `w` word
//! pairs. CNOT(c, t), for example, sets the sign of `U†X_cU` to that of
//! `U†X_cU · U†X_tU`. A sign is known when every sign it was computed
//! from was.
//!
//! Measuring `Z_q` is deterministic exactly when `U†Z_qU` has no X
//! part, and its outcome is then that Pauli's sign. So a deterministic
//! measurement with a known sign costs one scan of a half column,
//! `O(n/64)`. When the sign is unknown, the **fallback** multiplies
//! the contributing stabilizers (those whose destabilizer partner has
//! an X at `q`) column by column, as CHP's scratch row would, and
//! caches the outcome as the sign. A random measurement rewrites the
//! tableau, so it forgets every cached sign: on a fresh tableau all
//! signs are known, and a circuit without random measurements never
//! takes the fallback.
//!
//! A random measurement does CHP's rowsums column by column: each
//! column applies the pivot stabilizer's Pauli to the rows that
//! anticommute with `Z_q`, and the `±i` factors of those products
//! accumulate in a bit-sliced mod-4 counter, one lane per row.

use tilt_circuit::clifford::{half_pi_steps, pi_steps};
use tilt_circuit::Gate;

/// Marker error: the gate handed to [`Tableau::apply`] is not Clifford.
///
/// Carries no payload — the caller holds the gate (and its program
/// index) and renders the structured error; see
/// [`NonCliffordGate`](crate::NonCliffordGate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotClifford;

/// One measurement's outcome and whether the state fixed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Measurement {
    /// The measured bit.
    pub outcome: bool,
    /// `true` when the outcome was determined by the stabilizer group
    /// (no `Z_q`-anticommuting stabilizer existed); `false` when it was
    /// a fresh coin flip.
    pub deterministic: bool,
}

/// A stabilizer tableau over `n` qubits.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Gate, Qubit};
/// use tilt_stabilizer::Tableau;
///
/// let mut t = Tableau::new(2);
/// t.apply(&Gate::H(Qubit(0))).unwrap();
/// t.apply(&Gate::Cnot(Qubit(0), Qubit(1))).unwrap();
/// let first = t.measure(0, || true);
/// let second = t.measure(1, || unreachable!("correlated bit is fixed"));
/// assert!(!first.deterministic);
/// assert!(second.deterministic);
/// assert_eq!(first.outcome, second.outcome);
/// ```
#[derive(Clone, Debug)]
pub struct Tableau {
    n: usize,
    /// Words per half column: `ceil(n / 64)`.
    words: usize,
    /// X plane, `n` columns of `2 * words` words.
    x: Vec<u64>,
    /// Z plane, same shape.
    z: Vec<u64>,
    /// Forward sign of every row, laid out as one column.
    r: Vec<u64>,
    /// Sign of `U†X_qU` per qubit, `None` when not known.
    sign_x: Vec<Option<bool>>,
    /// Sign of `U†Z_qU` per qubit, `None` when not known.
    sign_z: Vec<Option<bool>>,
    /// Deterministic measurements that took the fallback: tallied
    /// unconditionally and read by the counter gate.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fallbacks: u64,
}

/// Word-parallel phase exponent of the Pauli product `(x1, z1) ·
/// (x2, z2)`: `+1` per position where the product gains a factor `+i`,
/// `−1` per `−i`.
#[inline]
fn phase_contrib(x1: u64, z1: u64, x2: u64, z2: u64) -> i32 {
    let xo = x1 & !z1; // left factor is X there
    let yo = x1 & z1; // Y
    let zo = !x1 & z1; // Z
    let plus = (xo & x2 & z2) | (yo & z2 & !x2) | (zo & x2 & !z2);
    let minus = (xo & z2 & !x2) | (yo & x2 & !z2) | (zo & x2 & z2);
    plus.count_ones() as i32 - minus.count_ones() as i32
}

/// Sign bit of `i^extra · P1 · P2`, where `P1` and `P2` are the inverse
/// images held by columns `c1` and `c2` (X part in the stabilizer half,
/// Z part in the destabilizer half) with sign bits `s1` and `s2`. The
/// product must be Hermitian.
fn product_sign(c1: &[u64], s1: bool, c2: &[u64], s2: bool, extra: i32) -> bool {
    let w = c1.len() / 2;
    let (z1, x1) = c1.split_at(w);
    let (z2, x2) = c2.split_at(w);
    let mut phase = 2 * (s1 as i32) + 2 * (s2 as i32) + extra;
    for k in 0..w {
        phase += phase_contrib(x1[k], z1[k], x2[k], z2[k]);
    }
    let phase = phase.rem_euclid(4);
    debug_assert!(phase % 2 == 0, "non-Hermitian sign product");
    phase >= 2
}

#[inline]
fn bit(v: &[u64], i: usize) -> bool {
    (v[i / 64] >> (i % 64)) & 1 != 0
}

#[inline]
fn set_bit(v: &mut [u64], i: usize, b: bool) {
    let m = 1u64 << (i % 64);
    if b {
        v[i / 64] |= m;
    } else {
        v[i / 64] &= !m;
    }
}

/// `b` in every lane of a word.
#[inline]
fn ones(b: bool) -> u64 {
    0u64.wrapping_sub(b as u64)
}

/// Columns `a` and `b` (distinct) of a plane as two mutable slices.
fn two_columns(plane: &mut [u64], len: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    let (hi, lo) = (a.max(b), a.min(b));
    let (head, tail) = plane.split_at_mut(hi * len);
    let (low, high) = (&mut head[lo * len..(lo + 1) * len], &mut tail[..len]);
    if a < b {
        (low, high)
    } else {
        (high, low)
    }
}

/// Bit `i` of the XOR of bits `0..i` of `v`, for every `i`.
#[inline]
fn exclusive_prefix_xor(v: u64) -> u64 {
    let mut p = v;
    p ^= p << 1;
    p ^= p << 2;
    p ^= p << 4;
    p ^= p << 8;
    p ^= p << 16;
    p ^= p << 32;
    p ^ v
}

impl Tableau {
    /// The identity tableau: destabilizer `i` is `X_i`, stabilizer `i`
    /// is `Z_i` — i.e. the state `|0…0⟩`, with every cached sign `+`.
    pub fn new(n: usize) -> Tableau {
        let words = n.div_ceil(64);
        let len = 2 * words;
        let mut t = Tableau {
            n,
            words,
            x: vec![0; n * len],
            z: vec![0; n * len],
            r: vec![0; len],
            sign_x: vec![Some(false); n],
            sign_z: vec![Some(false); n],
            fallbacks: 0,
        };
        for q in 0..n {
            set_bit(&mut t.x[q * len..], q, true);
            set_bit(&mut t.z[q * len..], 64 * words + q, true);
        }
        t
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} outside the {}-qubit tableau", self.n);
    }

    /// Column `q` of the X plane: the bits of `U†Z_qU`.
    #[inline]
    fn x_col(&self, q: usize) -> &[u64] {
        let len = 2 * self.words;
        &self.x[q * len..(q + 1) * len]
    }

    /// Column `q` of the Z plane: the bits of `U†X_qU`.
    #[inline]
    fn z_col(&self, q: usize) -> &[u64] {
        let len = 2 * self.words;
        &self.z[q * len..(q + 1) * len]
    }

    /// The cached sign of `i·(U†X_qU)·(U†Z_qU)`, the inverse image of
    /// `Y_q`, when both factors' signs are known.
    fn y_sign(&self, q: usize) -> Option<bool> {
        let (sx, sz) = (self.sign_x[q]?, self.sign_z[q]?);
        Some(product_sign(self.z_col(q), sx, self.x_col(q), sz, 1))
    }

    /// Applies `f(x, z) -> (x', z', flip)` to every word of column `q`,
    /// XORing `flip` into the forward signs.
    #[inline]
    fn map_column(&mut self, q: usize, f: impl Fn(u64, u64) -> (u64, u64, u64)) {
        self.check(q);
        let len = 2 * self.words;
        let cols = q * len..(q + 1) * len;
        let x = &mut self.x[cols.clone()];
        let z = &mut self.z[cols];
        for ((x, z), r) in x.iter_mut().zip(z.iter_mut()).zip(self.r.iter_mut()) {
            let (nx, nz, flip) = f(*x, *z);
            *x = nx;
            *z = nz;
            *r ^= flip;
        }
    }

    /// Applies `f(xa, za, xb, zb) -> (xa', za', xb', zb', flip)` to
    /// every word of columns `a` and `b`, which must differ.
    #[inline]
    fn map_columns(
        &mut self,
        a: usize,
        b: usize,
        f: impl Fn(u64, u64, u64, u64) -> (u64, u64, u64, u64, u64),
    ) {
        let len = 2 * self.words;
        let (xa, xb) = two_columns(&mut self.x, len, a, b);
        let (za, zb) = two_columns(&mut self.z, len, a, b);
        let words = xa.iter_mut().zip(za.iter_mut()).zip(xb.iter_mut());
        for (((xa, za), xb), (zb, r)) in words.zip(zb.iter_mut().zip(self.r.iter_mut())) {
            let (nxa, nza, nxb, nzb, flip) = f(*xa, *za, *xb, *zb);
            *xa = nxa;
            *za = nza;
            *xb = nxb;
            *zb = nzb;
            *r ^= flip;
        }
    }

    // --- primitive Clifford conjugations --------------------------------
    //
    // Each forward rule is the image of the Pauli basis under U·P·U†,
    // applied word-parallel to column q: `x`/`z`/`r` below are every
    // row's X bit, Z bit and sign there. The cache rule is the inverse
    // image: with `A = U†X_qU` and `B = U†Z_qU`, it gives the new `A`
    // and `B` from `G†·X·G` and `G†·Z·G`.

    /// Hadamard: X↔Z, Y→−Y. `r ^= x&z; swap(x, z)`; cache `A ↔ B`.
    pub fn h(&mut self, q: usize) {
        self.map_column(q, |x, z| (z, x, x & z));
        std::mem::swap(&mut self.sign_x[q], &mut self.sign_z[q]);
    }

    /// Phase gate: X→Y, Y→−X, Z→Z. `r ^= x&z; z ^= x`; cache
    /// `A ← −i·A·B`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        let a = self.y_sign(q).map(|s| !s);
        self.map_column(q, |x, z| (x, z ^ x, x & z));
        self.sign_x[q] = a;
    }

    /// Inverse phase gate: X→−Y, Y→X. `r ^= x&!z; z ^= x`; cache
    /// `A ← i·A·B`.
    pub fn sdg(&mut self, q: usize) {
        self.check(q);
        let a = self.y_sign(q);
        self.map_column(q, |x, z| (x, z ^ x, x & !z));
        self.sign_x[q] = a;
    }

    /// Pauli-X: Z→−Z, Y→−Y. `r ^= z`; cache `B ← −B`.
    pub fn x_gate(&mut self, q: usize) {
        self.map_column(q, |x, z| (x, z, z));
        self.sign_z[q] = self.sign_z[q].map(|s| !s);
    }

    /// Pauli-Y: X→−X, Z→−Z. `r ^= x^z`; cache `A ← −A, B ← −B`.
    pub fn y_gate(&mut self, q: usize) {
        self.map_column(q, |x, z| (x, z, x ^ z));
        self.sign_x[q] = self.sign_x[q].map(|s| !s);
        self.sign_z[q] = self.sign_z[q].map(|s| !s);
    }

    /// Pauli-Z: X→−X, Y→−Y. `r ^= x`; cache `A ← −A`.
    pub fn z_gate(&mut self, q: usize) {
        self.map_column(q, |x, z| (x, z, x));
        self.sign_x[q] = self.sign_x[q].map(|s| !s);
    }

    /// √X (the repo's `SqrtX` up to global phase): X→X, Y→Z, Z→−Y.
    /// `r ^= !x & z; x ^= z`; cache `B ← i·A·B`.
    pub fn sqrt_x(&mut self, q: usize) {
        self.check(q);
        let b = self.y_sign(q);
        self.map_column(q, |x, z| (x ^ z, z, !x & z));
        self.sign_z[q] = b;
    }

    /// √X†: X→X, Z→Y, Y→−Z. `r ^= x & z; x ^= z`; cache
    /// `B ← −i·A·B`.
    pub fn sqrt_x_dg(&mut self, q: usize) {
        self.check(q);
        let b = self.y_sign(q).map(|s| !s);
        self.map_column(q, |x, z| (x ^ z, z, x & z));
        self.sign_z[q] = b;
    }

    /// √Y (the repo's `SqrtY` up to global phase): X→−Z, Z→X, Y→Y.
    /// `r ^= x & !z; swap(x, z)`; cache `A ← B, B ← −A`.
    pub fn sqrt_y(&mut self, q: usize) {
        self.map_column(q, |x, z| (z, x, x & !z));
        let a = self.sign_x[q];
        self.sign_x[q] = self.sign_z[q];
        self.sign_z[q] = a.map(|s| !s);
    }

    /// √Y†: X→Z, Z→−X, Y→Y. `r ^= !x & z; swap(x, z)`; cache
    /// `A ← −B, B ← A`.
    pub fn sqrt_y_dg(&mut self, q: usize) {
        self.map_column(q, |x, z| (z, x, !x & z));
        let a = self.sign_x[q];
        self.sign_x[q] = self.sign_z[q].map(|s| !s);
        self.sign_z[q] = a;
    }

    /// CNOT with control `c`, target `t`:
    /// `r ^= x_c & z_t & (x_t == z_c); x_t ^= x_c; z_c ^= z_t`; cache
    /// `A_c ← A_c·A_t, B_t ← B_c·B_t`.
    ///
    /// # Panics
    ///
    /// Panics when `c == t` (callers route the degenerate `cx q, q`
    /// through [`Tableau::apply`], which treats it as the identity —
    /// the statevec reference semantics).
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check(c);
        self.check(t);
        assert_ne!(c, t, "cnot needs distinct operands");
        let a = self.sign_x[c]
            .zip(self.sign_x[t])
            .map(|(sc, st)| product_sign(self.z_col(c), sc, self.z_col(t), st, 0));
        let b = self.sign_z[c]
            .zip(self.sign_z[t])
            .map(|(sc, st)| product_sign(self.x_col(c), sc, self.x_col(t), st, 0));
        self.map_columns(c, t, |xc, zc, xt, zt| {
            (xc, zc ^ zt, xt ^ xc, zt, xc & zt & !(xt ^ zc))
        });
        self.sign_x[c] = a;
        self.sign_z[t] = b;
    }

    /// CZ (symmetric): `r ^= x_a & x_b & (z_a != z_b); z_a ^= x_b;
    /// z_b ^= x_a`; cache `A_a ← A_a·B_b, A_b ← B_a·A_b`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` (see [`Tableau::cnot`]; `cz q, q` lowers to
    /// `Z q` in [`Tableau::apply`]).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        assert_ne!(a, b, "cz needs distinct operands");
        let sa = self.sign_x[a]
            .zip(self.sign_z[b])
            .map(|(sa, sb)| product_sign(self.z_col(a), sa, self.x_col(b), sb, 0));
        let sb = self.sign_z[a]
            .zip(self.sign_x[b])
            .map(|(sa, sb)| product_sign(self.x_col(a), sa, self.z_col(b), sb, 0));
        self.map_columns(a, b, |xa, za, xb, zb| {
            (xa, za ^ xb, xb, zb ^ xa, xa & xb & (za ^ zb))
        });
        self.sign_x[a] = sa;
        self.sign_x[b] = sb;
    }

    /// SWAP: exchanges columns `a` and `b` of both bit-planes and their
    /// cached signs.
    pub fn swap_qubits(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        if a == b {
            return;
        }
        self.map_columns(a, b, |xa, za, xb, zb| (xb, zb, xa, za, 0));
        self.sign_x.swap(a, b);
        self.sign_z.swap(a, b);
    }

    // --- gate-level dispatch --------------------------------------------

    /// Applies one unitary Clifford gate (or [`Gate::Barrier`], a
    /// no-op).
    ///
    /// `Rx`/`Ry`/`Rz`/`Zz`/`Xx` at angles on the π/2 grid and `Cphase`
    /// on the π grid (both within
    /// [`ANGLE_TOL`](tilt_circuit::clifford::ANGLE_TOL)) lower to the
    /// primitive conjugations above; any other angle — and `T`/`Tdg`/
    /// `Toffoli` always — returns [`NotClifford`] without touching the
    /// tableau. Degenerate repeated-operand spellings (`cx q, q` …)
    /// keep the state-vector reference semantics.
    ///
    /// # Panics
    ///
    /// Panics on [`Gate::Measure`] / [`Gate::Reset`]: those need a
    /// randomness source — use [`Tableau::measure`] / [`Tableau::reset`].
    pub fn apply(&mut self, gate: &Gate) -> Result<(), NotClifford> {
        match *gate {
            Gate::H(q) => self.h(q.index()),
            Gate::X(q) => self.x_gate(q.index()),
            Gate::Y(q) => self.y_gate(q.index()),
            Gate::Z(q) => self.z_gate(q.index()),
            Gate::S(q) => self.s(q.index()),
            Gate::Sdg(q) => self.sdg(q.index()),
            Gate::SqrtX(q) => self.sqrt_x(q.index()),
            Gate::SqrtY(q) => self.sqrt_y(q.index()),
            Gate::T(_) | Gate::Tdg(_) | Gate::Toffoli(..) => return Err(NotClifford),
            Gate::Rx(q, t) => match half_pi_steps(t).ok_or(NotClifford)? {
                0 => {}
                1 => self.sqrt_x(q.index()),
                2 => self.x_gate(q.index()),
                _ => self.sqrt_x_dg(q.index()),
            },
            Gate::Ry(q, t) => match half_pi_steps(t).ok_or(NotClifford)? {
                0 => {}
                1 => self.sqrt_y(q.index()),
                2 => self.y_gate(q.index()),
                _ => self.sqrt_y_dg(q.index()),
            },
            Gate::Rz(q, t) => match half_pi_steps(t).ok_or(NotClifford)? {
                0 => {}
                1 => self.s(q.index()),
                2 => self.z_gate(q.index()),
                _ => self.sdg(q.index()),
            },
            Gate::Cnot(c, t) => {
                // `cx q, q` is the identity in the reference semantics.
                if c != t {
                    self.cnot(c.index(), t.index());
                }
            }
            Gate::Cz(a, b) => {
                if a == b {
                    // `cz q, q` acts as `Z q`.
                    self.z_gate(a.index());
                } else {
                    self.cz(a.index(), b.index());
                }
            }
            Gate::Swap(a, b) => self.swap_qubits(a.index(), b.index()),
            Gate::Cphase(a, b, t) => {
                if pi_steps(t).ok_or(NotClifford)? == 1 {
                    if a == b {
                        // `cp(π) q, q` is `Z q` (phase on |1⟩).
                        self.z_gate(a.index());
                    } else {
                        self.cz(a.index(), b.index());
                    }
                }
            }
            Gate::Zz(a, b, t) => {
                let k = half_pi_steps(t).ok_or(NotClifford)?;
                // `rzz` on a repeated operand is exp(-iθ/2·Z²) = global
                // phase = identity.
                if a != b {
                    self.zz_steps(a.index(), b.index(), k);
                }
            }
            Gate::Xx(a, b, t) => {
                let k = half_pi_steps(t).ok_or(NotClifford)?;
                // Same degeneracy as `rzz`: X² = I.
                if a != b {
                    // XX(θ) = (H⊗H) · ZZ(θ) · (H⊗H).
                    self.h(a.index());
                    self.h(b.index());
                    self.zz_steps(a.index(), b.index(), k);
                    self.h(a.index());
                    self.h(b.index());
                }
            }
            Gate::Measure(_) | Gate::Reset(_) => {
                panic!("measurement needs randomness: use Tableau::measure / Tableau::reset")
            }
            Gate::Barrier => {}
        }
        Ok(())
    }

    /// `ZZ(k·π/2)` on distinct qubits: `k=1` is `CX·S_b·CX` (the
    /// diagonal `diag(1, i, i, 1)` up to global phase), `k=2` is
    /// `Z⊗Z`, `k=3` the inverse of `k=1`.
    fn zz_steps(&mut self, a: usize, b: usize, k: u8) {
        match k {
            0 => {}
            1 => {
                self.cnot(a, b);
                self.s(b);
                self.cnot(a, b);
            }
            2 => {
                self.z_gate(a);
                self.z_gate(b);
            }
            _ => {
                self.cnot(a, b);
                self.sdg(b);
                self.cnot(a, b);
            }
        }
    }

    // --- measurement ----------------------------------------------------

    /// Measures qubit `q` in the computational basis.
    ///
    /// The outcome is **random** iff some stabilizer anticommutes with
    /// `Z_q` (has an X bit at column `q`) — then `random_bit` is
    /// consulted exactly once for the fresh coin flip, the tableau
    /// collapses onto the corresponding eigenspace and the sign cache
    /// is forgotten. Otherwise the outcome is **deterministic** and the
    /// state is unchanged: it is the cached sign of `U†Z_qU` when that
    /// is known, else the sign of the product of the stabilizers whose
    /// destabilizer partners anticommute with `Z_q`, which is then
    /// cached.
    pub fn measure(&mut self, q: usize, random_bit: impl FnOnce() -> bool) -> Measurement {
        self.check(q);
        let w = self.words;
        let stabilizers = &self.x_col(q)[w..];
        let pivot = stabilizers
            .iter()
            .position(|&word| word != 0)
            .map(|k| k * 64 + stabilizers[k].trailing_zeros() as usize);
        if let Some(p) = pivot {
            let outcome = random_bit();
            self.collapse(q, p, outcome);
            return Measurement {
                outcome,
                deterministic: false,
            };
        }
        let outcome = match self.sign_z[q] {
            Some(sign) => sign,
            None => {
                self.fallbacks += 1;
                let sign = self.gather(q);
                self.sign_z[q] = Some(sign);
                sign
            }
        };
        Measurement {
            outcome,
            deterministic: true,
        }
    }

    /// The fallback: the sign of the product of the stabilizers whose
    /// destabilizer partners have an X at `q`, accumulated column by
    /// column. Within a column the rows multiply in ascending order;
    /// the stabilizers commute, so the total sign does not depend on
    /// it.
    fn gather(&self, q: usize) -> bool {
        let (w, len) = (self.words, 2 * self.words);
        let rows = &self.x_col(q)[..w];
        let signs = rows.iter().zip(&self.r[w..]);
        let mut phase: i32 = signs.map(|(m, r)| 2 * (m & r).count_ones() as i32).sum();
        let occupied: Vec<usize> = (0..w).filter(|&k| rows[k] != 0).collect();
        for (cx, cz) in self.x.chunks_exact(len).zip(self.z.chunks_exact(len)) {
            // The running product's bits at this column, from the rows
            // in earlier words.
            let (mut acc_x, mut acc_z) = (0u64, 0u64);
            for &k in &occupied {
                let (x, z) = (cx[w + k] & rows[k], cz[w + k] & rows[k]);
                if x | z == 0 {
                    continue;
                }
                phase += phase_contrib(
                    x,
                    z,
                    exclusive_prefix_xor(x) ^ acc_x,
                    exclusive_prefix_xor(z) ^ acc_z,
                );
                acc_x ^= ones(x.count_ones() % 2 == 1);
                acc_z ^= ones(z.count_ones() % 2 == 1);
            }
        }
        let phase = phase.rem_euclid(4);
        debug_assert!(phase % 2 == 0, "stabilizers must commute");
        phase >= 2
    }

    /// The random branch: stabilizer `p` is the first to anticommute
    /// with `Z_q`. Every other row that anticommutes with `Z_q` is
    /// multiplied by row `p`, row `p` retires to destabilizer `p`, and
    /// stabilizer `p` becomes `±Z_q` with the sign `outcome`.
    fn collapse(&mut self, q: usize, p: usize, outcome: bool) {
        let (w, len) = (self.words, 2 * self.words);
        let pivot = 64 * w + p;
        let mut mask = self.x_col(q).to_vec();
        set_bit(&mut mask, pivot, false);
        // The rowsum phase of each masked row, mod 4, bit-sliced: it
        // starts at 2·r_row + 2·r_pivot.
        let pivot_sign = ones(bit(&self.r, pivot));
        let mut hi: Vec<u64> = self.r.iter().map(|&r| r ^ pivot_sign).collect();
        let mut lo = vec![0u64; len];
        let occupied: Vec<usize> = (0..len).filter(|&k| mask[k] != 0).collect();
        for (cx, cz) in self
            .x
            .chunks_exact_mut(len)
            .zip(self.z.chunks_exact_mut(len))
        {
            let (px, pz) = (bit(cx, pivot), bit(cz, pivot));
            if px || pz {
                for &k in &occupied {
                    let m = mask[k];
                    let (x, z) = (cx[k], cz[k]);
                    // The pivot's `±i` factors against each row: the
                    // lanes gaining `+i`, then those gaining `−i`.
                    let (plus, minus) = match (px, pz) {
                        (true, false) => (x & z, z & !x),
                        (true, true) => (z & !x, x & !z),
                        _ => (x & !z, x & z),
                    };
                    let (plus, minus) = (plus & m, minus & m);
                    hi[k] ^= lo[k] & plus;
                    lo[k] ^= plus;
                    lo[k] ^= minus;
                    hi[k] ^= lo[k] & minus;
                    if px {
                        cx[k] = x ^ m;
                    }
                    if pz {
                        cz[k] = z ^ m;
                    }
                }
            }
            // Row p retires to the destabilizer slot.
            for c in [cx, cz] {
                set_bit(c, p, bit(c, pivot));
                set_bit(c, pivot, false);
            }
        }
        for ((r, &hi), &m) in self.r.iter_mut().zip(&hi).zip(&mask) {
            *r = (*r & !m) | (hi & m);
        }
        let retired = bit(&self.r, pivot);
        set_bit(&mut self.r, p, retired);
        set_bit(&mut self.r, pivot, outcome);
        set_bit(&mut self.z[q * len..(q + 1) * len], pivot, true);
        self.sign_x.fill(None);
        self.sign_z.fill(None);
    }

    /// Resets qubit `q` to `|0⟩`: measure, then flip when the outcome
    /// was 1. Returns the pre-reset measurement.
    pub fn reset(&mut self, q: usize, random_bit: impl FnOnce() -> bool) -> Measurement {
        let m = self.measure(q, random_bit);
        if m.outcome {
            self.x_gate(q);
        }
        m
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::RowMajor;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI};
    use tilt_circuit::Qubit;

    /// A random gate over every arm of `apply`: the π/2-grid rotations
    /// at every step (`Rx`/`Ry` at 3π/2 are `sqrt_x_dg`/`sqrt_y_dg`),
    /// `Cphase(π)`, the repeated-operand spellings and a non-Clifford
    /// gate, which both sides must refuse.
    fn random_gate(rng: &mut SmallRng, n: usize) -> Gate {
        let a = Qubit(rng.gen_range(0..n));
        // A repeated operand one time in eight.
        let b = if n == 1 || rng.gen_range(0..8) == 0 {
            a
        } else {
            Qubit((a.index() + rng.gen_range(1..n)) % n)
        };
        let angle = rng.gen_range(0..4) as f64 * FRAC_PI_2;
        match rng.gen_range(0..20) {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Y(a),
            3 => Gate::Z(a),
            4 => Gate::S(a),
            5 => Gate::Sdg(a),
            6 => Gate::SqrtX(a),
            7 => Gate::SqrtY(a),
            8 => Gate::Rx(a, angle),
            9 => Gate::Ry(a, angle),
            10 => Gate::Rz(a, angle),
            11 => Gate::Zz(a, b, angle),
            12 => Gate::Xx(a, b, angle),
            13 => Gate::Cphase(a, b, PI),
            14 => Gate::Cz(a, b),
            15 => Gate::Swap(a, b),
            16 => Gate::Barrier,
            17 => Gate::T(a),
            _ => Gate::Cnot(a, b),
        }
    }

    /// Both tableaux measure (or reset) `q`, each from its own copy of
    /// one coin stream; returns the outcome and the coins each drew.
    fn measure_both(
        fast: &mut Tableau,
        slow: &mut RowMajor,
        q: usize,
        reset: bool,
        coin_seed: u64,
    ) -> (Measurement, Measurement, usize, usize) {
        let (mut fast_rng, mut slow_rng) = (
            SmallRng::seed_from_u64(coin_seed),
            SmallRng::seed_from_u64(coin_seed),
        );
        let (mut fast_coins, mut slow_coins) = (0, 0);
        let mut fast_coin = || {
            fast_coins += 1;
            fast_rng.gen()
        };
        let mut slow_coin = || {
            slow_coins += 1;
            slow_rng.gen()
        };
        let (f, s) = if reset {
            (fast.reset(q, &mut fast_coin), slow.reset(q, &mut slow_coin))
        } else {
            (
                fast.measure(q, &mut fast_coin),
                slow.measure(q, &mut slow_coin),
            )
        };
        (f, s, fast_coins, slow_coins)
    }

    #[test]
    fn qubit_major_tableau_matches_the_row_major_oracle() {
        let (mut cached, mut fallbacks) = (0u64, 0u64);
        for n in [1usize, 63, 64, 65, 127, 128, 129, 501] {
            let (circuits, ops) = if n > 200 {
                (2, 3_000)
            } else {
                (12, 40 * n + 60)
            };
            for circuit in 0..circuits {
                let seed = (n as u64) << 16 | circuit;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut fast = Tableau::new(n);
                let mut slow = RowMajor::new(n);
                let mut reads = 0u64;
                for step in 0..ops {
                    // One op in seven measures or resets, then a final
                    // readout of every qubit.
                    let (q, reset) = match rng.gen_range(0..7) {
                        0 => (rng.gen_range(0..n), rng.gen()),
                        _ => {
                            let g = random_gate(&mut rng, n);
                            let (f, s) = (fast.apply(&g), slow.apply(&g));
                            assert_eq!(f, s, "n={n} seed={seed} step {step}: {g}");
                            continue;
                        }
                    };
                    let got = measure_both(&mut fast, &mut slow, q, reset, rng.gen());
                    assert_eq!(got.0, got.1, "n={n} seed={seed} step {step}: qubit {q}");
                    assert_eq!(got.2, got.3, "n={n} seed={seed} step {step}: coins");
                    reads += got.0.deterministic as u64;
                }
                for q in 0..n {
                    let got = measure_both(&mut fast, &mut slow, q, false, rng.gen());
                    assert_eq!(got.0, got.1, "n={n} seed={seed} readout of qubit {q}");
                    assert_eq!(got.2, got.3, "n={n} seed={seed} readout coins");
                    reads += got.0.deterministic as u64;
                }
                cached += reads - fast.fallbacks;
                fallbacks += fast.fallbacks;
            }
        }
        // Both deterministic paths were compared.
        assert!(
            cached > 100 && fallbacks > 100,
            "{cached} cached, {fallbacks} fallbacks"
        );
    }
}
