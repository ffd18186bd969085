//! The row-major CHP tableau: the differential oracle that the
//! qubit-major [`Tableau`](super::Tableau) is tested against.
//!
//! `2n + 1` Pauli rows (destabilizers, stabilizers, one scratch row)
//! with X and Z bit-planes packed 64 qubits per word, row after row:
//! each gate walks every row, and a deterministic measurement rowsums
//! the contributing stabilizers into the scratch row.

use super::{Measurement, NotClifford};
use tilt_circuit::clifford::{half_pi_steps, pi_steps};
use tilt_circuit::Gate;

#[derive(Clone, Debug)]
pub struct RowMajor {
    n: usize,
    /// Words per row: `ceil(n / 64)`.
    words: usize,
    /// X bit-plane, `(2n + 1) * words` words (scratch row last).
    x: Vec<u64>,
    /// Z bit-plane, same shape.
    z: Vec<u64>,
    /// Sign bits, one per row, packed.
    r: Vec<u64>,
}

impl RowMajor {
    /// The identity tableau: destabilizer `i` is `X_i`, stabilizer `i`
    /// is `Z_i` — i.e. the state `|0…0⟩`.
    pub fn new(n: usize) -> RowMajor {
        let words = n.div_ceil(64);
        let rows = 2 * n + 1;
        let mut t = RowMajor {
            n,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![0; rows.div_ceil(64)],
        };
        for i in 0..n {
            t.x[i * words + i / 64] |= 1u64 << (i % 64);
            t.z[(n + i) * words + i / 64] |= 1u64 << (i % 64);
        }
        t
    }

    #[inline]
    fn r_bit(&self, row: usize) -> bool {
        self.r[row / 64] & (1u64 << (row % 64)) != 0
    }

    #[inline]
    fn r_flip(&mut self, row: usize) {
        self.r[row / 64] ^= 1u64 << (row % 64);
    }

    #[inline]
    fn r_set(&mut self, row: usize, v: bool) {
        let m = 1u64 << (row % 64);
        if v {
            self.r[row / 64] |= m;
        } else {
            self.r[row / 64] &= !m;
        }
    }

    #[inline]
    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} outside the {}-qubit tableau", self.n);
    }

    // --- primitive Clifford conjugations --------------------------------
    //
    // Each rule is the image of the Pauli basis under U·P·U†, applied to
    // every non-scratch row's bit at column q. `x`/`z`/`r` below denote
    // that row's X bit, Z bit, and sign.

    /// Hadamard: X↔Z, Y→−Y. `r ^= x&z; swap(x, z)`.
    pub fn h(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            let xb = self.x[o] & m != 0;
            let zb = self.z[o] & m != 0;
            if xb && zb {
                self.r_flip(i);
            }
            if xb != zb {
                self.x[o] ^= m;
                self.z[o] ^= m;
            }
        }
    }

    /// Phase gate: X→Y, Y→−X, Z→Z. `r ^= x&z; z ^= x`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            let xb = self.x[o] & m != 0;
            if xb {
                if self.z[o] & m != 0 {
                    self.r_flip(i);
                }
                self.z[o] ^= m;
            }
        }
    }

    /// Inverse phase gate: X→−Y, Y→X. `r ^= x&!z; z ^= x`.
    pub fn sdg(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            let xb = self.x[o] & m != 0;
            if xb {
                if self.z[o] & m == 0 {
                    self.r_flip(i);
                }
                self.z[o] ^= m;
            }
        }
    }

    /// Pauli-X: Z→−Z, Y→−Y. `r ^= z`.
    pub fn x_gate(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            if self.z[i * self.words + w] & m != 0 {
                self.r_flip(i);
            }
        }
    }

    /// Pauli-Y: X→−X, Z→−Z. `r ^= x^z`.
    pub fn y_gate(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            if (self.x[o] & m != 0) != (self.z[o] & m != 0) {
                self.r_flip(i);
            }
        }
    }

    /// Pauli-Z: X→−X, Y→−Y. `r ^= x`.
    pub fn z_gate(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            if self.x[i * self.words + w] & m != 0 {
                self.r_flip(i);
            }
        }
    }

    /// √X (the repo's `SqrtX` up to global phase): X→X, Y→Z, Z→−Y.
    /// `r ^= !x & z; x ^= z`.
    pub fn sqrt_x(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            if self.z[o] & m != 0 {
                if self.x[o] & m == 0 {
                    self.r_flip(i);
                }
                self.x[o] ^= m;
            }
        }
    }

    /// √X†: X→X, Z→Y, Y→−Z. `r ^= x & z; x ^= z`.
    pub fn sqrt_x_dg(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            if self.z[o] & m != 0 {
                if self.x[o] & m != 0 {
                    self.r_flip(i);
                }
                self.x[o] ^= m;
            }
        }
    }

    /// √Y (the repo's `SqrtY` up to global phase): X→−Z, Z→X, Y→Y.
    /// `r ^= x & !z; swap(x, z)`.
    pub fn sqrt_y(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            let xb = self.x[o] & m != 0;
            let zb = self.z[o] & m != 0;
            if xb && !zb {
                self.r_flip(i);
            }
            if xb != zb {
                self.x[o] ^= m;
                self.z[o] ^= m;
            }
        }
    }

    /// √Y†: X→Z, Z→−X, Y→Y. `r ^= !x & z; swap(x, z)`.
    pub fn sqrt_y_dg(&mut self, q: usize) {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let o = i * self.words + w;
            let xb = self.x[o] & m != 0;
            let zb = self.z[o] & m != 0;
            if !xb && zb {
                self.r_flip(i);
            }
            if xb != zb {
                self.x[o] ^= m;
                self.z[o] ^= m;
            }
        }
    }

    /// CNOT with control `c`, target `t`:
    /// `r ^= x_c & z_t & (x_t == z_c); x_t ^= x_c; z_c ^= z_t`.
    ///
    /// # Panics
    ///
    /// Panics when `c == t` (callers route the degenerate `cx q, q`
    /// through `apply`, which treats it as the identity —
    /// the statevec reference semantics).
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check(c);
        self.check(t);
        assert_ne!(c, t, "cnot needs distinct operands");
        let (wc, mc) = (c / 64, 1u64 << (c % 64));
        let (wt, mt) = (t / 64, 1u64 << (t % 64));
        for i in 0..2 * self.n {
            let oc = i * self.words + wc;
            let ot = i * self.words + wt;
            let xc = self.x[oc] & mc != 0;
            let zc = self.z[oc] & mc != 0;
            let xt = self.x[ot] & mt != 0;
            let zt = self.z[ot] & mt != 0;
            if xc && zt && (xt == zc) {
                self.r_flip(i);
            }
            if xc {
                self.x[ot] ^= mt;
            }
            if zt {
                self.z[oc] ^= mc;
            }
        }
    }

    /// CZ (symmetric): `r ^= x_a & x_b & (z_a != z_b); z_a ^= x_b; z_b ^= x_a`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` (see `cnot`; `cz q, q` lowers to
    /// `Z q` in `apply`).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        assert_ne!(a, b, "cz needs distinct operands");
        let (wa, ma) = (a / 64, 1u64 << (a % 64));
        let (wb, mb) = (b / 64, 1u64 << (b % 64));
        for i in 0..2 * self.n {
            let oa = i * self.words + wa;
            let ob = i * self.words + wb;
            let xa = self.x[oa] & ma != 0;
            let za = self.z[oa] & ma != 0;
            let xb = self.x[ob] & mb != 0;
            let zb = self.z[ob] & mb != 0;
            if xa && xb && (za != zb) {
                self.r_flip(i);
            }
            if xb {
                self.z[oa] ^= ma;
            }
            if xa {
                self.z[ob] ^= mb;
            }
        }
    }

    /// SWAP: exchanges columns `a` and `b` of both bit-planes.
    pub fn swap_qubits(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        if a == b {
            return;
        }
        let (wa, ma) = (a / 64, 1u64 << (a % 64));
        let (wb, mb) = (b / 64, 1u64 << (b % 64));
        for i in 0..2 * self.n {
            let oa = i * self.words + wa;
            let ob = i * self.words + wb;
            if (self.x[oa] & ma != 0) != (self.x[ob] & mb != 0) {
                self.x[oa] ^= ma;
                self.x[ob] ^= mb;
            }
            if (self.z[oa] & ma != 0) != (self.z[ob] & mb != 0) {
                self.z[oa] ^= ma;
                self.z[ob] ^= mb;
            }
        }
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
    /// randomness source — use `measure` / `reset`.
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

    /// Word-parallel phase contribution of multiplying the Pauli pair
    /// `(x1, z1) · (x2, z2)` per qubit: `+1` per position where the
    /// product gains a factor `+i`, `−1` per `−i`.
    #[inline]
    fn phase_contrib(x1: u64, z1: u64, x2: u64, z2: u64) -> i32 {
        let xo = x1 & !z1; // src is X there
        let yo = x1 & z1; // src is Y
        let zo = !x1 & z1; // src is Z
        let plus = (xo & x2 & z2) | (yo & z2 & !x2) | (zo & x2 & !z2);
        let minus = (xo & z2 & !x2) | (yo & x2 & !z2) | (zo & x2 & z2);
        plus.count_ones() as i32 - minus.count_ones() as i32
    }

    /// Row `dst` ← row `src` · row `dst` (the CHP `rowsum`): XORs the
    /// bit-planes and resolves the sign from the per-qubit `±i`
    /// factors.
    ///
    /// When the rows commute — always the case for stabilizer and
    /// scratch destinations — the factors multiply out to `±1` and the
    /// sign bit is exact. Measurement also rowsums onto *destabilizer*
    /// rows whose partner anticommutes with `src`, leaving an odd
    /// (`±i`) phase; destabilizer signs are never read (they only
    /// guide which stabilizers multiply into the scratch row), so the
    /// truncation to one bit is harmless, exactly as in CHP.
    fn rowsum(&mut self, dst: usize, src: usize) {
        let w = self.words;
        let mut phase: i32 = 2 * (self.r_bit(dst) as i32) + 2 * (self.r_bit(src) as i32);
        for k in 0..w {
            let x1 = self.x[src * w + k];
            let z1 = self.z[src * w + k];
            let x2 = self.x[dst * w + k];
            let z2 = self.z[dst * w + k];
            phase += Self::phase_contrib(x1, z1, x2, z2);
            self.x[dst * w + k] = x2 ^ x1;
            self.z[dst * w + k] = z2 ^ z1;
        }
        let phase = phase.rem_euclid(4);
        debug_assert!(
            phase % 2 == 0 || dst < self.n,
            "odd rowsum phase on a sign-bearing row"
        );
        self.r_set(dst, phase >= 2);
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// The outcome is **random** iff some stabilizer anticommutes with
    /// `Z_q` (has an X bit at column `q`) — then `random_bit` is
    /// consulted exactly once for the fresh coin flip and the tableau
    /// collapses onto the corresponding eigenspace. Otherwise the
    /// outcome is **deterministic**: the scratch row accumulates the
    /// product of the stabilizers whose destabilizer partners
    /// anticommute with `Z_q`, whose sign is the fixed outcome, and the
    /// state is unchanged.
    pub fn measure(&mut self, q: usize, random_bit: impl FnOnce() -> bool) -> Measurement {
        self.check(q);
        let (w, m) = (q / 64, 1u64 << (q % 64));
        let n = self.n;
        let has_x = |t: &Self, row: usize| t.x[row * t.words + w] & m != 0;
        if let Some(p) = (n..2 * n).find(|&row| has_x(self, row)) {
            // Random outcome: Z_q anticommutes with stabilizer p.
            for i in (0..2 * n).filter(|&i| i != p) {
                if has_x(self, i) {
                    self.rowsum(i, p);
                }
            }
            // Row p retires to the destabilizer slot; the new
            // stabilizer is ±Z_q with a fresh random sign.
            let (dst, src) = (p - n, p);
            for k in 0..self.words {
                self.x[dst * self.words + k] = self.x[src * self.words + k];
                self.z[dst * self.words + k] = self.z[src * self.words + k];
                self.x[src * self.words + k] = 0;
                self.z[src * self.words + k] = 0;
            }
            self.r_set(dst, self.r_bit(src));
            self.z[p * self.words + w] |= m;
            let outcome = random_bit();
            self.r_set(p, outcome);
            Measurement {
                outcome,
                deterministic: false,
            }
        } else {
            // Deterministic: accumulate into the scratch row 2n.
            let scratch = 2 * n;
            for k in 0..self.words {
                self.x[scratch * self.words + k] = 0;
                self.z[scratch * self.words + k] = 0;
            }
            self.r_set(scratch, false);
            for i in 0..n {
                if has_x(self, i) {
                    self.rowsum(scratch, i + n);
                }
            }
            Measurement {
                outcome: self.r_bit(scratch),
                deterministic: true,
            }
        }
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
