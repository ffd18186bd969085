//! Dense state vectors and gate application.
//!
//! Conventions (all standard / OpenQASM):
//!
//! * Basis index bit `q` is the state of qubit `q` (qubit 0 = LSB).
//! * `Rp(θ) = exp(-iθ/2 P)` for `P ∈ {X, Y, Z}`.
//! * `XX(θ) = exp(-iθ/2 X⊗X)` (the Mølmer–Sørensen interaction; `θ = ±π/2`
//!   is maximally entangling), `ZZ(θ) = exp(-iθ/2 Z⊗Z)`.
//! * `CPhase(λ) = diag(1, 1, 1, e^{iλ})`.
//!
//! Gates take one path: gate by gate into the pair-indexed kernels of
//! [`crate::kernels`] (see `crates/statevec/README.md` for the indexing
//! scheme). [`State::apply`] sends one gate; [`State::run`],
//! [`State::run_with`] and [`State::run_sampled`] share one gate loop,
//! which decides once per call whether to fan out over threads and
//! hands that decision to each kernel as-is. Each kernel resolves to
//! the active instruction tier of [`crate::simd`] — AVX2+FMA on hosts
//! that support it, the portable scalar loops otherwise — so nothing at
//! this layer depends on the tier. The seed's branchy full-scan
//! implementation is retained in [`crate::naive`] as the reference
//! oracle.

use crate::complex::Complex;
use crate::kernels;
use crate::naive;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tilt_circuit::{Circuit, Gate};

/// Default register cap for the panicking constructors: `2^24`
/// amplitudes is 256 MiB, the seed's historical limit.
pub const DEFAULT_MAX_QUBITS: usize = 24;

/// Why a state could not be constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The register exceeds the configured qubit cap.
    TooManyQubits {
        /// Requested register width.
        n_qubits: usize,
        /// The cap it exceeded.
        cap: usize,
    },
    /// The amplitude vector could not be allocated.
    AllocationFailed {
        /// Number of amplitudes requested (`2^n`).
        amplitudes: usize,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StateError::TooManyQubits { n_qubits, cap } => {
                write!(
                    f,
                    "dense simulation of {n_qubits} qubits exceeds the cap of {cap}"
                )
            }
            StateError::AllocationFailed { amplitudes } => {
                write!(f, "could not allocate {amplitudes} amplitudes")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// A pure quantum state over `n` qubits (`2^n` amplitudes).
#[derive(Clone, Debug, PartialEq)]
pub struct State {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `n_qubits > `[`DEFAULT_MAX_QUBITS`] (the dense vector
    /// would not fit); use [`State::try_zero_with_cap`] for a checked,
    /// configurable-cap construction.
    pub fn zero(n_qubits: usize) -> Self {
        State::try_zero(n_qubits).expect("dense simulation beyond the default qubit cap")
    }

    /// The all-zeros state, checked against [`DEFAULT_MAX_QUBITS`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::TooManyQubits`] above the cap and
    /// [`StateError::AllocationFailed`] when the allocator refuses the
    /// amplitude vector.
    pub fn try_zero(n_qubits: usize) -> Result<Self, StateError> {
        State::try_zero_with_cap(n_qubits, DEFAULT_MAX_QUBITS)
    }

    /// The all-zeros state with a caller-chosen qubit cap.
    ///
    /// The cap is a policy knob, not a hardware bound: callers that
    /// know their memory budget may raise it (every qubit doubles the
    /// 16-byte-per-amplitude allocation). The allocation itself is
    /// checked, so a hopeless request fails with an `Err` instead of
    /// aborting.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::TooManyQubits`] when `n_qubits > cap` or
    /// `2^n_qubits` overflows `usize`, and
    /// [`StateError::AllocationFailed`] when the allocator refuses.
    pub fn try_zero_with_cap(n_qubits: usize, cap: usize) -> Result<Self, StateError> {
        if n_qubits > cap || n_qubits >= usize::BITS as usize {
            return Err(StateError::TooManyQubits { n_qubits, cap });
        }
        let len = 1usize << n_qubits;
        let mut amps = Vec::new();
        amps.try_reserve_exact(len)
            .map_err(|_| StateError::AllocationFailed { amplitudes: len })?;
        amps.resize(len, Complex::ZERO);
        amps[0] = Complex::ONE;
        Ok(State { n_qubits, amps })
    }

    /// A basis state `|x⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has bits above `n_qubits`.
    pub fn basis(n_qubits: usize, x: usize) -> Self {
        assert!(x < (1usize << n_qubits), "basis index out of range");
        let mut s = State::zero(n_qubits);
        s.amps[0] = Complex::ZERO;
        s.amps[x] = Complex::ONE;
        s
    }

    /// A reproducible Haar-ish random state (normalized Gaussian-free
    /// uniform components — adequate for equivalence probing).
    pub fn random(n_qubits: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut amps: Vec<Complex> = (0..1usize << n_qubits)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sq()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        State { n_qubits, amps }
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude of basis state `x`.
    pub fn amplitude(&self, x: usize) -> Complex {
        self.amps[x]
    }

    /// `|⟨x|ψ⟩|²`.
    pub fn probability_of(&self, x: usize) -> f64 {
        self.amps[x].norm_sq()
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on register-width mismatch.
    pub fn inner(&self, other: &State) -> Complex {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        let mut acc = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// `|⟨self|other⟩|²` — 1.0 iff the states agree up to global phase.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner(other).norm_sq()
    }

    /// Total probability (should be 1 for any unitary evolution).
    pub fn norm_sq(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sq()).sum()
    }

    /// Applies `gate` in place through the optimized kernels
    /// (parallelizing automatically on large states).
    ///
    /// # Panics
    ///
    /// Panics on [`Gate::Measure`] (this is a pure-state verifier) and on
    /// operands outside the register.
    pub fn apply(&mut self, gate: &Gate) {
        let parallel = kernels::should_parallelize(self.amps.len(), None);
        apply_kernel(&mut self.amps, gate, parallel);
    }

    /// Applies `gate` with the retained seed implementation (full-scan
    /// reference path; see [`crate::naive`]).
    ///
    /// # Panics
    ///
    /// As [`State::apply`].
    pub fn apply_naive(&mut self, gate: &Gate) {
        naive::apply_naive(&mut self.amps, gate);
    }

    /// Applies every gate of `circuit` in program order through the
    /// pair-indexed kernels, consuming and returning the state for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics when the circuit is wider than the state or measures
    /// (use [`State::run_sampled`] for that).
    pub fn run(self, circuit: &Circuit) -> State {
        self.run_with(circuit, None)
    }

    /// [`State::run`] with the parallel decision pinned: `None` fans out
    /// when the state is large and the host has threads (the default);
    /// `Some(true)` / `Some(false)` force the choice, which the
    /// equivalence tests use to pin each path and the same-run timing
    /// gate to stay on one thread.
    ///
    /// # Panics
    ///
    /// As [`State::run`].
    pub fn run_with(mut self, circuit: &Circuit, parallel: Option<bool>) -> State {
        self.run_gates(circuit, parallel, None::<&mut SmallRng>);
        self
    }

    /// Runs `circuit` through the retained naive reference path.
    pub fn run_naive(mut self, circuit: &Circuit) -> State {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit wider than state"
        );
        for g in circuit {
            naive::apply_naive(&mut self.amps, g);
        }
        self
    }

    /// Marginal probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit outside register");
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(x, _)| x & mask != 0)
            .map(|(_, a)| a.norm_sq())
            .sum()
    }

    /// Projects qubit `q` onto `outcome` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics when the requested branch has (near-)zero probability —
    /// collapsing onto it would divide by zero.
    pub fn collapse(&mut self, q: usize, outcome: bool) {
        assert!(q < self.n_qubits, "qubit outside register");
        let mask = 1usize << q;
        let keep = if outcome { mask } else { 0 };
        let p: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(x, _)| x & mask == keep)
            .map(|(_, a)| a.norm_sq())
            .sum();
        assert!(
            p > 1e-12,
            "collapsing qubit {q} onto an outcome of probability {p:.3e}"
        );
        let scale = 1.0 / p.sqrt();
        for (x, a) in self.amps.iter_mut().enumerate() {
            if x & mask == keep {
                *a = a.scale(scale);
            } else {
                *a = Complex::ZERO;
            }
        }
    }

    /// Measures qubit `q` using the uniform sample `u ∈ [0, 1)` as the
    /// randomness source (outcome is 1 iff `u < P(1)`), collapsing the
    /// state. Returns the outcome bit.
    pub fn measure_with(&mut self, q: usize, u: f64) -> bool {
        let p1 = self.prob_one(q);
        // Clamp so a numerically-degenerate branch is never selected by
        // a borderline draw.
        let outcome = u < p1 && p1 > 1e-12;
        self.collapse(q, outcome);
        outcome
    }

    /// Resets qubit `q` to `|0⟩` (measure with sample `u`, then flip on
    /// outcome 1). Returns the pre-reset measurement.
    pub fn reset_with(&mut self, q: usize, u: f64) -> bool {
        let outcome = self.measure_with(q, u);
        if outcome {
            self.apply(&Gate::X(tilt_circuit::Qubit(q)));
        }
        outcome
    }

    /// Runs `circuit` gate by gate, dispatching `measure`/`reset`
    /// through [`State::measure_with`] / [`State::reset_with`] with
    /// draws from `rng`. Returns the final state and one bit per
    /// `measure` gate in program order. On a measurement-free circuit
    /// the state is bit-identical to [`State::run`]'s.
    pub fn run_sampled<R: rand::Rng>(
        mut self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> (State, Vec<bool>) {
        let outcomes = self.run_gates(circuit, None, Some(rng));
        (self, outcomes)
    }

    /// The one gate loop behind [`State::run_with`] and
    /// [`State::run_sampled`]: decides parallelism once, sends unitaries
    /// to the kernels and, when `rng` is given, samples `measure`/`reset`
    /// from it (without one they reach the kernels' panic).
    fn run_gates<R: rand::Rng>(
        &mut self,
        circuit: &Circuit,
        parallel: Option<bool>,
        mut rng: Option<&mut R>,
    ) -> Vec<bool> {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit wider than state"
        );
        let parallel = kernels::should_parallelize(self.amps.len(), parallel);
        let mut outcomes = Vec::new();
        for g in circuit {
            match (*g, rng.as_deref_mut()) {
                (Gate::Measure(q), Some(rng)) => {
                    outcomes.push(self.measure_with(q.index(), rng.gen()));
                }
                (Gate::Reset(q), Some(rng)) => {
                    self.reset_with(q.index(), rng.gen());
                }
                _ => apply_kernel(&mut self.amps, g, parallel),
            }
        }
        outcomes
    }

    /// Relabels qubits: qubit `q` of `self` becomes qubit `perm[q]` of the
    /// result. Used to compare routed physical states (where data ended at
    /// permuted tape positions) against logical references.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_qubits`.
    pub fn permute_qubits(&self, perm: &[usize]) -> State {
        assert_eq!(perm.len(), self.n_qubits, "permutation width mismatch");
        let mut seen = vec![false; self.n_qubits];
        for &p in perm {
            assert!(p < self.n_qubits && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut out = vec![Complex::ZERO; self.amps.len()];
        for (x, amp) in self.amps.iter().enumerate() {
            let mut y = 0usize;
            for (q, &p) in perm.iter().enumerate() {
                if x & (1 << q) != 0 {
                    y |= 1 << p;
                }
            }
            out[y] = *amp;
        }
        State {
            n_qubits: self.n_qubits,
            amps: out,
        }
    }
}

/// True for multi-qubit gates whose operands repeat (`cx q, q` and
/// friends — constructible from QASM, which only range-checks).
fn has_repeated_operands(gate: &Gate) -> bool {
    match *gate {
        Gate::Cnot(a, b)
        | Gate::Cz(a, b)
        | Gate::Cphase(a, b, _)
        | Gate::Zz(a, b, _)
        | Gate::Xx(a, b, _)
        | Gate::Swap(a, b) => a == b,
        Gate::Toffoli(a, b, c) => a == b || b == c || a == c,
        _ => false,
    }
}

/// Optimized single-gate dispatch; `parallel` is passed through to
/// every kernel unchanged.
fn apply_kernel(amps: &mut [Complex], gate: &Gate, parallel: bool) {
    // The structured kernels assume distinct operand bits; degenerate
    // gates keep the seed's (naive-path) semantics — e.g. `Cz(q, q)`
    // acts as `Z(q)`, `Cnot(q, q)` as identity.
    if has_repeated_operands(gate) {
        naive::apply_naive(amps, gate);
        return;
    }
    match *gate {
        Gate::Barrier => {}
        Gate::Measure(_) | Gate::Reset(_) => {
            panic!("state-vector verifier cannot measure or reset")
        }
        // Diagonal single-qubit gates: phase sweeps over half the array.
        Gate::Z(q) => kernels::phase_1q(amps, q.index(), Complex::new(-1.0, 0.0), parallel),
        Gate::S(q) => kernels::phase_1q(amps, q.index(), Complex::I, parallel),
        Gate::Sdg(q) => kernels::phase_1q(amps, q.index(), -Complex::I, parallel),
        Gate::T(q) => {
            let phase = Complex::cis(std::f64::consts::FRAC_PI_4);
            kernels::phase_1q(amps, q.index(), phase, parallel);
        }
        Gate::Tdg(q) => {
            let phase = Complex::cis(-std::f64::consts::FRAC_PI_4);
            kernels::phase_1q(amps, q.index(), phase, parallel);
        }
        Gate::Rz(q, t) => {
            let (lo, hi) = (Complex::cis(-t / 2.0), Complex::cis(t / 2.0));
            kernels::diag_1q(amps, q.index(), lo, hi, parallel);
        }
        // Remaining single-qubit unitaries: pair-indexed 2×2 kernel.
        Gate::H(q)
        | Gate::X(q)
        | Gate::Y(q)
        | Gate::SqrtX(q)
        | Gate::SqrtY(q)
        | Gate::Rx(q, _)
        | Gate::Ry(q, _) => {
            let m = matrix_1q(gate).expect("single-qubit gate has a matrix");
            // `Rx(0)`/`Ry(0)` have (signed) zero off-diagonals: a phase
            // sweep is exact for them and cheaper.
            if is_diagonal2(&m) {
                kernels::diag_1q(amps, q.index(), m[0][0], m[1][1], parallel);
            } else {
                kernels::apply_1q(amps, q.index(), m, parallel);
            }
        }
        // Two-qubit diagonal gates.
        Gate::Cz(a, b) => {
            let phase = Complex::new(-1.0, 0.0);
            kernels::phase_both(amps, a.index(), b.index(), phase, parallel);
        }
        Gate::Cphase(a, b, lambda) => {
            let phase = Complex::cis(lambda);
            kernels::phase_both(amps, a.index(), b.index(), phase, parallel);
        }
        Gate::Zz(a, b, t) => {
            let (same, diff) = (Complex::cis(-t / 2.0), Complex::cis(t / 2.0));
            kernels::phase_parity(amps, a.index(), b.index(), same, diff, parallel);
        }
        // Permutation gates: contiguous-run swaps, fanned out over
        // disjoint block ranges on large states (a single core is
        // memcpy-bound, but multiple cores multiply the bandwidth).
        Gate::Cnot(c, t) => kernels::controlled_x(amps, 1usize << c.index(), t.index(), parallel),
        Gate::Swap(a, b) => kernels::swap_qubits(amps, a.index(), b.index(), parallel),
        Gate::Toffoli(c0, c1, t) => {
            let mask = (1usize << c0.index()) | (1usize << c1.index());
            kernels::controlled_x(amps, mask, t.index(), parallel);
        }
        // The entangling workhorse.
        Gate::Xx(a, b, t) => {
            let cos = Complex::new((t / 2.0).cos(), 0.0);
            let isin = Complex::new(0.0, -(t / 2.0).sin());
            kernels::xx_rotate(amps, a.index(), b.index(), cos, isin, parallel);
        }
    }
}

/// A 2×2 complex matrix (row-major).
type Mat2 = [[Complex; 2]; 2];

/// The 2×2 matrix of a non-diagonal single-qubit gate (the diagonal ones
/// have phase kernels of their own), or `None` for anything else.
fn matrix_1q(gate: &Gate) -> Option<Mat2> {
    use std::f64::consts::FRAC_1_SQRT_2;
    let c = Complex::new;
    let m = match *gate {
        Gate::H(_) => [
            [c(FRAC_1_SQRT_2, 0.0), c(FRAC_1_SQRT_2, 0.0)],
            [c(FRAC_1_SQRT_2, 0.0), c(-FRAC_1_SQRT_2, 0.0)],
        ],
        Gate::X(_) => [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
        Gate::Y(_) => [[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]],
        Gate::SqrtX(_) => {
            let (p, m) = (c(0.5, 0.5), c(0.5, -0.5));
            [[p, m], [m, p]]
        }
        Gate::SqrtY(_) => {
            let p = c(0.5, 0.5);
            [[p, -p], [p, p]]
        }
        Gate::Rx(_, t) => {
            let (co, si) = ((t / 2.0).cos(), (t / 2.0).sin());
            [[c(co, 0.0), c(0.0, -si)], [c(0.0, -si), c(co, 0.0)]]
        }
        Gate::Ry(_, t) => {
            let (co, si) = ((t / 2.0).cos(), (t / 2.0).sin());
            [[c(co, 0.0), c(-si, 0.0)], [c(si, 0.0), c(co, 0.0)]]
        }
        _ => return None,
    };
    Some(m)
}

/// True when `m` is diagonal (kernel dispatch can use a phase sweep).
#[inline]
fn is_diagonal2(m: &Mat2) -> bool {
    m[0][1] == Complex::ZERO && m[1][0] == Complex::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
    use tilt_circuit::Qubit;

    const EPS: f64 = 1e-10;

    /// Checks two circuits implement the same unitary up to global phase
    /// by probing with random states.
    fn assert_equivalent(n: usize, c1: &Circuit, c2: &Circuit) {
        for seed in 0..3u64 {
            let probe = State::random(n, seed);
            let s1 = probe.clone().run(c1);
            let s2 = probe.run(c2);
            let f = s1.fidelity(&s2);
            assert!(
                (f - 1.0).abs() < EPS,
                "fidelity {f} for seed {seed}\nc1: {c1}\nc2: {c2}"
            );
        }
    }

    #[test]
    fn bell_state_amplitudes() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(1));
        let s = State::zero(2).run(&c);
        assert!((s.probability_of(0b00) - 0.5).abs() < EPS);
        assert!((s.probability_of(0b11) - 0.5).abs() < EPS);
        assert!(s.probability_of(0b01) < EPS);
        assert!((s.norm_sq() - 1.0).abs() < EPS);
    }

    #[test]
    fn ghz_state() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        for i in 1..4 {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        let s = State::zero(4).run(&c);
        assert!((s.probability_of(0) - 0.5).abs() < EPS);
        assert!((s.probability_of(0b1111) - 0.5).abs() < EPS);
    }

    #[test]
    fn unitarity_preserved_by_every_gate() {
        let gates: Vec<Gate> = vec![
            Gate::H(Qubit(0)),
            Gate::SqrtX(Qubit(1)),
            Gate::SqrtY(Qubit(2)),
            Gate::Rx(Qubit(0), 0.7),
            Gate::Ry(Qubit(1), -1.3),
            Gate::Rz(Qubit(2), 2.1),
            Gate::Cnot(Qubit(0), Qubit(1)),
            Gate::Cz(Qubit(1), Qubit(2)),
            Gate::Cphase(Qubit(0), Qubit(2), 0.9),
            Gate::Zz(Qubit(0), Qubit(1), 1.7),
            Gate::Xx(Qubit(1), Qubit(2), -0.6),
            Gate::Swap(Qubit(0), Qubit(2)),
            Gate::Toffoli(Qubit(0), Qubit(1), Qubit(2)),
        ];
        let mut s = State::random(3, 42);
        for g in &gates {
            s.apply(g);
            assert!((s.norm_sq() - 1.0).abs() < EPS, "{g:?} broke unitarity");
        }
    }

    #[test]
    fn optimized_kernels_match_naive_per_gate() {
        let gates: Vec<Gate> = vec![
            Gate::H(Qubit(3)),
            Gate::X(Qubit(0)),
            Gate::Y(Qubit(4)),
            Gate::Z(Qubit(2)),
            Gate::S(Qubit(1)),
            Gate::Sdg(Qubit(3)),
            Gate::T(Qubit(0)),
            Gate::Tdg(Qubit(4)),
            Gate::SqrtX(Qubit(2)),
            Gate::SqrtY(Qubit(1)),
            Gate::Rx(Qubit(0), 0.7),
            Gate::Ry(Qubit(1), -1.3),
            Gate::Rz(Qubit(2), 2.1),
            Gate::Cnot(Qubit(0), Qubit(3)),
            Gate::Cnot(Qubit(3), Qubit(0)),
            Gate::Cz(Qubit(1), Qubit(4)),
            Gate::Cphase(Qubit(4), Qubit(0), 0.9),
            Gate::Zz(Qubit(0), Qubit(2), 1.7),
            Gate::Xx(Qubit(1), Qubit(3), -0.6),
            Gate::Xx(Qubit(4), Qubit(1), 0.4),
            Gate::Swap(Qubit(0), Qubit(4)),
            Gate::Swap(Qubit(4), Qubit(2)),
            Gate::Toffoli(Qubit(0), Qubit(1), Qubit(3)),
            Gate::Toffoli(Qubit(4), Qubit(2), Qubit(0)),
        ];
        let mut fast = State::random(5, 7);
        let mut slow = fast.clone();
        for g in &gates {
            fast.apply(g);
            slow.apply_naive(g);
            for x in 0..32 {
                let (a, b) = (fast.amplitude(x), slow.amplitude(x));
                assert!(
                    (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                    "{g:?} diverged at index {x}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn pauli_identities() {
        // X = H Z H.
        let mut lhs = Circuit::new(1);
        lhs.x(Qubit(0));
        let mut rhs = Circuit::new(1);
        rhs.h(Qubit(0)).z(Qubit(0)).h(Qubit(0));
        assert_equivalent(1, &lhs, &rhs);
        // S·S = Z, T·T = S.
        let mut ss = Circuit::new(1);
        ss.s(Qubit(0)).s(Qubit(0));
        let mut z = Circuit::new(1);
        z.z(Qubit(0));
        assert_equivalent(1, &ss, &z);
        let mut tt = Circuit::new(1);
        tt.t(Qubit(0)).t(Qubit(0));
        let mut s1 = Circuit::new(1);
        s1.s(Qubit(0));
        assert_equivalent(1, &tt, &s1);
    }

    #[test]
    fn sqrt_gates_square_to_paulis() {
        let mut sxsx = Circuit::new(1);
        sxsx.push(Gate::SqrtX(Qubit(0))).push(Gate::SqrtX(Qubit(0)));
        let mut x = Circuit::new(1);
        x.x(Qubit(0));
        assert_equivalent(1, &sxsx, &x);
        let mut sysy = Circuit::new(1);
        sysy.push(Gate::SqrtY(Qubit(0))).push(Gate::SqrtY(Qubit(0)));
        let mut y = Circuit::new(1);
        y.y(Qubit(0));
        assert_equivalent(1, &sysy, &y);
    }

    #[test]
    fn cz_is_symmetric_and_hadamard_conjugate_of_cnot() {
        let mut ab = Circuit::new(2);
        ab.cz(Qubit(0), Qubit(1));
        let mut ba = Circuit::new(2);
        ba.cz(Qubit(1), Qubit(0));
        assert_equivalent(2, &ab, &ba);
        let mut viacx = Circuit::new(2);
        viacx.h(Qubit(1)).cnot(Qubit(0), Qubit(1)).h(Qubit(1));
        assert_equivalent(2, &ab, &viacx);
    }

    #[test]
    fn swap_is_three_cnots() {
        let mut sw = Circuit::new(2);
        sw.swap(Qubit(0), Qubit(1));
        let mut cx3 = Circuit::new(2);
        cx3.cnot(Qubit(0), Qubit(1))
            .cnot(Qubit(1), Qubit(0))
            .cnot(Qubit(0), Qubit(1));
        assert_equivalent(2, &sw, &cx3);
    }

    #[test]
    fn zz_via_cnot_conjugation() {
        // ZZ(θ) = CX · Rz_t(θ) · CX.
        let theta = 0.83;
        let mut zz = Circuit::new(2);
        zz.zz(Qubit(0), Qubit(1), theta);
        let mut via = Circuit::new(2);
        via.cnot(Qubit(0), Qubit(1))
            .rz(Qubit(1), theta)
            .cnot(Qubit(0), Qubit(1));
        assert_equivalent(2, &zz, &via);
    }

    #[test]
    fn xx_is_hadamard_conjugated_zz() {
        let theta = -1.1;
        let mut xx = Circuit::new(2);
        xx.xx(Qubit(0), Qubit(1), theta);
        let mut via = Circuit::new(2);
        via.h(Qubit(0)).h(Qubit(1));
        via.zz(Qubit(0), Qubit(1), theta);
        via.h(Qubit(0)).h(Qubit(1));
        assert_equivalent(2, &xx, &via);
    }

    #[test]
    fn cphase_from_rz_and_cnots() {
        let lambda = 1.9;
        let mut cp = Circuit::new(2);
        cp.cphase(Qubit(0), Qubit(1), lambda);
        let mut via = Circuit::new(2);
        via.rz(Qubit(0), lambda / 2.0);
        via.cnot(Qubit(0), Qubit(1));
        via.rz(Qubit(1), -lambda / 2.0);
        via.cnot(Qubit(0), Qubit(1));
        via.rz(Qubit(1), lambda / 2.0);
        assert_equivalent(2, &cp, &via);
    }

    #[test]
    fn toffoli_truth_table() {
        for x in 0..8usize {
            let mut c = Circuit::new(3);
            c.toffoli(Qubit(0), Qubit(1), Qubit(2));
            let s = State::basis(3, x).run(&c);
            let expect = if x & 0b011 == 0b011 { x ^ 0b100 } else { x };
            assert!((s.probability_of(expect) - 1.0).abs() < EPS, "input {x}");
        }
    }

    #[test]
    fn permute_qubits_relabels() {
        // |q0=1, q1=0, q2=0⟩ = |001⟩; sending q0 → q2 gives |100⟩.
        let s = State::basis(3, 0b001);
        let p = s.permute_qubits(&[2, 1, 0]);
        assert!((p.probability_of(0b100) - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        State::zero(2).permute_qubits(&[0, 0]);
    }

    #[test]
    fn rotations_compose_to_identity() {
        let mut c = Circuit::new(1);
        c.rx(Qubit(0), FRAC_PI_2)
            .rx(Qubit(0), -FRAC_PI_2)
            .ry(Qubit(0), PI)
            .ry(Qubit(0), -PI)
            .rz(Qubit(0), FRAC_PI_4)
            .rz(Qubit(0), -FRAC_PI_4);
        assert_equivalent(1, &c, &Circuit::new(1));
    }

    #[test]
    fn try_zero_respects_cap() {
        assert!(State::try_zero_with_cap(10, 10).is_ok());
        let err = State::try_zero_with_cap(11, 10).unwrap_err();
        assert_eq!(
            err,
            StateError::TooManyQubits {
                n_qubits: 11,
                cap: 10
            }
        );
        // Caps above the default are honoured (2^25 amplitudes = 512 MiB
        // would succeed; use a width that stays cheap to keep CI fast).
        assert!(State::try_zero_with_cap(4, 30).is_ok());
    }

    #[test]
    fn try_zero_rejects_absurd_widths_gracefully() {
        // Wider than the pointer size can even index: must be an Err,
        // not a shift overflow.
        let err = State::try_zero_with_cap(200, 300).unwrap_err();
        assert!(matches!(err, StateError::TooManyQubits { .. }));
    }

    #[test]
    #[should_panic(expected = "default qubit cap")]
    fn zero_still_panics_beyond_default_cap() {
        State::zero(DEFAULT_MAX_QUBITS + 1);
    }

    #[test]
    fn degenerate_same_operand_gates_match_naive() {
        // `cx q, q` and friends are constructible (QASM only
        // range-checks); the optimized paths must keep the seed's
        // semantics for them, e.g. Cz(q,q) ≡ Z(q), Cnot(q,q) ≡ I.
        let gates = [
            Gate::Cnot(Qubit(1), Qubit(1)),
            Gate::Cz(Qubit(2), Qubit(2)),
            Gate::Cphase(Qubit(0), Qubit(0), 0.7),
            Gate::Zz(Qubit(1), Qubit(1), 1.3),
            Gate::Xx(Qubit(2), Qubit(2), -0.9),
            Gate::Swap(Qubit(0), Qubit(0)),
            Gate::Toffoli(Qubit(0), Qubit(0), Qubit(2)),
            Gate::Toffoli(Qubit(0), Qubit(2), Qubit(2)),
        ];
        for g in &gates {
            let mut c = Circuit::new(3);
            c.h(Qubit(0)).push(*g).t(Qubit(1));
            let probe = State::random(3, 5);
            let mut fast = probe.clone();
            let mut slow = probe.clone();
            fast.apply(g);
            slow.apply_naive(g);
            assert_eq!(fast, slow, "{g:?} diverged in apply");
            let run = probe.clone().run(&c);
            let reference = probe.run_naive(&c);
            let f = run.fidelity(&reference);
            assert!((f - 1.0).abs() < 1e-12, "{g:?} diverged in run: {f}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the register")]
    fn apply_rejects_out_of_range_operand() {
        // The naive path panics on out-of-range operands (raw index out
        // of bounds); the optimized kernels must be just as loud rather
        // than silently applying nothing.
        State::zero(2).apply(&Gate::H(Qubit(5)));
    }

    #[test]
    #[should_panic(expected = "outside the register")]
    fn apply_rejects_out_of_range_two_qubit_operand() {
        State::zero(3).apply(&Gate::Cnot(Qubit(0), Qubit(7)));
    }
}
