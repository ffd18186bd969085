//! Ordered gate sequences with a builder-style API.

use crate::gate::Gate;
use crate::qubit::Qubit;
use crate::stats::CircuitStats;
use std::fmt;

/// A quantum circuit: a register of `n` qubits and an ordered list of gates.
///
/// The order is program order; parallelism is recovered by dependency
/// analysis, not encoded here. Builder methods push gates and return
/// `&mut self` so construction chains naturally:
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(3);
/// c.h(Qubit(0)).cnot(Qubit(0), Qubit(1)).cnot(Qubit(1), Qubit(2));
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.two_qubit_count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates an empty circuit with gate-list capacity reserved up front.
    pub fn with_capacity(n_qubits: usize, capacity: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::with_capacity(capacity),
        }
    }

    /// Builds a circuit from an iterator of gates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any gate references a qubit `>= n_qubits`;
    /// use [`crate::validate()`](crate::validate()) for a fallible check.
    pub fn from_gates(n_qubits: usize, gates: impl IntoIterator<Item = Gate>) -> Self {
        let gates: Vec<Gate> = gates.into_iter().collect();
        debug_assert!(
            gates
                .iter()
                .flat_map(Gate::qubits)
                .all(|q| q.index() < n_qubits),
            "gate references qubit outside register"
        );
        Circuit { n_qubits, gates }
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates (including barriers and measurements).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit holds no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterate over gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Mutable access to the gate list. In-place edits bypass the
    /// builder methods' structure, so callers own any invariants they
    /// break — the static verifier's mutation tests use this to seed
    /// deliberate corruptions into compiled artifacts.
    pub fn gates_mut(&mut self) -> &mut [Gate] {
        &mut self.gates
    }

    /// Appends one gate.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.gates.push(gate);
        self
    }

    /// Clears the gate list and resizes the register to `n_qubits`,
    /// keeping the allocated gate capacity. This is the reuse hook for
    /// batch compilation: a scratch circuit reset between programs
    /// amortizes its allocation across the whole batch.
    pub fn reset(&mut self, n_qubits: usize) -> &mut Self {
        self.n_qubits = n_qubits;
        self.gates.clear();
        self
    }

    /// Appends every gate of `other` (registers must match in width).
    ///
    /// # Panics
    ///
    /// Panics if `other` is wider than `self`.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit circuit",
            self.n_qubits,
            other.n_qubits
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    /// Number of two-qubit gates — the "2Q Gates" column of Table II.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit unitaries.
    pub fn single_qubit_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.is_single_qubit_unitary())
            .count()
    }

    /// True when every gate is in the trapped-ion native set.
    pub fn is_native(&self) -> bool {
        self.gates.iter().all(Gate::is_native)
    }

    /// True when every gate is Clifford (per [`Gate::is_clifford`],
    /// which admits measurement, reset, and barriers) — the condition
    /// under which the stabilizer tableau backend simulates the whole
    /// circuit exactly, and what the engine's `Auto` simulator
    /// selection tests.
    pub fn is_clifford(&self) -> bool {
        self.gates.iter().all(Gate::is_clifford)
    }

    /// Circuit depth: the length of the longest dependency chain.
    ///
    /// Computed with a linear scan tracking per-qubit completion levels;
    /// barriers synchronise all qubits.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut barrier_level = 0usize;
        for g in &self.gates {
            if matches!(g, Gate::Barrier) {
                barrier_level = level.iter().copied().max().unwrap_or(0).max(barrier_level);
                continue;
            }
            let qs = g.qubits();
            let start = qs
                .iter()
                .map(|q| level[q.index()])
                .max()
                .unwrap_or(0)
                .max(barrier_level);
            for q in qs {
                level[q.index()] = start + 1;
            }
        }
        level.into_iter().max().unwrap_or(0).max(barrier_level)
    }

    /// Gate, depth, and interaction statistics in one pass.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::of(self)
    }

    /// Returns a new circuit with every qubit operand rewritten through `f`.
    ///
    /// `new_width` is the register width of the result (a remapping may
    /// embed the circuit in a wider physical register).
    pub fn map_qubits(&self, new_width: usize, mut f: impl FnMut(Qubit) -> Qubit) -> Circuit {
        Circuit {
            n_qubits: new_width,
            gates: self.gates.iter().map(|g| g.map_qubits(&mut f)).collect(),
        }
    }

    /// The set of distinct two-qubit interaction pairs `(min, max)` with
    /// multiplicities, i.e. the weighted interaction graph used by the
    /// initial mapping heuristic.
    pub fn interaction_pairs(&self) -> std::collections::HashMap<(Qubit, Qubit), usize> {
        let mut pairs = std::collections::HashMap::new();
        for g in &self.gates {
            if g.is_two_qubit() {
                let qs = g.qubits();
                let key = (qs[0].min(qs[1]), qs[0].max(qs[1]));
                *pairs.entry(key).or_insert(0) += 1;
            }
        }
        pairs
    }

    // --- builder helpers ---------------------------------------------------

    /// Appends a Hadamard.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::H(q))
    }
    /// Appends a Pauli-X.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::X(q))
    }
    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Y(q))
    }
    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Z(q))
    }
    /// Appends an S gate.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::S(q))
    }
    /// Appends an S† gate.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Sdg(q))
    }
    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::T(q))
    }
    /// Appends a T† gate.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Tdg(q))
    }
    /// Appends an Rx rotation.
    pub fn rx(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Rx(q, angle))
    }
    /// Appends an Ry rotation.
    pub fn ry(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Ry(q, angle))
    }
    /// Appends an Rz rotation.
    pub fn rz(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Rz(q, angle))
    }
    /// Appends a CNOT.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::Cnot(control, target))
    }
    /// Appends a CZ.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }
    /// Appends a controlled phase rotation.
    pub fn cphase(&mut self, a: Qubit, b: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Cphase(a, b, angle))
    }
    /// Appends a ZZ interaction.
    pub fn zz(&mut self, a: Qubit, b: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Zz(a, b, angle))
    }
    /// Appends a Mølmer–Sørensen XX interaction.
    pub fn xx(&mut self, a: Qubit, b: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Xx(a, b, angle))
    }
    /// Appends a SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }
    /// Appends a Toffoli.
    pub fn toffoli(&mut self, c0: Qubit, c1: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::Toffoli(c0, c1, target))
    }
    /// Appends a measurement.
    pub fn measure(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Measure(q))
    }
    /// Appends a qubit re-initialization (|0⟩ via optical pumping).
    /// Distinct from [`Circuit::reset`], which clears the *gate list*.
    pub fn reset_qubit(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Reset(q))
    }
    /// Appends a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Gate::Barrier)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates]",
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        self.gates.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        c
    }

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(1)).measure(Qubit(1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn ghz_stats() {
        let c = ghz(5);
        assert_eq!(c.two_qubit_count(), 4);
        assert_eq!(c.single_qubit_count(), 1);
        assert_eq!(c.depth(), 5);
    }

    #[test]
    fn depth_of_parallel_gates() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0)).h(Qubit(1)).h(Qubit(2)).h(Qubit(3));
        assert_eq!(c.depth(), 1);
        c.cnot(Qubit(0), Qubit(1)).cnot(Qubit(2), Qubit(3));
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn depth_of_empty_circuit_is_zero() {
        assert_eq!(Circuit::new(8).depth(), 0);
    }

    #[test]
    fn barrier_synchronises_depth() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.barrier();
        c.h(Qubit(1));
        // q1's H cannot start before the barrier completes level 1.
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn map_qubits_embeds_in_wider_register() {
        let c = ghz(3);
        let mapped = c.map_qubits(10, |q| Qubit(q.index() + 7));
        assert_eq!(mapped.n_qubits(), 10);
        assert_eq!(mapped.gates()[1].qubits(), vec![Qubit(7), Qubit(8)]);
    }

    #[test]
    fn interaction_pairs_are_canonical_and_weighted() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(2), Qubit(0));
        c.cnot(Qubit(0), Qubit(2));
        c.cz(Qubit(1), Qubit(2));
        let pairs = c.interaction_pairs();
        assert_eq!(pairs[&(Qubit(0), Qubit(2))], 2);
        assert_eq!(pairs[&(Qubit(1), Qubit(2))], 1);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = ghz(3);
        let b = ghz(3);
        let before = a.len();
        a.extend_from(&b);
        assert_eq!(a.len(), before + b.len());
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn extend_from_wider_panics() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.extend_from(&b);
    }

    #[test]
    fn iterator_yields_program_order() {
        let c = ghz(3);
        let names: Vec<_> = c.iter().map(super::super::gate::Gate::name).collect();
        assert_eq!(names, vec!["h", "cx", "cx"]);
    }
}
