//! Logical-to-physical qubit mapping (`M` in the paper, Table I).
//!
//! A [`Mapping`] is a permutation between logical qubits and tape
//! positions. The router mutates it swap by swap (`M ← M_{qi,qj}` in
//! Algorithm 1); the [`InitialMapping`] strategies produce the starting
//! permutation, adopting the heuristic initial-placement approach of the
//! paper (§IV-C, citing Li et al.\[51\] and Itoko et al.\[40\]).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tilt_circuit::{Circuit, Qubit};

/// A bijection between logical qubits and physical tape positions.
///
/// Both directions are stored so lookups are O(1) either way; the
/// invariant `phys_to_log[log_to_phys[q]] == q` is maintained by every
/// mutation and checked in debug builds.
///
/// # Example
///
/// ```
/// use tilt_compiler::Mapping;
/// use tilt_circuit::Qubit;
///
/// let mut m = Mapping::identity(4);
/// m.swap_positions(0, 3);
/// assert_eq!(m.position_of(Qubit(0)), 3);
/// assert_eq!(m.logical_at(0), Qubit(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    log_to_phys: Vec<usize>,
    phys_to_log: Vec<usize>,
}

impl Mapping {
    /// The identity mapping over `n` qubits.
    pub fn identity(n: usize) -> Self {
        Mapping {
            log_to_phys: (0..n).collect(),
            phys_to_log: (0..n).collect(),
        }
    }

    /// Builds a mapping from a `log_to_phys` permutation.
    ///
    /// # Panics
    ///
    /// Panics if `log_to_phys` is not a permutation of `0..n`.
    pub fn from_log_to_phys(log_to_phys: Vec<usize>) -> Self {
        let n = log_to_phys.len();
        let mut phys_to_log = vec![usize::MAX; n];
        for (l, &p) in log_to_phys.iter().enumerate() {
            assert!(p < n, "position {p} out of range");
            assert_eq!(phys_to_log[p], usize::MAX, "position {p} assigned twice");
            phys_to_log[p] = l;
        }
        Mapping {
            log_to_phys,
            phys_to_log,
        }
    }

    /// Number of qubits/positions.
    pub fn len(&self) -> usize {
        self.log_to_phys.len()
    }

    /// True for the zero-qubit mapping.
    pub fn is_empty(&self) -> bool {
        self.log_to_phys.is_empty()
    }

    /// Tape position of logical qubit `q`.
    #[inline]
    pub fn position_of(&self, q: Qubit) -> usize {
        self.log_to_phys[q.index()]
    }

    /// Logical qubit at tape position `pos`.
    #[inline]
    pub fn logical_at(&self, pos: usize) -> Qubit {
        Qubit(self.phys_to_log[pos])
    }

    /// Physical distance `d_g` between the operands of a logical pair.
    #[inline]
    pub fn distance(&self, a: Qubit, b: Qubit) -> usize {
        self.position_of(a).abs_diff(self.position_of(b))
    }

    /// Swaps the logical qubits at tape positions `pa` and `pb` — the
    /// effect of a SWAP gate on the layout (`M_{qi,qj}` in the paper).
    pub fn swap_positions(&mut self, pa: usize, pb: usize) {
        let la = self.phys_to_log[pa];
        let lb = self.phys_to_log[pb];
        self.phys_to_log.swap(pa, pb);
        self.log_to_phys[la] = pb;
        self.log_to_phys[lb] = pa;
        debug_assert!(self.is_consistent());
    }

    /// Rewrites a logical circuit into physical coordinates under this
    /// (fixed) mapping.
    pub fn apply(&self, circuit: &Circuit) -> Circuit {
        circuit.map_qubits(self.len(), |q| Qubit(self.position_of(q)))
    }

    /// The full logical→physical table.
    pub fn log_to_phys(&self) -> &[usize] {
        &self.log_to_phys
    }

    fn is_consistent(&self) -> bool {
        self.log_to_phys
            .iter()
            .enumerate()
            .all(|(l, &p)| self.phys_to_log[p] == l)
    }
}

/// Initial-placement strategies for the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitialMapping {
    /// Logical qubit `i` starts at tape position `i`. The paper's
    /// benchmarks are generated with locality already in mind (e.g. the
    /// interleaved Cuccaro layout), so identity is the default.
    #[default]
    Identity,
    /// Reverse order (stress-test placement).
    Reverse,
    /// Greedy interaction-weighted chain placement: repeatedly extend the
    /// tape with the unplaced qubit most strongly coupled to the current
    /// endpoint, seeded from the heaviest interaction pair. This is the
    /// 1-D adaptation of the heuristic initial mappings of [40, 51].
    InteractionChain,
    /// Uniformly random permutation from the given seed (ablation).
    Random(u64),
}

impl InitialMapping {
    /// Builds the starting permutation for `circuit` on `n_ions` positions.
    ///
    /// The circuit may be narrower than the tape; the strategy permutes all
    /// `n_ions` positions, with unused logical indices acting as spectator
    /// ions.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the tape.
    pub fn build(self, circuit: &Circuit, n_ions: usize) -> Mapping {
        assert!(
            circuit.n_qubits() <= n_ions,
            "circuit wider than tape: {} > {}",
            circuit.n_qubits(),
            n_ions
        );
        match self {
            InitialMapping::InteractionChain => interaction_chain(circuit, n_ions),
            circuit_free => circuit_free
                .build_streaming(n_ions)
                .expect("only InteractionChain needs the circuit"),
        }
    }

    /// Builds the starting permutation without a circuit, for the
    /// streaming pipeline (where no materialized circuit exists to
    /// inspect). Identical to [`InitialMapping::build`] for the
    /// circuit-independent strategies; returns `None` for
    /// [`InitialMapping::InteractionChain`], which must weigh the whole
    /// interaction graph first.
    pub fn build_streaming(self, n_ions: usize) -> Option<Mapping> {
        match self {
            InitialMapping::Identity => Some(Mapping::identity(n_ions)),
            InitialMapping::Reverse => Some(Mapping::from_log_to_phys((0..n_ions).rev().collect())),
            InitialMapping::Random(seed) => {
                let mut perm: Vec<usize> = (0..n_ions).collect();
                perm.shuffle(&mut SmallRng::seed_from_u64(seed));
                Some(Mapping::from_log_to_phys(perm))
            }
            InitialMapping::InteractionChain => None,
        }
    }
}

/// Greedy 1-D placement by interaction weight.
fn interaction_chain(circuit: &Circuit, n_ions: usize) -> Mapping {
    let n = circuit.n_qubits();
    let pairs = circuit.interaction_pairs();
    if pairs.is_empty() {
        return Mapping::identity(n_ions);
    }

    // Dense weight matrix over logical qubits.
    let mut w = vec![vec![0usize; n]; n];
    for (&(a, b), &count) in &pairs {
        w[a.index()][b.index()] += count;
        w[b.index()][a.index()] += count;
    }

    // Seed the chain with the heaviest pair, then greedily extend at both
    // ends with the strongest coupling to the respective endpoint.
    let (&(sa, sb), _) = pairs
        .iter()
        .max_by_key(|(&(a, b), &c)| (c, std::cmp::Reverse((a, b))))
        .expect("non-empty pairs");
    let mut chain: std::collections::VecDeque<usize> =
        [sa.index(), sb.index()].into_iter().collect();
    let mut placed = vec![false; n];
    placed[sa.index()] = true;
    placed[sb.index()] = true;

    while chain.len() < n {
        let front = *chain.front().expect("chain is non-empty");
        let back = *chain.back().expect("chain is non-empty");
        let best_for = |end: usize| {
            (0..n)
                .filter(|&q| !placed[q])
                .map(|q| (w[end][q], q))
                .max_by_key(|&(wt, q)| (wt, std::cmp::Reverse(q)))
        };
        let (wf, qf) = best_for(front).expect("unplaced qubit exists");
        let (wb, qb) = best_for(back).expect("unplaced qubit exists");
        if wf > wb {
            placed[qf] = true;
            chain.push_front(qf);
        } else {
            placed[qb] = true;
            chain.push_back(qb);
        }
    }

    let mut log_to_phys = vec![usize::MAX; n_ions];
    for (pos, q) in chain.iter().enumerate() {
        log_to_phys[*q] = pos;
    }
    // Spectator logical indices fill the remaining positions in order.
    let mut next = n;
    for slot in &mut log_to_phys {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
        }
    }
    Mapping::from_log_to_phys(log_to_phys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trips() {
        let m = Mapping::identity(8);
        for i in 0..8 {
            assert_eq!(m.position_of(Qubit(i)), i);
            assert_eq!(m.logical_at(i), Qubit(i));
        }
    }

    #[test]
    fn swap_positions_updates_both_tables() {
        let mut m = Mapping::identity(5);
        m.swap_positions(1, 4);
        assert_eq!(m.position_of(Qubit(1)), 4);
        assert_eq!(m.position_of(Qubit(4)), 1);
        assert_eq!(m.logical_at(1), Qubit(4));
        assert_eq!(m.logical_at(4), Qubit(1));
        // Others untouched.
        assert_eq!(m.position_of(Qubit(2)), 2);
    }

    #[test]
    fn distance_uses_positions() {
        let mut m = Mapping::identity(10);
        assert_eq!(m.distance(Qubit(0), Qubit(9)), 9);
        m.swap_positions(0, 8);
        assert_eq!(m.distance(Qubit(0), Qubit(9)), 1);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_position_rejected() {
        Mapping::from_log_to_phys(vec![0, 0, 1]);
    }

    #[test]
    fn apply_rewrites_circuit() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(2));
        let m = Mapping::from_log_to_phys(vec![2, 1, 0]);
        let physical = m.apply(&c);
        assert_eq!(*physical.gates()[0].operands(), [Qubit(2), Qubit(0)]);
    }

    #[test]
    fn reverse_strategy() {
        let c = Circuit::new(4);
        let m = InitialMapping::Reverse.build(&c, 4);
        assert_eq!(m.position_of(Qubit(0)), 3);
        assert_eq!(m.position_of(Qubit(3)), 0);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let c = Circuit::new(16);
        let a = InitialMapping::Random(9).build(&c, 16);
        let b = InitialMapping::Random(9).build(&c, 16);
        let d = InitialMapping::Random(10).build(&c, 16);
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn interaction_chain_places_coupled_qubits_adjacently() {
        // Star circuit: q0 interacts with everyone; chain placement keeps
        // q0 near its partners, beating identity's worst-case spread.
        let mut c = Circuit::new(6);
        for i in 1..6 {
            c.cnot(Qubit(0), Qubit(i));
            c.cnot(Qubit(0), Qubit(i));
        }
        let m = InitialMapping::InteractionChain.build(&c, 6);
        let total: usize = (1..6).map(|i| m.distance(Qubit(0), Qubit(i))).sum();
        let identity_total: usize = (1..6).sum();
        assert!(total <= identity_total);
    }

    #[test]
    fn interaction_chain_covers_all_positions() {
        let mut c = Circuit::new(5);
        c.cnot(Qubit(0), Qubit(4)).cnot(Qubit(1), Qubit(3));
        let m = InitialMapping::InteractionChain.build(&c, 8);
        let mut seen = [false; 8];
        for i in 0..8 {
            seen[m.position_of(Qubit(i))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interaction_chain_without_two_qubit_gates_is_identity() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        let m = InitialMapping::InteractionChain.build(&c, 4);
        assert_eq!(m, Mapping::identity(4));
    }

    #[test]
    #[should_panic(expected = "wider than tape")]
    fn circuit_wider_than_tape_panics() {
        InitialMapping::Identity.build(&Circuit::new(10), 8);
    }
}
