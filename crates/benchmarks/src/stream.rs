//! The scalable generators as lazy gate streams.
//!
//! The streaming compile pipeline takes `IntoIterator<Item = Gate>`, so
//! million-gate benchmark inputs should never exist as a materialized
//! [`Circuit`](tilt_circuit::Circuit) — that would reintroduce the
//! O(gates) footprint the pipeline exists to avoid. The generators here
//! yield the QFT and RCS gate sequences one gate at a time, holding only
//! O(qubits) state; [`qft::qft`] and [`rcs::random_circuit_sampling`]
//! are these streams, collected.
//!
//! [`qft::qft`]: crate::qft::qft
//! [`rcs::random_circuit_sampling`]: crate::rcs::random_circuit_sampling
//!
//! # Example
//!
//! ```
//! use tilt_benchmarks::stream::qft_stream;
//!
//! // n Hadamards and n(n-1)/2 five-gate controlled-phase networks.
//! assert_eq!(qft_stream(6).count(), 6 + 15 * 5);
//! ```

use crate::rcs::rcs_cycle_order;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use tilt_circuit::{cphase_network, Gate, Qubit};

/// The `n`-qubit QFT at the CNOT level as a lazy gate stream: for each
/// target `i`, a Hadamard, then the [`cphase_network`] of angle
/// `π/2^(j-i)` from every later qubit `j`.
///
/// Never holds more than one controlled-phase network in memory.
pub fn qft_stream(n: usize) -> QftStream {
    QftStream {
        n,
        i: 0,
        j: 0,
        buf: VecDeque::new(),
    }
}

/// Iterator behind [`qft_stream`].
#[derive(Clone, Debug)]
pub struct QftStream {
    n: usize,
    /// Target qubit of the current QFT block.
    i: usize,
    /// Next control within the block; `j == i` means the block's
    /// Hadamard is still pending.
    j: usize,
    buf: VecDeque<Gate>,
}

impl Iterator for QftStream {
    type Item = Gate;

    fn next(&mut self) -> Option<Gate> {
        loop {
            if let Some(g) = self.buf.pop_front() {
                return Some(g);
            }
            if self.i >= self.n {
                return None;
            }
            if self.j == self.i {
                self.buf.push_back(Gate::H(Qubit(self.i)));
            } else {
                let (i, j) = (self.i, self.j);
                let angle = std::f64::consts::PI / f64::powi(2.0, (j - i) as i32);
                self.buf.extend(cphase_network(Qubit(j), Qubit(i), angle));
            }
            self.j += 1;
            if self.j >= self.n {
                self.i += 1;
                self.j = self.i;
            }
        }
    }
}

/// The random-circuit-sampling benchmark of
/// [`crate::rcs::random_circuit_sampling`] as a lazy gate stream: a
/// Hadamard layer, then per cycle a seeded random gate from
/// `{√X, √Y, T}` on every qubit (never the qubit's previous choice) and
/// the CZs of the cycle's pattern.
///
/// Holds O(`rows·cols`) state (the per-qubit previous-choice table and
/// one cycle's gates), independent of `cycles` — crank `cycles` up for
/// million-gate streaming inputs.
pub fn rcs_stream(rows: usize, cols: usize, cycles: usize, seed: u64) -> RcsStream {
    RcsStream {
        rows,
        cols,
        cycles,
        rng: SmallRng::seed_from_u64(seed),
        prev: vec![None; rows * cols],
        cycle: 0,
        emitted_h: false,
        buf: VecDeque::new(),
    }
}

/// Iterator behind [`rcs_stream`].
#[derive(Clone, Debug)]
pub struct RcsStream {
    rows: usize,
    cols: usize,
    cycles: usize,
    rng: SmallRng,
    /// Previous single-qubit gate choice per qubit (0 = √X, 1 = √Y,
    /// 2 = T), for the no-repeat rule.
    prev: Vec<Option<u8>>,
    cycle: usize,
    emitted_h: bool,
    buf: VecDeque<Gate>,
}

impl Iterator for RcsStream {
    type Item = Gate;

    fn next(&mut self) -> Option<Gate> {
        loop {
            if let Some(g) = self.buf.pop_front() {
                return Some(g);
            }
            let n = self.rows * self.cols;
            if !self.emitted_h {
                self.emitted_h = true;
                self.buf.extend((0..n).map(|i| Gate::H(Qubit(i))));
                continue;
            }
            if self.cycle >= self.cycles {
                return None;
            }
            let cycle = self.cycle;
            self.cycle += 1;
            for (q, prev_q) in self.prev.iter_mut().enumerate() {
                let mut choice = self.rng.gen_range(0..3u8);
                while Some(choice) == *prev_q {
                    choice = self.rng.gen_range(0..3u8);
                }
                *prev_q = Some(choice);
                self.buf.push_back(match choice {
                    0 => Gate::SqrtX(Qubit(q)),
                    1 => Gate::SqrtY(Qubit(q)),
                    _ => Gate::T(Qubit(q)),
                });
            }
            for (a, b) in rcs_cycle_order(self.rows, self.cols, cycle) {
                self.buf.push_back(Gate::Cz(Qubit(a), Qubit(b)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Digests recorded from the loop builders that `qft` and
    // `random_circuit_sampling` replaced with collecting these streams.
    #[test]
    fn qft_stream_digests_are_pinned() {
        for (n, hex) in [
            (0, "0880945b4fab1be95aa0733055273845"),
            (1, "66a5c94f5f757277b806e89ae5846876"),
            (2, "26991da0b617e1090f23468374c9d011"),
            (5, "6a3d6455b91e11ef7555cec3f6449542"),
            (16, "a090a144478688008120be1af607a995"),
            (64, "c19e9018a37fcaec9e55d47677457d45"),
        ] {
            assert_eq!(crate::qft::qft(n).digest().to_hex(), hex, "n = {n}");
        }
    }

    #[test]
    fn rcs_stream_digests_are_pinned() {
        use crate::rcs::random_circuit_sampling;
        for ((rows, cols, cycles, seed), hex) in [
            ((2, 2, 0, 7), "de30933f056ed906b782f49d0be11ad9"),
            ((2, 3, 5, 1), "4344942cf2ed8601087b31d43d83badc"),
            ((4, 4, 9, 11), "1ae9f1c2d820f72fef35ea34df9c5058"),
        ] {
            let digest = random_circuit_sampling(rows, cols, cycles, seed).digest();
            assert_eq!(
                digest.to_hex(),
                hex,
                "{rows}x{cols} cycles {cycles} seed {seed}"
            );
        }
        let rcs64 = crate::rcs::rcs64().digest();
        assert_eq!(rcs64.to_hex(), "bdaf33c3fd463f5a10e094bcb36a9bb9");
    }

    #[test]
    fn rcs_stream_scales_cycles_without_scaling_state() {
        // A deep stream yields the shallow stream as a prefix: the state
        // machine is per-cycle, so depth only extends the tail.
        let shallow: Vec<Gate> = rcs_stream(2, 2, 3, 5).collect();
        let deep: Vec<Gate> = rcs_stream(2, 2, 50, 5).take(shallow.len()).collect();
        assert_eq!(shallow, deep);
    }

    #[test]
    fn streams_are_lazy_enough_for_million_gate_counts() {
        // Count without collecting: ~1.0M gates from a deep RCS stream.
        let count = rcs_stream(8, 8, 11_000, 11).count();
        assert!(count > 1_000_000, "{count}");
        let q = qft_stream(640).count();
        assert!(q > 1_000_000, "{q}");
    }
}
