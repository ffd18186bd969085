//! A fixed reference computation timed on both sides of every job.
//!
//! A small virtual machine changes speed for seconds to hours (a busy
//! neighbour on the host core), so even a CPU time says as much about
//! the host as about the program. Before and after every job the benchmark
//! times this computation, which is the same in every run and uses none
//! of the program's code, and scales the job's end-to-end times by
//! [`REFERENCE_MS`] over the mean of the two readings: the figures are
//! milliseconds on a host on which one calibration takes
//! [`REFERENCE_MS`]. A change to the program moves them; a change of
//! host speed moves the calibration with them and cancels. The raw
//! figures are printed beside the scaled ones.
//!
//! The computation does the two kinds of work the workloads do, on data
//! that stays in the per-core cache: complex rotations over an array,
//! as the state vector and the estimators do, and sorting and
//! ordered-map inserts of pseudo-random keys, branchy integer work with
//! allocation, as the parser and the compiler do. Of the candidates
//! tried (each part alone, dependent random reads over a table, and
//! streaming over an array in the shared cache), this mixture is the one
//! whose time followed the workloads' from job to job.

use crate::clock::CpuTime;
use crate::splitmix;
use std::collections::BTreeMap;
use std::hint::black_box;

/// `f64`s of the rotated array (512 KiB).
const WAVE: usize = 1 << 16;
/// Passes of the rotation over the array.
const PASSES: usize = 24;
/// Keys sorted per round, and the share of them inserted in a map.
const KEYS: usize = 8192;
const INSERTS: usize = 2048;
const ROUNDS: u32 = 3;

/// Calibration time, in ms, of the host the reported figures are
/// scaled to. Any fixed value serves: it only sets the unit.
pub const REFERENCE_MS: f64 = 2.0;

/// The scale of work done between calibration readings `a` and `b`.
pub fn scale(a: f64, b: f64) -> f64 {
    2.0 * REFERENCE_MS / (a + b)
}

pub struct Calibration {
    wave: Vec<f64>,
    keys: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut state = 9;
        Calibration {
            wave: (0..WAVE).map(|i| (i % 7) as f64 + 0.5).collect(),
            keys: (0..KEYS).map(|_| splitmix(&mut state) as u32).collect(),
        }
    }

    /// Runs the computation once; returns its time in ms.
    pub fn run(&mut self) -> f64 {
        let t = CpuTime::now();
        // A rotation by the 3-4-5 angle keeps every value's magnitude.
        let (c, s) = (0.6_f64, 0.8_f64);
        for _ in 0..PASSES {
            for pair in self.wave.chunks_exact_mut(2) {
                let (re, im) = (pair[0], pair[1]);
                pair[0] = re * c - im * s;
                pair[1] = re * s + im * c;
            }
            black_box(&mut self.wave);
        }
        for round in 0..ROUNDS {
            let mut keys: Vec<u32> = self.keys.iter().map(|k| k.rotate_left(round)).collect();
            keys.sort_unstable();
            let map: BTreeMap<u32, u32> = keys[..INSERTS]
                .iter()
                .map(|&k| (k.wrapping_mul(0x9E37_79B1), k))
                .collect();
            black_box((keys, map));
        }
        crate::stats::ms(t.elapsed())
    }
}
