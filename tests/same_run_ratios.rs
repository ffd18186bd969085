//! The state-vector kernels' same-run speedups, held to the last line of
//! `bench/ledger.jsonl`.
//!
//! Two ratios are timed back to back in one process on the 20-qubit QFT,
//! so the runner's speed cancels out of each:
//!
//! * `naive_over_optimised`: the retained naive full-scan path
//!   ([`State::run_naive`]) against the pair-indexed kernels, gate by
//!   gate ([`State::run`]);
//! * `scalar_over_simd`: the forced-scalar tier against the dispatched
//!   kernel tier.
//!
//! Every path runs on one thread, so the ratios do not depend on the
//! runner's core count.
//!
//! Each must reach [`MIN_SHARE`] of the median the ledger's `same_run`
//! field records. When this process dispatches to another kernel tier
//! than the recorded one, the SIMD ratio is skipped with a printed
//! reason, and the naive ratio is held to the recorded scalar tier's.
//! Timings mean nothing in a debug build, so the test runs only in
//! release: `cargo test --release --test same_run_ratios -- --nocapture`
//! prints the measured ratios.

use std::time::Instant;
use tilt::benchmarks::qft::qft;
use tilt::report::Json;
use tilt::statevec::{simd, State};

const LEDGER: &str = include_str!("../bench/ledger.jsonl");

/// A ratio fails below this share of the ledger's median.
const MIN_SHARE: f64 = 0.8;

/// Rounds of the optimised and scalar timings.
const ROUNDS: usize = 9;

/// Rounds that also time the naive path, ~2x slower than the others.
const NAIVE_ROUNDS: usize = 5;

/// Seconds `run` takes on a fresh copy of `probe`. The copy is made
/// and dropped outside the timing, so the page faults of a 16 MiB
/// allocation are no part of it.
fn seconds(probe: &State, run: impl FnOnce(State) -> State) -> f64 {
    let state = probe.clone();
    let t0 = Instant::now();
    let out = std::hint::black_box(run(state));
    let t = t0.elapsed().as_secs_f64();
    drop(out);
    t
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing ratios need a release build")]
fn statevec_speedups_hold_against_the_ledger() {
    let _tier = simd::test_tier_lock();
    let circuit = qft(20);
    let probe = State::random(20, 1);
    let optimised = |s: State| s.run(&circuit);
    // Each round times the paths back to back and takes their ratios, so
    // the host's speed at that moment cancels out; the median over the
    // rounds drops the rounds that other processes slowed unevenly.
    let (mut naive_ratios, mut simd_ratios) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let t_opt = seconds(&probe, optimised);
        simd::force_scalar(true);
        let t_scalar = seconds(&probe, optimised);
        simd::force_scalar(false);
        simd_ratios.push(t_scalar / t_opt);
        if round < NAIVE_ROUNDS {
            naive_ratios.push(seconds(&probe, |s| s.run_naive(&circuit)) / t_opt);
        }
    }
    let tier = simd::tier_name();
    let naive_ratio = median(naive_ratios);
    let simd_ratio = median(simd_ratios);
    println!(
        "same_run: kernel_tier {tier}, naive_over_optimised {naive_ratio:.3}, \
         scalar_over_simd {simd_ratio:.3}"
    );

    let last = LEDGER.lines().rfind(|l| !l.trim().is_empty()).unwrap();
    let line = Json::parse(last).expect("the last ledger line parses");
    let same_run = line
        .get("same_run")
        .expect("the last ledger line records same_run medians");
    let recorded = |key: &str| {
        let x = same_run.get(key).and_then(Json::as_f64);
        x.unwrap_or_else(|| panic!("same_run has no {key}"))
    };
    let recorded_tier = same_run.get("kernel_tier").and_then(Json::as_str);
    let same_tier = recorded_tier == Some(tier);
    // On another tier the optimised path runs other kernels: held to the
    // recorded scalar tier's speedup, the quotient of the two medians.
    let want = if same_tier {
        recorded("naive_over_optimised")
    } else {
        recorded("naive_over_optimised") / recorded("scalar_over_simd")
    };
    assert!(
        naive_ratio >= MIN_SHARE * want,
        "optimised kernels are {naive_ratio:.2}x the naive path, below {MIN_SHARE} of the \
         ledger's {want:.2}x"
    );
    if !same_tier {
        println!(
            "skipped scalar_over_simd: this process runs the {tier} tier, the ledger \
             recorded {recorded_tier:?}"
        );
        return;
    }
    let want = recorded("scalar_over_simd");
    assert!(
        simd_ratio >= MIN_SHARE * want,
        "the {tier} tier is {simd_ratio:.2}x the scalar tier, below {MIN_SHARE} of the \
         ledger's {want:.2}x"
    );
}
