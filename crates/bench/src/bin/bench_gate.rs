//! Bench-regression gate: compares the current `BENCH_*.json` records
//! against a baseline built from previous runs and fails on speedup
//! drops.
//!
//! ```text
//! bench_gate <baseline_dir> [current_dir (default ".")]
//! ```
//!
//! `baseline_dir` holds either one previous run's records directly, or
//! **subdirectories with one run each** (CI downloads the artifacts of
//! the last ≤5 successful main-branch runs into `prev-bench/run-*/`).
//! With several runs the baseline for every metric is the **rolling
//! median** across them, which resists a single noisy runner skewing
//! the yardstick; with one run it degrades to the old previous-run
//! comparison.
//!
//! Two tiers of metrics, both at a 20% tolerance:
//!
//! * **Gating** — the *same-run* speedup ratios (optimized vs retained
//!   baseline, measured within one process on one machine). These are
//!   insensitive to CI runner hardware, so a >20% drop against the
//!   median means the code actually got slower relative to its own
//!   baseline: exit 1.
//! * **Advisory** — absolute throughput (gates/sec, routes/sec,
//!   moves/sec, circuits/sec). These regress whenever a shared runner
//!   is slow, so drops only print a loud `WARN` for a human to eyeball.
//!
//! Missing files or metrics — the first CI run, or a record schema that
//! grew a new field — only warn, so the gate never blocks
//! bootstrapping; a workload present in the baseline but missing from
//! the current run warns too (a silently dropped benchmark is not a
//! pass).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tilt_report::Json;

/// Largest tolerated drop: `current / baseline` below this fails (for
/// gating metrics) or warns (for advisory metrics).
const MIN_RATIO: f64 = 0.8;

/// Most baseline runs folded into the rolling median.
const MAX_BASELINE_RUNS: usize = 5;

/// Every record file a run may produce.
const FILES: [&str; 7] = [
    "BENCH_statevec.json",
    "BENCH_router.json",
    "BENCH_scheduler.json",
    "BENCH_engine.json",
    "BENCH_service.json",
    "BENCH_stabilizer.json",
    "BENCH_compiler.json",
];

/// Same-run speedup ratios: regressions here are code, not hardware.
/// `simd.speedup` is the dispatched-tier vs forced-scalar ratio; on a
/// scalar-only runner both the baseline median and the current run sit
/// at ~1.0 (the tiers coincide), so the gate stays quiet there and only
/// bites when an AVX2 runner's SIMD win erodes. The router and scheduler
/// run one engine each, so they have no same-run ratio to gate on; older
/// baselines' `speedup` fields there are ignored.
const GATING: [(&str, &str); 2] = [
    ("BENCH_statevec.json", "speedup"),
    ("BENCH_statevec.json", "simd.speedup"),
];

/// Cross-run absolute throughput, plus the engine batch ratio (which
/// can hinge on runner core count): advisory only.
const ADVISORY: [(&str, &str); 17] = [
    ("BENCH_statevec.json", "optimized_gates_per_sec"),
    ("BENCH_statevec.json", "simd.simd_gates_per_sec"),
    ("BENCH_statevec.json", "permutation.parallel_gates_per_sec"),
    ("BENCH_router.json", "routes_per_sec"),
    ("BENCH_engine.json", "batch_circuits_per_sec"),
    ("BENCH_engine.json", "batch_speedup"),
    // Per-circuit throughput with strict static verification on: the
    // verifier's overhead rides the absolute runner speed, so advisory.
    ("BENCH_engine.json", "verify.strict_circuits_per_sec"),
    ("BENCH_service.json", "requests_per_sec"),
    ("BENCH_service.json", "repeat.warm_requests_per_sec"),
    ("BENCH_service.json", "repeat.warm_speedup"),
    // Overload flood throughput (admitted work completed per second,
    // including client backoff time). p99/shed-rate live in the same
    // record but are lower-is-better, which this gate cannot score.
    ("BENCH_service.json", "overload.admission.requests_per_sec"),
    ("BENCH_service.json", "overload.open_loop.requests_per_sec"),
    // QEC-scale tableau throughput: raw simulator and through-Engine
    // rates are both absolute, so runner speed moves them — advisory.
    ("BENCH_stabilizer.json", "tableau_measurements_per_sec"),
    ("BENCH_stabilizer.json", "engine_measurements_per_sec"),
    // Streaming compile on the million-gate workload. The ratios are
    // same-run, but single-sample (a ~4 s compile each) and the memory
    // ratio hinges on runner page accounting — advisory until a
    // baseline window shows them stable.
    ("BENCH_compiler.json", "streaming.streaming_gates_per_sec"),
    ("BENCH_compiler.json", "streaming.throughput_ratio"),
    ("BENCH_compiler.json", "streaming.peak_memory_ratio"),
];

/// One run's records, keyed by file name.
type Run = Vec<(&'static str, Option<Json>)>;

/// One scheduler workload's `(name, moves/sec)`.
type WorkloadRow = (String, Option<f64>);

fn load(dir: &Path, file: &str, warn_missing: bool) -> Option<Json> {
    let path = dir.join(file);
    let Ok(text) = std::fs::read_to_string(&path) else {
        if warn_missing {
            println!("warn: {} not found — skipping its metrics", path.display());
        }
        return None;
    };
    match Json::parse(&text) {
        Ok(j) => Some(j),
        Err(e) => {
            println!("warn: {} unparsable ({e}) — skipping", path.display());
            None
        }
    }
}

fn records(dir: &Path, warn_missing: bool) -> Run {
    FILES
        .iter()
        .map(|&f| (f, load(dir, f, warn_missing)))
        .collect()
}

/// The baseline runs under `dir`: its run subdirectories when present
/// (newest window downloaded by CI), otherwise `dir` itself as a single
/// run.
fn baseline_runs(dir: &Path) -> Vec<Run> {
    let mut subdirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir() && FILES.iter().any(|f| p.join(f).exists()))
                .collect()
        })
        .unwrap_or_default();
    subdirs.sort();
    subdirs.truncate(MAX_BASELINE_RUNS);
    if subdirs.is_empty() {
        // Missing-file warnings matter in single-run mode; in window
        // mode a run that lacks one record just contributes nothing to
        // that metric's median.
        vec![records(dir, true)]
    } else {
        println!(
            "baseline: rolling median over {} run(s) under {}",
            subdirs.len(),
            dir.display()
        );
        subdirs.iter().map(|p| records(p, false)).collect()
    }
}

fn field(records: &Run, file: &str, path: &str) -> Option<f64> {
    records
        .iter()
        .find(|(f, _)| *f == file)
        .and_then(|(_, j)| j.as_ref())
        .and_then(|j| j.get_path(path))
        .and_then(Json::as_f64)
}

/// Median of the finite values, `None` when no run had the metric.
fn median(mut values: Vec<f64>) -> Option<f64> {
    values.retain(|v| v.is_finite());
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Compares one metric against the baseline median; returns `true` when
/// it dropped beyond [`MIN_RATIO`]. `gating` only affects the printed
/// verdict.
fn check(label: &str, baseline: Option<f64>, cur: Option<f64>, gating: bool) -> bool {
    let (Some(baseline), Some(cur)) = (baseline, cur) else {
        println!("warn: {label}: metric missing in baseline or current run — skipping");
        return false;
    };
    if !(baseline.is_finite() && cur.is_finite()) || baseline <= 0.0 {
        println!("warn: {label}: non-finite or non-positive baseline — skipping");
        return false;
    }
    let ratio = cur / baseline;
    let dropped = ratio < MIN_RATIO;
    let verdict = match (dropped, gating) {
        (false, _) => "ok",
        (true, true) => "REGRESSED",
        (true, false) => "WARN (advisory: absolute throughput, may be runner noise)",
    };
    println!(
        "{label}: median {baseline:.2} -> {cur:.2} ({:+.1}%) {verdict}",
        (ratio - 1.0) * 100.0
    );
    dropped
}

/// `(benchmark name, absolute moves/sec)` per scheduler workload.
fn scheduler_workloads(j: &Json) -> Vec<WorkloadRow> {
    j.get("workloads")
        .and_then(Json::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| {
                    let name = w.get("benchmark")?.as_str()?.to_string();
                    Some((name, w.get("moves_per_sec").and_then(Json::as_f64)))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: bench_gate <baseline_dir> [current_dir]");
        return ExitCode::from(2);
    }
    let prev_dir = Path::new(&args[1]);
    let cur_dir = Path::new(args.get(2).map(String::as_str).unwrap_or("."));

    let prev_runs = baseline_runs(prev_dir);
    let cur_records = records(cur_dir, true);
    let baseline = |file: &str, path: &str| -> Option<f64> {
        median(
            prev_runs
                .iter()
                .filter_map(|run| field(run, file, path))
                .collect(),
        )
    };

    let mut regressed = false;
    for (gating, metrics) in [(true, &GATING[..]), (false, &ADVISORY[..])] {
        for &(file, path) in metrics {
            let prev = baseline(file, path);
            let cur = field(&cur_records, file, path);
            let dropped = check(&format!("{file}:{path}"), prev, cur, gating);
            regressed |= dropped && gating;
        }
    }

    // Scheduler records hold one entry per workload; median each
    // workload's throughput across the baseline runs (advisory, like
    // every absolute rate) and flag workloads that vanished from the
    // current run.
    let sched = |records: &Run| -> Option<Json> {
        records
            .iter()
            .find(|(f, _)| *f == "BENCH_scheduler.json")
            .and_then(|(_, j)| j.clone())
    };
    let prev_sched: Vec<Vec<WorkloadRow>> = prev_runs
        .iter()
        .filter_map(|run| sched(run).map(|j| scheduler_workloads(&j)))
        .collect();
    if let Some(cur) = sched(&cur_records) {
        let cur_ws = scheduler_workloads(&cur);
        for (name, cur_rate) in &cur_ws {
            let baseline = median(
                prev_sched
                    .iter()
                    .filter_map(|ws| ws.iter().find(|(n, _)| n == name).and_then(|(_, r)| *r))
                    .collect(),
            );
            check(
                &format!("BENCH_scheduler.json:{name}:moves_per_sec"),
                baseline,
                *cur_rate,
                false,
            );
        }
        let baseline_names: std::collections::BTreeSet<&str> = prev_sched
            .iter()
            .flat_map(|ws| ws.iter().map(|(n, _)| n.as_str()))
            .collect();
        for name in baseline_names {
            if !cur_ws.iter().any(|(n, _)| n == name) {
                println!(
                    "warn: BENCH_scheduler.json: workload {name} present in a baseline run is missing from this one"
                );
            }
        }
    }

    if regressed {
        eprintln!(
            "bench gate: same-run speedup regressed more than {:.0}% vs the rolling median",
            (1.0 - MIN_RATIO) * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench gate: no gating regressions beyond {:.0}%",
            (1.0 - MIN_RATIO) * 100.0
        );
        ExitCode::SUCCESS
    }
}
