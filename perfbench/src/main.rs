//! The repository benchmark: four workloads driven through the public
//! API of `tilt-engine` and the layer crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8_sweep|stream_million|serve_mixed|qec_verify> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, resets the process's
//! peak-RSS mark, then runs whole jobs (set-up, then work) until the
//! time is up, checking every output against an answer known without
//! the compiler. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every time is CPU time of the process (see [`clock`]): another
//! tenant holding the CPU, or a blocked thread waiting to be run again,
//! does not count. Every job runs between two readings of a fixed
//! calibration computation, and its end-to-end times are scaled to a
//! reference host speed (see [`calib`]); the raw figures are printed on
//! the line before the result.
//!
//! With `--trace 0` the metrics are the end-to-end ones. With
//! `--trace 1` every job is followed by its replay through the layer
//! entry points, each call wrapped in a span; the metrics are then the
//! per-layer ones, every layer time being self time per op. The replay's
//! layer time must lie within a stated band of the untraced job's time
//! inside the workload's engine entry point (`trace.layer_share`, the
//! median over jobs), or the run reports `correct: false`. `trace.span_overhead_ms` is what
//! recording the spans costs per op; `trace.replay_minus_job_ms` is the
//! replay's job time minus the untraced job's, which also holds every
//! difference between the replay's path and the engine's. Spans and
//! counters are written to `.bench_work/trace-<workload>.jsonl` at exit.
//! Nothing inside the program is instrumented.

mod calib;
mod clock;
mod cpu;
mod fig8;
mod layers;
mod qec;
mod serve;
mod stats;
mod stream;
mod trace;

use calib::Calibration;
use stats::{median, ms};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tilt_report::Json;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["fig8_sweep", "stream_million", "serve_mixed", "qec_verify"];

/// Every per-layer metric, printed on every traced run (0 where the
/// workload does not reach the layer).
const PER_LAYER: [(&str, &str); 47] = [
    ("circuit.qasm.ms", "ms"),
    ("circuit.qasm.gates", "count"),
    ("compiler.decompose.ms", "ms"),
    ("compiler.decompose.native_gates", "count"),
    ("compiler.route.ms", "ms"),
    ("compiler.route.swaps", "count"),
    ("compiler.route.opposing_swaps", "count"),
    ("compiler.schedule.ms", "ms"),
    ("compiler.schedule.moves", "count"),
    ("compiler.schedule.move_distance", "count"),
    ("compiler.schedule.ops", "count"),
    ("compiler.streaming.ms", "ms"),
    ("compiler.streaming.increments", "count"),
    ("compiler.streaming.ops", "count"),
    ("sim.estimate.ms", "ms"),
    ("qccd.compile.ms", "ms"),
    ("qccd.estimate.ms", "ms"),
    ("qccd.transports", "count"),
    ("scale.compile.ms", "ms"),
    ("scale.epr_pairs", "count"),
    ("stabilizer.ms", "ms"),
    ("stabilizer.measurements", "count"),
    ("statevec.ms", "ms"),
    ("compiler.verify.ms", "ms"),
    ("compiler.verify.diagnostics", "count"),
    ("engine.run.ms", "ms"),
    ("engine.run.overhead_ms", "ms"),
    ("engine.cache.load_ms", "ms"),
    ("engine.cache.entries_loaded", "count"),
    ("engine.cache.hits", "count"),
    ("engine.cache.misses", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.service.request_ms.hit", "ms"),
    ("engine.service.request_ms.miss", "ms"),
    ("engine.service.request_ms.override", "ms"),
    ("engine.service.request_ms.stream", "ms"),
    ("engine.service.request_ms.error", "ms"),
    ("engine.service.dispatch_ms", "ms"),
    ("report.json.decode_ms", "ms"),
    ("report.json.render_ms", "ms"),
    ("hash.digest_ms", "ms"),
    ("trace.job_ms", "ms"),
    ("trace.untraced_job_ms", "ms"),
    ("trace.replay_minus_job_ms", "ms"),
    ("trace.span_overhead_ms", "ms"),
    ("trace.layer_share", "ratio"),
    ("trace.ops", "count"),
];

/// Spans whose self time is a layer's, with the metric it feeds. Spans
/// not listed group layers and their self time is untraced glue: `job`
/// is one job, and `engine.run` replays one call of the workload's
/// engine entry point (`Engine::run`, `Engine::run_streaming_qasm`, or
/// one request through `Service::serve`).
const LAYER_SPANS: [(&str, &str); 17] = [
    ("circuit.qasm", "circuit.qasm.ms"),
    ("compiler.decompose", "compiler.decompose.ms"),
    ("compiler.route", "compiler.route.ms"),
    ("compiler.schedule", "compiler.schedule.ms"),
    ("compiler.streaming", "compiler.streaming.ms"),
    ("sim.estimate", "sim.estimate.ms"),
    ("qccd.compile", "qccd.compile.ms"),
    ("qccd.estimate", "qccd.estimate.ms"),
    ("scale.compile", "scale.compile.ms"),
    ("stabilizer", "stabilizer.ms"),
    ("statevec", "statevec.ms"),
    ("compiler.verify", "compiler.verify.ms"),
    ("report.json.decode", "report.json.decode_ms"),
    ("report.json.render", "report.json.render_ms"),
    ("hash.digest", "hash.digest_ms"),
    ("engine.service.dispatch", "engine.service.dispatch_ms"),
    // Reported per job from the untraced pass, which overrides this.
    ("engine.cache.load", "engine.cache.load_ms"),
];

/// The band `trace.layer_share` must lie in: the median over jobs of the
/// replay's layer time over the untraced job's time inside the engine
/// entry point, each scaled by its own calibration readings. Below it
/// the replay misses work the engine does; above it the replay does work
/// the engine skips. The band is wide enough for the host's noise on a
/// 2-vCPU Xeon (measured: fig8_sweep 0.98-1.04, stream_million
/// 1.07-1.20, qec_verify 1.06-1.07) and narrow enough to catch a replay
/// that skips or repeats a quarter of the work. The engine's own glue
/// (config fingerprint, report assembly, sink dispatch) is the gap below
/// one. serve_mixed's untraced time also holds the socket reads and
/// writes of both threads, which no layer call replays (measured
/// 0.79-0.85), so its band starts lower.
fn share_band(workload: &str) -> (f64, f64) {
    let low = if workload == "serve_mixed" { 0.6 } else { 0.75 };
    (low, 1.25)
}

/// What an untraced pass of a workload measured. `setup_s`, `op_ms`,
/// `tail_ms`, `job_tails` and `busy_s` are scaled by calibration when
/// their job ends; the rest stay raw.
#[derive(Default)]
pub struct Pass {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Samples for the tail when they differ from `op_ms`.
    tail_ms: Vec<f64>,
    /// Tails taken per job, when the tail is their median.
    job_tails: Vec<stats::Tail>,
    units: f64,
    busy_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Per op, time spent inside the workload's engine entry point.
    engine_ms: Vec<f64>,
    /// Per-layer readings taken without tracing, reported as medians.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Output bits the traced replay must reproduce.
    reference: Vec<u64>,
    /// Calibration readings on both sides of every job, in ms.
    calib_ms: Vec<f64>,
    /// `op_ms`, `setup_s` and `busy_s` before calibration.
    raw_op_ms: Vec<f64>,
    raw_setup_s: Vec<f64>,
    raw_busy_s: f64,
}

/// Where one job's entries start in a [`Pass`].
struct Mark {
    ops: usize,
    setups: usize,
    tails: usize,
    job_tails: usize,
    busy_s: f64,
}

impl Pass {
    pub fn setup(&mut self, d: Duration) {
        self.setup_s.push(d.as_secs_f64());
    }

    /// One completed op worth `units` towards `ops_per_s`.
    pub fn op(&mut self, d: Duration, units: f64) {
        self.op_ms.push(ms(d));
        self.units += units;
        self.busy_s += d.as_secs_f64();
    }

    pub fn job(&mut self, d: Duration) {
        self.job_ms.push(ms(d));
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// One op timed in stretches, the first being its set-up: the raw
    /// time of each and the calibration scale of each.
    pub fn op_in_stretches(&mut self, stretches: &[(Duration, f64)], units: f64) {
        let raw_s: f64 = stretches.iter().map(|(d, _)| d.as_secs_f64()).sum();
        let scaled_s: f64 = stretches.iter().map(|(d, k)| d.as_secs_f64() * k).sum();
        let (fill, k) = stretches[0];
        self.raw_setup_s.push(fill.as_secs_f64());
        self.setup_s.push(fill.as_secs_f64() * k);
        self.raw_op_ms.push(raw_s * 1e3);
        self.op_ms.push(scaled_s * 1e3);
        self.tail_ms
            .extend(stretches.iter().map(|&(d, k)| ms(d) * k));
        self.units += units;
        self.raw_busy_s += raw_s;
        self.busy_s += scaled_s;
        self.job_ms.push(raw_s * 1e3);
        self.engine_ms.push(raw_s * 1e3);
    }

    fn mark(&self) -> Mark {
        Mark {
            ops: self.op_ms.len(),
            setups: self.setup_s.len(),
            tails: self.tail_ms.len(),
            job_tails: self.job_tails.len(),
            busy_s: self.busy_s,
        }
    }

    /// Scales the end-to-end times recorded since `mark` by `scale`
    /// (see [`calib`]), keeping the raw ones.
    fn calibrate(&mut self, mark: &Mark, scale: f64) {
        self.raw_op_ms.extend_from_slice(&self.op_ms[mark.ops..]);
        self.raw_setup_s
            .extend_from_slice(&self.setup_s[mark.setups..]);
        self.raw_busy_s += self.busy_s - mark.busy_s;
        self.busy_s = mark.busy_s + (self.busy_s - mark.busy_s) * scale;
        let times = (self.op_ms[mark.ops..].iter_mut())
            .chain(&mut self.setup_s[mark.setups..])
            .chain(&mut self.tail_ms[mark.tails..])
            .chain(
                self.job_tails[mark.job_tails..]
                    .iter_mut()
                    .map(|t| &mut t.value),
            );
        for t in times {
            *t *= scale;
        }
    }

    /// One untraced reading of per-layer metric `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// What a traced replay counted.
#[derive(Default)]
pub struct Mix {
    jobs: usize,
    ops: usize,
    /// Per job, the replay's layer time over the untraced engine time.
    shares: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

impl Mix {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for its inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`splitmix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

enum Input {
    Fig8(fig8::Input),
    Stream(stream::Input),
    Serve(serve::Input),
    Qec(qec::Input),
}

impl Input {
    fn build(workload: &str, seed: u64, dir: &Path) -> Result<Input, String> {
        Ok(match workload {
            "fig8_sweep" => Input::Fig8(fig8::input(seed)),
            "stream_million" => Input::Stream(stream::input(seed, dir)?),
            "serve_mixed" => Input::Serve(serve::input(seed, dir)?),
            _ => Input::Qec(qec::input(seed)),
        })
    }

    /// One job between two calibration readings, which scale its
    /// end-to-end times. A stream outlasts the host's speed modes, so it
    /// takes its readings between windows instead.
    fn job(&self, pass: &mut Pass, calibration: &mut Calibration) {
        if let Input::Stream(i) = self {
            return stream::job(i, pass, calibration);
        }
        let before = calibration.run();
        let mark = pass.mark();
        match self {
            Input::Fig8(i) => fig8::job(i, pass),
            Input::Serve(i) => serve::job(i, pass),
            Input::Qec(i) => qec::job(i, pass),
            Input::Stream(_) => unreachable!("streams calibrate themselves"),
        }
        let after = calibration.run();
        pass.calib_ms.extend([before, after]);
        pass.calibrate(&mark, calib::scale(before, after));
    }

    fn traced_job(&self, reference: &[u64], mix: &mut Mix, tracer: &mut Tracer) {
        match self {
            Input::Fig8(i) => fig8::traced_job(i, reference, mix, tracer),
            Input::Stream(i) => stream::traced_job(i, reference, mix, tracer),
            Input::Serve(i) => serve::traced_job(i, reference, mix, tracer),
            Input::Qec(i) => qec::traced_job(i, reference, mix, tracer),
        }
    }
}

/// Runs jobs until `budget` is spent. With a tracer, every untraced job
/// is followed by its traced replay, so both see the same host
/// conditions.
fn drive(
    input: &Input,
    calibration: &mut Calibration,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> (Pass, Mix) {
    let (mut pass, mut mix) = (Pass::default(), Mix::default());
    let start = Instant::now();
    while start.elapsed() < budget {
        cpu::advance();
        let (engine_from, ops_from) = (pass.engine_ms.len(), pass.op_ms.len());
        input.job(&mut pass, calibration);
        if let Some(tracer) = tracer.as_deref_mut() {
            // Both sides of the share are scaled by their own calibration
            // readings, so a change of host speed between the job and its
            // replay cancels.
            let spans_from = tracer.spans();
            let before = calibration.run();
            input.traced_job(&pass.reference, &mut mix, tracer);
            let replay_ms =
                tracer.run_layers_ms_since(spans_from) * calib::scale(before, calibration.run());
            let (scaled, raw): (f64, f64) = (
                pass.op_ms[ops_from..].iter().sum(),
                pass.raw_op_ms[ops_from..].iter().sum(),
            );
            let engine_ms = pass.engine_ms[engine_from..].iter().sum::<f64>() * scaled / raw;
            if engine_ms > 0.0 {
                mix.shares.push(replay_ms / engine_ms);
            }
        }
    }
    (pass, mix)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn end_to_end(pass: &Pass) -> Result<Report, String> {
    if pass.op_ms.is_empty() {
        return Err(format!("no op completed: {:?}", pass.errors));
    }
    let tail = if !pass.job_tails.is_empty() {
        let values: Vec<f64> = pass.job_tails.iter().map(|t| t.value).collect();
        stats::Tail {
            value: median(&values),
            ..pass.job_tails[0]
        }
    } else if !pass.tail_ms.is_empty() {
        stats::tail(&pass.tail_ms)
    } else {
        stats::tail(&pass.op_ms)
    };
    let rss_kb = stats::peak_rss_kb().ok_or("no VmHWM in /proc/self/status")?;
    let ok = (pass.attempted - pass.failed) as f64 / pass.attempted as f64;
    println!(
        "{}",
        Json::object()
            .set("latency_tail_percentile", tail.percentile)
            .set("latency_tail_samples", tail.samples)
            .set("latency_tail_beyond", tail.beyond)
            .set("latency_tail_median_over_jobs", !pass.job_tails.is_empty())
            .set("ops", pass.op_ms.len())
            .set("jobs", pass.job_ms.len())
            .set("calibration_ms", median(&pass.calib_ms))
            .set(
                "raw",
                Json::object()
                    .set("setup_s", median(&pass.raw_setup_s))
                    .set("latency_p50_ms", median(&pass.raw_op_ms))
                    .set("ops_per_s", pass.units / pass.raw_busy_s)
            )
            .render()
    );
    Ok(Report {
        correct: pass.failed == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: vec![
            ("setup_s", median(&pass.setup_s), "s"),
            ("latency_p50_ms", median(&pass.op_ms), "ms"),
            ("latency_tail_ms", tail.value, "ms"),
            ("ops_per_s", pass.units / pass.busy_s, "1/s"),
            ("peak_rss_mb", rss_kb as f64 / 1024.0, "MB"),
            ("ok_ratio", ok, "ratio"),
        ],
    })
}

fn per_layer(workload: &str, pass: &Pass, mix: &Mix, tracer: &Tracer) -> Report {
    let ops = mix.ops.max(1) as f64;
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (&name, value) in values.iter_mut() {
        let c = tracer.counter(name);
        if c != 0.0 {
            *value = c / ops;
        }
    }
    let self_ns = tracer.self_ns();
    for (span, metric) in LAYER_SPANS {
        let ns = self_ns.get(span).copied().unwrap_or(0);
        values.insert(metric, ns as f64 / 1e6 / ops);
    }
    // Layer time replaying the engine entry point: the `engine.run`
    // spans minus their own (glue) self time.
    let run_ms: f64 = tracer.durations_ms("engine.run").iter().sum();
    let run_layers_ms = run_ms - self_ns.get("engine.run").copied().unwrap_or(0) as f64 / 1e6;
    for (&name, samples) in &pass.samples {
        values.insert(name, median(samples));
    }
    let (hits, misses) = (values["engine.cache.hits"], values["engine.cache.misses"]);
    if hits + misses > 0.0 {
        values.insert("engine.cache.hit_ratio", hits / (hits + misses));
    }
    let jobs_ms = tracer.durations_ms("job");
    let untraced_ops = pass.op_ms.len().max(1) as f64;
    if !pass.engine_ms.is_empty() {
        let engine = pass.engine_ms.iter().sum::<f64>() / untraced_ops;
        values.insert("engine.run.ms", engine);
        values.insert("engine.run.overhead_ms", engine - run_layers_ms / ops);
    }
    if !jobs_ms.is_empty() && !pass.job_ms.is_empty() {
        let paired: Vec<f64> = jobs_ms
            .iter()
            .zip(&pass.job_ms)
            .map(|(t, u)| t - u)
            .collect();
        values.insert("trace.job_ms", median(&jobs_ms));
        values.insert("trace.untraced_job_ms", median(&pass.job_ms));
        values.insert("trace.replay_minus_job_ms", median(&paired));
    }
    let spans_per_op = tracer.spans() as f64 / ops;
    values.insert(
        "trace.span_overhead_ms",
        spans_per_op * Tracer::span_cost_ns() / 1e6,
    );
    // The median over jobs, each replay paired with its own untraced
    // job: a burst of host noise then moves the odd job, not the check.
    let share = if mix.shares.is_empty() {
        f64::NAN
    } else {
        median(&mix.shares)
    };
    values.insert("trace.layer_share", share);
    values.insert("trace.ops", mix.ops as f64);
    let (low, high) = share_band(workload);
    let share_ok = (low..=high).contains(&share);
    if !share_ok {
        eprintln!("layer time per op is {share:.3} of the engine time, outside [{low}, {high}]");
    }
    let failed = pass.failed + mix.failed;
    let attempted = pass.attempted + mix.ops as u64;
    Report {
        correct: failed == 0 && share_ok,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect(),
    }
}

fn print(report: &Report) {
    let mut metrics = Json::object();
    for &(name, value, unit) in &report.metrics {
        metrics = metrics.set(name, Json::object().set("value", value).set("unit", unit));
    }
    let line = Json::object()
        .set("correct", report.correct)
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set("metrics", metrics);
    println!("{}", line.render());
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let input = Input::build(&args.workload, args.seed, work)?;
    let mut calibration = Calibration::new();
    // Peak RSS counts only what the jobs use, not input generation.
    if !stats::reset_peak_rss() {
        eprintln!("cannot reset the peak-RSS mark; peak_rss_mb includes input generation");
    }
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        return end_to_end(&drive(&input, &mut calibration, budget, None).0);
    }
    let mut tracer = Tracer::new();
    let (pass, mix) = drive(&input, &mut calibration, budget, Some(&mut tracer));
    for e in &pass.errors {
        eprintln!("untraced: {e}");
    }
    for e in &mix.errors {
        eprintln!("traced: {e}");
    }
    let path = work
        .parent()
        .unwrap_or(work)
        .join(format!("trace-{}.jsonl", args.workload));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(per_layer(&args.workload, &pass, &mix, &tracer))
}

fn main() -> ExitCode {
    // One benchmark thread (plus the serve workload's server thread):
    // the work-stealing pool must not fan out behind the measurement.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf = [
        ".bench_work",
        &format!("{}-{}", args.workload, std::process::id()),
    ]
    .iter()
    .collect();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            for (_, value, _) in &report.metrics {
                if !value.is_finite() {
                    eprintln!("error: a metric is not finite");
                    return ExitCode::FAILURE;
                }
            }
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
