//! Perf-trajectory tracker: times the rewritten hot paths and emits
//! machine-readable records so speed regressions are visible across PRs
//! (the CI bench-regression gate diffs these against the previous run's
//! artifacts via the `bench_gate` binary).
//!
//! Outputs in the working directory:
//!
//! * `BENCH_statevec.json` — gates/sec applying the 20-qubit QFT
//!   (optimized vs the retained naive path) plus a permutation-heavy
//!   workload (raw 20-qubit `CNOT`/`SWAP`/`Toffoli` traffic) timed
//!   through the auto-parallel and forced-serial pipelines, and a
//!   `simd` record pricing the dispatched kernel tier against the
//!   forced-scalar fallback on the same QFT (~1.0× on scalar-only
//!   hosts, where the two tiers coincide).
//! * `BENCH_router.json` — routes/sec pushing the 16-qubit RCS
//!   benchmark through LinQ.
//! * `BENCH_scheduler.json` — moves/sec scheduling QFT/RCS/QAOA
//!   workloads through Algorithm 2.
//! * `BENCH_engine.json` — circuits/sec pushing a batch of small
//!   circuits through the `Engine` session API, batch/service mode
//!   (pool fan-out) vs one `run` call per circuit.
//! * `BENCH_service.json` — requests/sec driving the same workload as
//!   JSON-lines wire requests through the `tilt serve` core (a
//!   self-driving client over in-memory buffers: QASM parse, protocol
//!   decode, windowed batch fan-out, response rendering), plus a
//!   `repeat` record pricing the compile cache: cold vs warm
//!   requests/sec on a duplicate-heavy stream (the acceptance floor is
//!   a 5× warm speedup), and an `overload` record driving a ~2×
//!   capacity flood with and without admission control (p99 latency,
//!   shed rate, and waves-to-completion for a client that honors
//!   `retry_after_ms` with exponential backoff + jitter).
//! * `BENCH_stabilizer.json` — a QEC-scale memory experiment the dense
//!   simulator cannot represent: the distance-251 repetition code
//!   (501 qubits, 10 syndrome rounds) through the raw tableau and
//!   end-to-end through the `Engine` on the stabilizer method, plus
//!   the statevec refusal for the same circuit as a negative control.
//! * `BENCH_compiler.json` — the streaming pipeline on a million-gate
//!   8×8 RCS workload: gates/sec through `run_streaming` vs the
//!   monolithic `run` on the same (materialized) circuit, plus the
//!   per-path peak-RSS ratio read from `VmHWM` with a `clear_refs`
//!   reset in between. Runs first so the allocator baseline is clean.
//!
//! Every record also carries `peak_rss_kb` (the process `VmHWM` at the
//! moment the record is written) and `threads`, so cross-run artifact
//! diffs can tell a slow runner from a fat one.
//!
//! Run with: `cargo run --release -p tilt-bench --bin perf`

use std::time::Instant;

use tilt_benchmarks::bv::bernstein_vazirani;
use tilt_benchmarks::qaoa::qaoa_maxcut;
use tilt_benchmarks::qec::repetition_code;
use tilt_benchmarks::qft::qft;
use tilt_benchmarks::rcs::random_circuit_sampling;
use tilt_benchmarks::stream::rcs_stream;
use tilt_circuit::{Circuit, Qubit};
use tilt_compiler::decompose::decompose;
use tilt_compiler::mapping::InitialMapping;
use tilt_compiler::schedule::{schedule, SchedulerKind};
use tilt_compiler::{DeviceSpec, RouterKind};
use tilt_engine::{
    Backend, Engine, NullSink, Service, SimMethod, TiltError, VerifyLevel, DEFAULT_STREAM_WINDOW,
};
use tilt_report::{Json, Table};
use tilt_statevec::{RunOptions, State};

/// Median seconds per call over `samples` timed calls of `f`.
fn time_median(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let mut table = Table::new(["hot path", "baseline", "optimized", "speedup"]);

    // --- streaming vs monolithic compile on a million-gate circuit -------
    // First, before anything balloons the allocator: each path's peak
    // RSS is read from `VmHWM` with a best-effort `clear_refs` reset in
    // between, which only isolates the path's own footprint while the
    // process baseline is still small.
    let big_spec = DeviceSpec::new(64, 16).expect("valid device");
    let big_engine = Engine::tilt(big_spec);
    let (rows, cols, cycles, seed) = (8usize, 8usize, 11_000usize, 11u64);
    let hwm_resets = reset_peak_rss();
    let t0 = Instant::now();
    let mut null_sink = NullSink;
    let stream_outcome = big_engine
        .run_streaming(
            64,
            rcs_stream(rows, cols, cycles, seed),
            DEFAULT_STREAM_WINDOW,
            &mut null_sink,
        )
        .expect("million-gate stream compiles");
    let t_stream_big = t0.elapsed().as_secs_f64();
    let stream_peak_kb = peak_rss_kb();
    let million_gates = stream_outcome.input_gate_count as f64;

    reset_peak_rss();
    let big_circuit = Circuit::from_gates(64, rcs_stream(rows, cols, cycles, seed));
    let t0 = Instant::now();
    let big_mono = big_engine
        .run(&big_circuit)
        .expect("million-gate circuit compiles");
    let t_mono_big = t0.elapsed().as_secs_f64();
    let mono_peak_kb = peak_rss_kb();
    assert_eq!(
        big_mono.ln_success.to_bits(),
        stream_outcome.ln_success.to_bits(),
        "streaming is decision-identical to the monolithic compile"
    );
    drop(big_mono);
    drop(big_circuit);

    let compiler_record = Json::object()
        .set("benchmark", "rcs8x8_million_head16")
        .set("n_qubits", 64usize)
        .set("input_gates", million_gates)
        .set("window", DEFAULT_STREAM_WINDOW)
        .set("increments", stream_outcome.increments)
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set(
            "streaming",
            Json::object()
                .set("streaming_secs", t_stream_big)
                .set("monolithic_secs", t_mono_big)
                .set("streaming_gates_per_sec", million_gates / t_stream_big)
                .set("monolithic_gates_per_sec", million_gates / t_mono_big)
                // Streaming must not cost throughput: the acceptance
                // floor is 0.8× the monolithic rate (it measures ~2×).
                .set("throughput_ratio", t_mono_big / t_stream_big)
                .set("per_phase_peaks_isolated", hwm_resets)
                .set("streaming_peak_rss_kb", stream_peak_kb)
                .set("monolithic_peak_rss_kb", mono_peak_kb)
                .set("peak_memory_ratio", mono_peak_kb / stream_peak_kb),
        )
        .set("peak_rss_kb", peak_rss_kb());
    std::fs::write("BENCH_compiler.json", compiler_record.render())
        .expect("write BENCH_compiler.json");
    table.row([
        "compile rcs 1M gates".to_string(),
        format!("{:.0} gates/s mono", million_gates / t_mono_big),
        format!("{:.0} gates/s stream", million_gates / t_stream_big),
        format!(
            "{:.2}x speed, {:.1}x less peak RSS",
            t_mono_big / t_stream_big,
            mono_peak_kb / stream_peak_kb
        ),
    ]);

    // --- state-vector kernels on the 20-qubit QFT ------------------------
    let circuit = qft(20);
    let gates = circuit.len() as f64;
    let probe = State::random(20, 1);
    // Warm the allocator and caches before anything is timed: the very
    // first run pays first-touch page faults for the 16 MiB clone,
    // which would otherwise bias whichever tier is measured first.
    std::hint::black_box(probe.clone().run(&circuit));
    let t_opt = time_median(5, || {
        std::hint::black_box(probe.clone().run(&circuit));
    });
    // Dispatched kernel tier vs the forced-scalar fallback on the same
    // QFT, timed back to back so machine drift hits both tiers alike.
    // On hosts that resolve to the scalar tier the two runs take the
    // same code path, so the speedup sits at ~1.0 by construction.
    let t_scalar = {
        tilt_statevec::simd::force_scalar(true);
        let t = time_median(5, || {
            std::hint::black_box(probe.clone().run(&circuit));
        });
        tilt_statevec::simd::force_scalar(false);
        t
    };
    let t_naive = time_median(3, || {
        std::hint::black_box(probe.clone().run_naive(&circuit));
    });

    // Permutation-heavy workload: raw CNOT/SWAP/Toffoli traffic (the
    // Cuccaro adder's control structure *before* Clifford+T lowering),
    // which exercises the contiguous-run swap kernels and their
    // parallel splits. The forced-serial run is the single-core
    // baseline; on a single-core host the two coincide (the parallel
    // path must not regress).
    let perm = permutation_workload(20);
    let perm_gates = perm.len() as f64;
    let perm_probe = State::random(20, 2);
    let t_perm_par = time_median(5, || {
        std::hint::black_box(perm_probe.clone().run(&perm));
    });
    let t_perm_serial = time_median(5, || {
        std::hint::black_box(
            perm_probe
                .clone()
                .run_with(&perm, RunOptions::serial_unfused()),
        );
    });

    let statevec = Json::object()
        .set("benchmark", "qft20")
        .set("n_qubits", 20usize)
        .set("gates", gates)
        .set("optimized_secs", t_opt)
        .set("naive_secs", t_naive)
        .set("optimized_gates_per_sec", gates / t_opt)
        .set("naive_gates_per_sec", gates / t_naive)
        .set("speedup", t_naive / t_opt)
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb())
        .set(
            "simd",
            Json::object()
                .set("benchmark", "qft20_tier")
                .set("kernel_tier", tilt_statevec::simd::tier_name())
                .set("simd_secs", t_opt)
                .set("scalar_secs", t_scalar)
                .set("simd_gates_per_sec", gates / t_opt)
                .set("scalar_gates_per_sec", gates / t_scalar)
                .set("speedup", t_scalar / t_opt),
        )
        .set(
            "permutation",
            Json::object()
                .set("benchmark", "perm20")
                .set("n_qubits", 20usize)
                .set("gates", perm_gates)
                .set("parallel_secs", t_perm_par)
                .set("serial_secs", t_perm_serial)
                .set("parallel_gates_per_sec", perm_gates / t_perm_par)
                .set("serial_gates_per_sec", perm_gates / t_perm_serial)
                .set("multicore_speedup", t_perm_serial / t_perm_par),
        );
    std::fs::write("BENCH_statevec.json", statevec.render()).expect("write BENCH_statevec.json");
    table.row([
        "statevec qft20".to_string(),
        format!("{:.0} gates/s", gates / t_naive),
        format!("{:.0} gates/s", gates / t_opt),
        format!("{:.2}x", t_naive / t_opt),
    ]);
    table.row([
        "statevec simd qft20".to_string(),
        format!("{:.0} gates/s", gates / t_scalar),
        format!("{:.0} gates/s", gates / t_opt),
        format!("{:.2}x", t_scalar / t_opt),
    ]);
    table.row([
        "statevec perm20".to_string(),
        format!("{:.0} gates/s", perm_gates / t_perm_serial),
        format!("{:.0} gates/s", perm_gates / t_perm_par),
        format!("{:.2}x", t_perm_serial / t_perm_par),
    ]);

    // --- LinQ routing on the 16-qubit RCS benchmark ----------------------
    let native = decompose(&random_circuit_sampling(4, 4, 16, 7));
    let spec = DeviceSpec::new(16, 4).expect("valid device");
    let initial = InitialMapping::Identity.build(&native, 16);
    let t_route = time_median(9, || {
        std::hint::black_box(
            RouterKind::default()
                .route(&native, spec, &initial)
                .expect("rcs16 routes"),
        );
    });
    let router = Json::object()
        .set("benchmark", "rcs16_head4")
        .set("n_qubits", 16usize)
        .set("native_gates", native.len())
        .set("secs", t_route)
        .set("routes_per_sec", 1.0 / t_route)
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb());
    std::fs::write("BENCH_router.json", router.render()).expect("write BENCH_router.json");
    table.row([
        "LinQ rcs16".to_string(),
        "-".to_string(),
        format!("{:.0} routes/s", 1.0 / t_route),
        "-".to_string(),
    ]);

    // --- Algorithm 2 scheduling -------------------------------------------
    let workloads: [(&str, Circuit, usize); 4] = [
        ("qft24_head8", qft(24), 8),
        ("qft32_head8", qft(32), 8),
        ("rcs16_head4", random_circuit_sampling(4, 4, 16, 7), 4),
        ("qaoa24_head6", qaoa_maxcut(24, 2, 5), 6),
    ];
    let mut records: Vec<Json> = Vec::new();
    for (name, circuit, head) in workloads {
        let spec = DeviceSpec::new(circuit.n_qubits(), head).expect("valid device");
        let native = decompose(&circuit);
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        let routed = RouterKind::default()
            .route(&native, spec, &initial)
            .expect("perf workloads route");
        let lowered = decompose(&routed.circuit);
        let kind = SchedulerKind::GreedyMaxExecutable;
        let program = schedule(&lowered, spec, kind);
        let moves = program.move_count() as f64;
        let t_sched = time_median(5, || {
            std::hint::black_box(schedule(&lowered, spec, kind));
        });
        records.push(
            Json::object()
                .set("benchmark", name)
                .set("n_qubits", circuit.n_qubits())
                .set("scheduled_gates", program.gate_count())
                .set("moves", moves)
                .set("secs", t_sched)
                .set("moves_per_sec", moves / t_sched),
        );
        table.row([
            format!("scheduler {name}"),
            "-".to_string(),
            format!("{:.0} moves/s", moves / t_sched),
            "-".to_string(),
        ]);
    }
    let scheduler = Json::object()
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb())
        .set("workloads", Json::Arr(records));
    std::fs::write("BENCH_scheduler.json", scheduler.render()).expect("write BENCH_scheduler.json");

    // --- Engine batch/service mode vs one run() per circuit --------------
    // Many small circuits is the service-mode case the ROADMAP targets:
    // per-circuit setup (transient compile buffers) dominates, so the
    // batch path's pool fan-out should beat a loop of single runs.
    let circuits = engine_workload();
    let n_circuits = circuits.len() as f64;
    let engine = Engine::tilt(DeviceSpec::new(16, 4).expect("valid device"));
    let t_single = time_median(5, || {
        for c in &circuits {
            std::hint::black_box(engine.run(c).expect("workload compiles"));
        }
    });
    let t_batch = time_median(5, || {
        std::hint::black_box(engine.run_batch(circuits.iter().cloned()));
    });
    // Verifier overhead: the same per-circuit loop with the static rule
    // packs on (strict). The delta prices `EngineBuilder::verify` for
    // service operators deciding whether to leave it enabled.
    let engine_verified = Engine::builder()
        .backend(Backend::Tilt(DeviceSpec::new(16, 4).expect("valid device")))
        .verify(VerifyLevel::Strict)
        .build()
        .expect("engine builds");
    let t_verified = time_median(5, || {
        for c in &circuits {
            std::hint::black_box(engine_verified.run(c).expect("workload verifies clean"));
        }
    });
    let engine_record = Json::object()
        .set("benchmark", "small_circuit_batch")
        .set("circuits", n_circuits)
        .set("n_qubits", 16usize)
        .set("single_secs", t_single)
        .set("batch_secs", t_batch)
        .set("single_circuits_per_sec", n_circuits / t_single)
        .set("batch_circuits_per_sec", n_circuits / t_batch)
        .set("batch_speedup", t_single / t_batch)
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb())
        .set(
            "verify",
            Json::object()
                .set("strict_secs", t_verified)
                .set("strict_circuits_per_sec", n_circuits / t_verified)
                .set("overhead_ratio", t_verified / t_single),
        );
    std::fs::write("BENCH_engine.json", engine_record.render()).expect("write BENCH_engine.json");
    table.row([
        "engine batch x120".to_string(),
        format!("{:.0} circuits/s", n_circuits / t_single),
        format!("{:.0} circuits/s", n_circuits / t_batch),
        format!("{:.2}x", t_single / t_batch),
    ]);

    // --- `tilt serve` core: the same workload as wire requests ----------
    // The self-driving client: render every circuit as a JSON-lines run
    // request, stream the whole batch through one in-memory service
    // loop, and count responses/sec. This prices the full service path
    // — QASM parse, protocol decode, windowed batch fan-out, response
    // rendering — against the raw `run_batch` number above.
    let requests: String = circuits
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let mut line = Json::object()
                .set("id", k)
                .set("qasm", tilt_circuit::qasm::to_qasm(c))
                .render();
            line.push('\n');
            line
        })
        .collect();
    let service_builder =
        Engine::builder().backend(Backend::Tilt(DeviceSpec::new(16, 4).expect("valid device")));
    let mut window = 0usize;
    let t_serve = time_median(5, || {
        let mut service = Service::new(service_builder.clone()).expect("service builds");
        window = service.window();
        let mut out = Vec::with_capacity(requests.len());
        let summary = service
            .serve(std::io::Cursor::new(requests.as_bytes()), &mut out, None)
            .expect("in-memory service loop cannot fail on I/O");
        assert_eq!(summary.stats.errors, 0, "workload requests all compile");
        std::hint::black_box(out);
    });
    // --- compile cache: warm vs cold on a duplicate-heavy stream ---------
    // The service-traffic shape the cache targets: a small set of
    // distinct circuits hammered repeatedly (load generators, retry
    // storms, parameter sweeps re-submitting the base circuit). The
    // circuits are QAOA instances deep enough that routing+scheduling
    // dominates protocol cost — the regime the cache is for (on
    // single-gate toys, parse cost bounds the win). Cold = a fresh
    // service compiling each distinct circuit once; warm = the same
    // service re-serving the full duplicate stream from cache.
    let distinct: Vec<Circuit> = (0..12).map(|k| qaoa_maxcut(16, 4, 1000 + k)).collect();
    let as_requests = |circuits: &[Circuit], repeats: usize| -> String {
        let mut text = String::new();
        for rep in 0..repeats {
            for (k, c) in circuits.iter().enumerate() {
                let mut line = Json::object()
                    .set("id", rep * circuits.len() + k)
                    .set("qasm", tilt_circuit::qasm::to_qasm(c))
                    .render();
                line.push('\n');
                text.push_str(&line);
            }
        }
        text
    };
    let cold_requests = as_requests(&distinct, 1);
    let warm_requests = as_requests(&distinct, 10);
    let n_cold = distinct.len() as f64;
    let n_warm = (distinct.len() * 10) as f64;
    let t_cold = time_median(5, || {
        // A fresh service (and fresh cache) every sample: every request
        // is a genuine compile.
        let mut service = Service::new(service_builder.clone()).expect("service builds");
        let mut out = Vec::new();
        let summary = service
            .serve(
                std::io::Cursor::new(cold_requests.as_bytes()),
                &mut out,
                None,
            )
            .expect("in-memory service loop cannot fail on I/O");
        assert_eq!(summary.cache.hits, 0, "cold pass must not hit");
        std::hint::black_box(out);
    });
    let mut warm_service = Service::new(service_builder.clone()).expect("service builds");
    let mut primed = Vec::new();
    warm_service
        .serve(
            std::io::Cursor::new(cold_requests.as_bytes()),
            &mut primed,
            None,
        )
        .expect("priming pass");
    let t_warm = time_median(5, || {
        let mut out = Vec::new();
        let summary = warm_service
            .serve(
                std::io::Cursor::new(warm_requests.as_bytes()),
                &mut out,
                None,
            )
            .expect("in-memory service loop cannot fail on I/O");
        assert_eq!(summary.stats.errors, 0, "warm requests all answer");
        std::hint::black_box(out);
    });
    let cold_rps = n_cold / t_cold;
    let warm_rps = n_warm / t_warm;

    // --- overload: a ~2× capacity flood, with vs without admission -------
    // The shed/retry client the engine README documents: submit a wave,
    // keep what was admitted, and resubmit every shed request after
    // honoring its `retry_after_ms` hint with exponential backoff plus
    // deterministic jitter. "Capacity" is the admission budget; the
    // flood is twice that, and the whole flood is buffered concurrently
    // (window = flood size), so roughly half of the first wave sheds.
    const OVERLOAD_BUDGET: usize = 8;
    let flood_lines: Vec<String> = (0..OVERLOAD_BUDGET * 2)
        .map(|k| {
            Json::object()
                .set("id", k)
                .set(
                    "qasm",
                    tilt_circuit::qasm::to_qasm(&qaoa_maxcut(16, 1, 5_000 + k as u64)),
                )
                .render()
        })
        .collect();
    // Drives the flood to completion; returns (client wall seconds,
    // waves, sheds observed, requests submitted, final summary).
    let run_overload_client =
        |mut service: Service| -> (f64, usize, u64, u64, tilt_engine::ServiceSummary) {
            let t0 = Instant::now();
            let mut outstanding: Vec<usize> = (0..flood_lines.len()).collect();
            let mut attempt = 0u32;
            let mut waves = 0usize;
            let mut sheds = 0u64;
            let mut submitted = 0u64;
            let mut summary = None;
            while !outstanding.is_empty() {
                submitted += outstanding.len() as u64;
                let input: String = outstanding
                    .iter()
                    .map(|&k| flood_lines[k].clone() + "\n")
                    .collect();
                let mut out = Vec::new();
                let s = service
                    .serve(std::io::Cursor::new(input.as_bytes()), &mut out, None)
                    .expect("in-memory service loop cannot fail on I/O");
                let mut retry: Vec<usize> = Vec::new();
                let mut backoff_ms = 0u64;
                for line in String::from_utf8(out).expect("utf-8 responses").lines() {
                    let resp = Json::parse(line).expect("response parses");
                    let id = resp.get("id").and_then(Json::as_f64).expect("echoed id") as usize;
                    if resp.get("ok") == Some(&Json::Bool(true)) {
                        continue;
                    }
                    let error = resp.get("error").expect("structured error");
                    assert_eq!(
                        error.get("kind").and_then(Json::as_str),
                        Some("overloaded"),
                        "the flood compiles; only admission sheds"
                    );
                    let hint = error
                        .get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .expect("overloaded responses carry retry_after_ms")
                        as u64;
                    // Exponential backoff on the hint plus deterministic
                    // jitter, so a synchronized retry storm decorrelates.
                    let jitter = (id as u64 * 13 + attempt as u64 * 7) % (hint / 2 + 1);
                    backoff_ms = backoff_ms.max(hint * (1u64 << attempt.min(4)) + jitter);
                    retry.push(id);
                }
                sheds += retry.len() as u64;
                waves += 1;
                summary = Some(s);
                if !retry.is_empty() {
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                    attempt += 1;
                }
                outstanding = retry;
            }
            (
                t0.elapsed().as_secs_f64(),
                waves,
                sheds,
                submitted,
                summary.expect("at least one wave"),
            )
        };
    let n_flood = flood_lines.len();
    let admission = std::sync::Arc::new(tilt_engine::AdmissionControl::new(
        OVERLOAD_BUDGET,
        usize::MAX,
    ));
    let (t_admit, admit_waves, admit_sheds, admit_submitted, admit_summary) = run_overload_client(
        Service::new(service_builder.clone())
            .expect("service builds")
            .with_admission(admission)
            .with_window(n_flood),
    );
    let (t_open, open_waves, open_sheds, _, open_summary) = run_overload_client(
        Service::new(service_builder.clone())
            .expect("service builds")
            .with_window(n_flood),
    );
    assert_eq!(open_sheds, 0, "no admission control, nothing sheds");
    assert_eq!(open_waves, 1);
    assert_eq!(admit_summary.stats.shed_overloaded, admit_sheds);
    let admit_shed_rate = admit_sheds as f64 / admit_submitted as f64;

    let service_record = Json::object()
        .set("benchmark", "service_jsonlines")
        .set("requests", n_circuits)
        .set("n_qubits", 16usize)
        .set("window", window)
        .set("serve_secs", t_serve)
        .set("requests_per_sec", n_circuits / t_serve)
        .set("batch_secs", t_batch)
        .set("protocol_overhead", t_serve / t_batch)
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb())
        .set(
            "repeat",
            Json::object()
                .set("benchmark", "service_repeat_stream")
                .set("distinct_circuits", distinct.len())
                .set("warm_requests", n_warm)
                .set("cold_secs", t_cold)
                .set("warm_secs", t_warm)
                .set("cold_requests_per_sec", cold_rps)
                .set("warm_requests_per_sec", warm_rps)
                .set("warm_speedup", warm_rps / cold_rps),
        )
        .set(
            "overload",
            Json::object()
                .set("benchmark", "service_overload_2x")
                .set("flood_requests", n_flood)
                .set("budget_requests", OVERLOAD_BUDGET)
                .set(
                    "admission",
                    Json::object()
                        .set("waves", admit_waves)
                        .set("shed", admit_sheds)
                        .set("shed_rate", admit_shed_rate)
                        .set("p99_latency_us", admit_summary.stats.p99_us())
                        .set("client_secs", t_admit)
                        .set("requests_per_sec", n_flood as f64 / t_admit),
                )
                .set(
                    "open_loop",
                    Json::object()
                        .set("waves", open_waves)
                        .set("shed", open_sheds)
                        .set("shed_rate", 0.0)
                        .set("p99_latency_us", open_summary.stats.p99_us())
                        .set("client_secs", t_open)
                        .set("requests_per_sec", n_flood as f64 / t_open),
                ),
        );
    std::fs::write("BENCH_service.json", service_record.render())
        .expect("write BENCH_service.json");
    table.row([
        "serve x120 (wire)".to_string(),
        format!("{:.0} circuits/s", n_circuits / t_batch),
        format!("{:.0} req/s", n_circuits / t_serve),
        format!("{:.2}x overhead", t_serve / t_batch),
    ]);
    table.row([
        "serve warm cache".to_string(),
        format!("{cold_rps:.0} req/s cold"),
        format!("{warm_rps:.0} req/s warm"),
        format!("{:.2}x", warm_rps / cold_rps),
    ]);
    table.row([
        "serve 2x overload".to_string(),
        format!("p99 {} µs open", open_summary.stats.p99_us()),
        format!(
            "p99 {} µs, {:.0}% shed",
            admit_summary.stats.p99_us(),
            100.0 * admit_shed_rate
        ),
        format!("{admit_waves} waves"),
    ]);

    // --- stabilizer: QEC-scale memory experiment -------------------------
    // The distance-251 repetition code: 501 qubits, 10 syndrome rounds,
    // 2751 mid-circuit + final measurements. A dense state vector for
    // this circuit would need 2^501 amplitudes, so the statevec method
    // refusing it is part of the record (negative control); the tableau
    // runs it in milliseconds. On the all-zero initial state every
    // syndrome and every data readout is deterministically 0, which the
    // record asserts — a wrong update rule would show up right here.
    let qec = repetition_code(251, 10);
    let qec_meas = qec.stats().measurements as f64;
    let tableau_run = tilt_stabilizer::run(&qec, 7).expect("repetition code is Clifford");
    assert_eq!(
        tableau_run.deterministic_measurements,
        tableau_run.outcomes.len(),
        "all-zero-state syndrome extraction is fully deterministic"
    );
    assert!(
        tableau_run.outcomes.iter().all(|&b| !b),
        "a quiet memory experiment reads back all zeros"
    );
    let t_tableau = time_median(5, || {
        std::hint::black_box(tilt_stabilizer::run(&qec, 7).expect("repetition code is Clifford"));
    });
    // End-to-end through the session API: compile for a 501-ion tape
    // (the interleaved layout keeps every check span-1, so routing adds
    // nothing) and simulate on the stabilizer method. A fresh engine
    // per sample keeps the compile cache from hiding the compile cost.
    let qec_spec = DeviceSpec::new(qec.n_qubits(), 16).expect("valid 501-ion device");
    let t_engine = time_median(3, || {
        let engine = Engine::builder()
            .backend(Backend::Tilt(qec_spec))
            .simulate(SimMethod::Stabilizer)
            .build()
            .expect("engine builds");
        let report = engine
            .run(&qec)
            .expect("QEC workload compiles and simulates");
        let sim = report.sim.expect("simulation was requested");
        assert_eq!(sim.measurements as f64, qec_meas);
        std::hint::black_box(sim);
    });
    let statevec_refusal = {
        let engine = Engine::builder()
            .backend(Backend::Tilt(qec_spec))
            .simulate(SimMethod::Statevec)
            .build()
            .expect("engine builds");
        match engine.run(&qec) {
            Err(TiltError::Simulation { reason }) => reason,
            other => panic!("501 qubits must refuse the dense method, got {other:?}"),
        }
    };
    let stabilizer_record = Json::object()
        .set("benchmark", "repetition_code_d251_r10")
        .set("n_qubits", qec.n_qubits())
        .set("distance", 251usize)
        .set("rounds", 10usize)
        .set("gates", qec.len())
        .set("measurements", qec_meas)
        .set(
            "deterministic_measurements",
            tableau_run.deterministic_measurements,
        )
        .set("random_measurements", tableau_run.random_measurements)
        .set("tableau_secs", t_tableau)
        .set("tableau_measurements_per_sec", qec_meas / t_tableau)
        .set("engine_secs", t_engine)
        .set("engine_measurements_per_sec", qec_meas / t_engine)
        .set("statevec_representable", false)
        .set("statevec_refusal", statevec_refusal.as_str())
        .set("threads", rayon_threads())
        .set("kernel_tier", tilt_statevec::simd::tier_name())
        .set("peak_rss_kb", peak_rss_kb());
    std::fs::write("BENCH_stabilizer.json", stabilizer_record.render())
        .expect("write BENCH_stabilizer.json");
    table.row([
        "stabilizer d251 r10".to_string(),
        "2^501 amplitudes (refused)".to_string(),
        format!("{:.0} meas/s", qec_meas / t_tableau),
        format!("{t_engine:.3}s end-to-end"),
    ]);

    print!("{}", table.render());
    println!(
        "\nwrote BENCH_compiler.json, BENCH_statevec.json, BENCH_router.json, BENCH_scheduler.json, BENCH_engine.json, BENCH_service.json, BENCH_stabilizer.json"
    );
}

/// Peak resident set size of this process in KB (`VmHWM` from
/// `/proc/self/status`), `0.0` where procfs is unavailable.
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Best-effort reset of the `VmHWM` high-water mark (Linux
/// `clear_refs`), so consecutive phases can each read their own peak.
/// Returns whether the reset took; when it does not, the recorded
/// per-phase peaks are monotonic upper bounds instead.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// 120 small mixed circuits (GHZ ladders, BV, 1-layer QAOA) on one
/// 16-ion device — the many-small-circuits service-mode workload.
fn engine_workload() -> Vec<Circuit> {
    (0..120)
        .map(|k| match k % 3 {
            0 => {
                let mut c = Circuit::new(16);
                c.h(Qubit(0));
                for i in 1..16 {
                    c.cnot(Qubit(i - 1), Qubit(i));
                }
                c
            }
            1 => bernstein_vazirani(12, &[true; 11]),
            _ => qaoa_maxcut(16, 1, k as u64),
        })
        .collect()
}

/// Parallelism the statevector kernels saw (records context with the
/// multicore numbers).
fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

/// A pure permutation circuit on `n` qubits: MAJ/UMA-style ripples of
/// raw `CNOT`/`Toffoli` plus long-range `SWAP`s, with no single-qubit
/// rotations to fuse into dense blocks.
fn permutation_workload(n: usize) -> Circuit {
    use tilt_circuit::Qubit;
    let mut c = Circuit::new(n);
    for round in 0..6 {
        for i in 0..n - 2 {
            c.cnot(Qubit(i + 2), Qubit(i + 1));
            c.toffoli(Qubit(i), Qubit(i + 1), Qubit(i + 2));
        }
        for i in 0..n / 2 {
            c.swap(Qubit(i), Qubit(n - 1 - i));
        }
        c.cnot(Qubit((round * 3) % n), Qubit((round * 3 + n / 2) % n));
    }
    c
}
