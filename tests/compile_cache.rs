//! Acceptance tests for the content-addressed compile cache: cached
//! results must be **byte-identical** to fresh compiles on every
//! backend, the cache key must be sensitive to every configuration
//! knob, the LRU bound must evict in recency order, and a corrupted
//! `--cache-dir` snapshot must degrade to a cold start — never to a
//! wrong response.

use std::io::Cursor;
use std::sync::Arc;
use tilt::benchmarks::qaoa::qaoa_maxcut;
use tilt::circuit::qasm;
use tilt::engine::{
    Backend, BackendKind, CacheKey, CompileCache, Engine, EngineBuilder, Service, SimReport,
    SimulatorKind, WireReport,
};
use tilt::hash::Digest;
use tilt::prelude::*;
use tilt::report::Json;
use tilt::sim::{CoolingPolicy, ExecTimeModel};
use tilt_compiler::route::LinqConfig;
use tilt_compiler::InitialMapping;

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(Qubit(0));
    for i in 1..n {
        c.cnot(Qubit(i - 1), Qubit(i));
    }
    c
}

fn cached(builder: EngineBuilder, capacity: usize) -> (Engine, Arc<CompileCache>) {
    let cache = Arc::new(CompileCache::new(capacity));
    let engine = builder.compile_cache(Arc::clone(&cache)).build().unwrap();
    (engine, cache)
}

/// A scratch directory unique to one test (plain std, no tempfile dep).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tilt-compile-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cached reruns are byte-identical to fresh compiles on all three
/// backends: same program text, bit-identical ln_success / success /
/// exec_time_us, same compile statistics.
#[test]
fn cached_rerun_is_byte_identical_on_every_backend() {
    let circuit = qaoa_maxcut(16, 2, 7);
    let backends = [
        Backend::Tilt(DeviceSpec::new(16, 4).unwrap()),
        Backend::Qccd(QccdSpec::for_qubits(16, 5).unwrap()),
        Backend::Scaled(ScaleSpec::new(10, 4).unwrap()),
    ];
    for backend in backends {
        let fresh = Engine::builder()
            .backend(backend)
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        let (engine, cache) = cached(Engine::builder().backend(backend), 16);
        let miss = engine.run(&circuit).unwrap();
        let hit = engine.run(&circuit).unwrap();
        let counters = cache.counters();
        assert_eq!(counters.misses, 1, "{backend:?}");
        assert_eq!(counters.hits, 1, "{backend:?}");
        assert_eq!(counters.entries, 1, "{backend:?}");

        for report in [&miss, &hit] {
            assert_eq!(report.backend, fresh.backend, "{backend:?}");
            assert_eq!(
                report.ln_success.to_bits(),
                fresh.ln_success.to_bits(),
                "{backend:?}"
            );
            assert_eq!(
                report.success.to_bits(),
                fresh.success.to_bits(),
                "{backend:?}"
            );
            assert_eq!(
                report.exec_time_us.to_bits(),
                fresh.exec_time_us.to_bits(),
                "{backend:?}"
            );
            assert_eq!(report.compile.swap_count, fresh.compile.swap_count);
            assert_eq!(report.compile.move_count, fresh.compile.move_count);
            assert_eq!(
                report.compile.native_gate_count,
                fresh.compile.native_gate_count
            );
            assert_eq!(report.compile.epr_pairs, fresh.compile.epr_pairs);
            // The full program artifact survives the cache (TILT text
            // pinned byte-for-byte; the other backends carry their own
            // artifacts in the detail).
            match (report.tilt_program(), fresh.tilt_program()) {
                (Some(a), Some(b)) => assert_eq!(a.to_string(), b.to_string()),
                (None, None) => {}
                other => panic!("artifact mismatch: {other:?}"),
            }
        }
    }
}

/// Every configuration knob must land in the fingerprint: flipping any
/// one of them produces a distinct config, so stale hits are impossible.
#[test]
fn config_fingerprint_is_sensitive_to_every_knob() {
    let tilt = |spec| Engine::builder().backend(Backend::Tilt(spec));
    let spec = DeviceSpec::new(16, 8).unwrap();
    let base = tilt(spec).build().unwrap().config_fingerprint();

    let noisier = NoiseModel {
        epsilon: 2e-4,
        ..NoiseModel::default()
    };
    let slower = GateTimeModel {
        single_qubit_us: 12.0,
        ..GateTimeModel::default()
    };
    let wider_spacing = ExecTimeModel {
        ion_spacing_um: 6.0,
        ..ExecTimeModel::default()
    };
    let variants: Vec<Engine> = vec![
        tilt(DeviceSpec::new(17, 8).unwrap()).build().unwrap(),
        tilt(DeviceSpec::new(16, 4).unwrap()).build().unwrap(),
        tilt(spec)
            .router(RouterKind::Linq(LinqConfig::with_max_swap_len(5)))
            .build()
            .unwrap(),
        tilt(spec)
            .router(RouterKind::Linq(LinqConfig {
                alpha: 0.5,
                ..LinqConfig::default()
            }))
            .build()
            .unwrap(),
        tilt(spec)
            .router(RouterKind::Stochastic(Default::default()))
            .build()
            .unwrap(),
        tilt(spec)
            .scheduler(SchedulerKind::NaiveNextGate)
            .build()
            .unwrap(),
        tilt(spec)
            .initial_mapping(InitialMapping::Reverse)
            .build()
            .unwrap(),
        tilt(spec).noise(noisier).build().unwrap(),
        tilt(spec).gate_times(slower).build().unwrap(),
        tilt(spec).exec_time(wider_spacing).build().unwrap(),
        tilt(spec)
            .cooling(CoolingPolicy::threshold(2.0))
            .build()
            .unwrap(),
        Engine::builder()
            .backend(Backend::Qccd(QccdSpec::for_qubits(16, 5).unwrap()))
            .build()
            .unwrap(),
        Engine::builder()
            .backend(Backend::Scaled(ScaleSpec::new(10, 4).unwrap()))
            .build()
            .unwrap(),
        Engine::builder()
            .backend(Backend::Scaled(
                ScaleSpec::new(10, 4)
                    .unwrap()
                    .with_scheduler(SchedulerKind::NaiveNextGate),
            ))
            .build()
            .unwrap(),
    ];
    let mut fps = vec![base];
    for engine in &variants {
        fps.push(engine.config_fingerprint());
    }
    for i in 0..fps.len() {
        for j in i + 1..fps.len() {
            assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
        }
    }
    // And the builder path is deterministic: an identical rebuild
    // fingerprints identically.
    assert_eq!(base, tilt(spec).build().unwrap().config_fingerprint());
}

/// A capacity-2 cache evicts in LRU order under engine traffic.
#[test]
fn lru_evicts_least_recently_used_circuit() {
    let (engine, cache) = cached(
        Engine::builder().backend(Backend::Tilt(DeviceSpec::new(12, 4).unwrap())),
        2,
    );
    let (c1, c2, c3) = (ghz(4), ghz(8), ghz(12));
    engine.run(&c1).unwrap(); // miss → {1, 2 empty}
    engine.run(&c2).unwrap(); // miss → {1, 2}
    engine.run(&c1).unwrap(); // hit: 1 becomes most-recent
    engine.run(&c3).unwrap(); // miss → evicts 2 (LRU) → {1, 3}
    engine.run(&c2).unwrap(); // miss again → evicts 1 → {3, 2}
    engine.run(&c3).unwrap(); // hit: 3 survived
    engine.run(&c1).unwrap(); // miss: 1 was evicted

    let c = cache.counters();
    assert_eq!(c.hits, 2, "c1 touch + c3 after eviction round");
    assert_eq!(c.misses, 5);
    assert_eq!(c.evictions, 3);
    assert_eq!(c.entries, 2);
}

/// `run_batch` shares the session cache: a duplicate-heavy batch
/// compiles each distinct circuit once (modulo in-flight races) and
/// stays byte-identical to per-circuit runs.
#[test]
fn batch_workers_share_the_cache() {
    let (engine, cache) = cached(
        Engine::builder().backend(Backend::Tilt(DeviceSpec::new(12, 4).unwrap())),
        64,
    );
    let circuits: Vec<Circuit> = (0..40).map(|k| ghz(4 + (k % 3) * 4)).collect();
    let reports = engine.run_batch(circuits.clone());
    let counters = cache.counters();
    assert_eq!(counters.entries, 3, "three distinct circuits");
    assert!(
        counters.hits >= 1,
        "duplicates within the batch must hit: {counters:?}"
    );
    assert_eq!(counters.hits + counters.misses, 40);
    for (c, r) in circuits.iter().zip(&reports) {
        let single = engine.run(c).unwrap();
        let r = r.as_ref().unwrap();
        assert_eq!(
            r.tilt_program().unwrap().to_string(),
            single.tilt_program().unwrap().to_string()
        );
        assert_eq!(r.ln_success.to_bits(), single.ln_success.to_bits());
        assert_eq!(r.exec_time_us.to_bits(), single.exec_time_us.to_bits());
    }
}

/// Service responses served from a snapshot restored by `load` are
/// byte-identical to fresh responses, and tampered snapshot lines are
/// rejected individually.
#[test]
fn persisted_cache_round_trips_and_rejects_corruption() {
    let dir = scratch_dir("roundtrip");
    let spec = DeviceSpec::new(8, 4).unwrap();
    let request =
        "{\"id\":1,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\",\"emit_program\":true}\n";

    // Session one: compile fresh, snapshot.
    let cache1 = Arc::new(CompileCache::new(64));
    let mut s1 = Service::new(
        Engine::builder()
            .backend(Backend::Tilt(spec))
            .compile_cache(Arc::clone(&cache1)),
    )
    .unwrap();
    let mut out1 = Vec::new();
    s1.serve(Cursor::new(request.to_string()), &mut out1, None)
        .unwrap();
    assert!(cache1.save(&dir).unwrap() >= 1);

    // Session two: restore, serve the same request from disk.
    let cache2 = Arc::new(CompileCache::new(64));
    let (loaded, rejected) = cache2.load(&dir).unwrap();
    assert!(loaded >= 1);
    assert_eq!(rejected, 0);
    let mut s2 = Service::new(
        Engine::builder()
            .backend(Backend::Tilt(spec))
            .compile_cache(Arc::clone(&cache2)),
    )
    .unwrap();
    let mut out2 = Vec::new();
    let summary = s2
        .serve(Cursor::new(request.to_string()), &mut out2, None)
        .unwrap();
    assert_eq!(
        String::from_utf8(out1).unwrap(),
        String::from_utf8(out2).unwrap(),
        "a restored entry must serve the byte-identical response (program text included)"
    );
    assert_eq!(summary.cache.hits, 1, "served from the restored snapshot");
    assert_eq!(summary.cache.misses, 0);

    // Corruption: flip one digit inside the snapshot payload. The line
    // fails digest verification and is dropped; the next session
    // simply recompiles.
    let path = dir.join("compile-cache.jsonl");
    let tampered = std::fs::read_to_string(&path)
        .unwrap()
        .replace("\"swaps\":", "\"swaps\":1");
    std::fs::write(&path, tampered).unwrap();
    let cache3 = Arc::new(CompileCache::new(64));
    let (loaded, rejected) = cache3.load(&dir).unwrap();
    assert_eq!(loaded, 0, "every tampered line is rejected");
    assert!(rejected >= 1);
    let mut s3 = Service::new(
        Engine::builder()
            .backend(Backend::Tilt(spec))
            .compile_cache(Arc::clone(&cache3)),
    )
    .unwrap();
    let mut out3 = Vec::new();
    let summary = s3
        .serve(Cursor::new(request.to_string()), &mut out3, None)
        .unwrap();
    assert_eq!(summary.cache.hits, 0, "cold start after corruption");
    assert_eq!(summary.stats.errors, 0, "recompile succeeds regardless");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot taken under one session config is *stale* for a session
/// configured differently: the keys no longer match, so the entry is
/// ignored (and the differently-configured session compiles fresh).
#[test]
fn stale_snapshot_entries_never_serve_a_reconfigured_session() {
    let dir = scratch_dir("stale");
    let request = "{\"id\":1,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\"}\n";
    let cache1 = Arc::new(CompileCache::new(64));
    let mut s1 = Service::new(
        Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
            .compile_cache(Arc::clone(&cache1)),
    )
    .unwrap();
    let mut out = Vec::new();
    s1.serve(Cursor::new(request.to_string()), &mut out, None)
        .unwrap();
    cache1.save(&dir).unwrap();

    // Same circuit, different head size: the persisted entry's config
    // fingerprint no longer matches.
    let cache2 = Arc::new(CompileCache::new(64));
    cache2.load(&dir).unwrap();
    let mut s2 = Service::new(
        Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(8, 2).unwrap()))
            .compile_cache(Arc::clone(&cache2)),
    )
    .unwrap();
    let mut out2 = Vec::new();
    let summary = s2
        .serve(Cursor::new(request.to_string()), &mut out2, None)
        .unwrap();
    assert_eq!(summary.cache.hits, 0, "stale entry must not serve");
    assert_eq!(summary.stats.ok, 1, "fresh compile under the new config");
    let resp = Json::parse(String::from_utf8(out2).unwrap().lines().next().unwrap()).unwrap();
    assert!(
        resp.get("swaps").unwrap().as_f64().unwrap() >= 1.0,
        "head 2 must actually swap: {resp:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The serve loop's cache probe keys override requests under their own
/// overlaid config — and duplicate wire requests are answered with
/// byte-identical lines (id aside) without recompiling.
#[test]
fn service_duplicates_hit_across_default_and_override_sessions() {
    let mut s =
        Service::new(Engine::builder().backend(Backend::Tilt(DeviceSpec::new(16, 4).unwrap())))
            .unwrap();
    let text = qasm::to_qasm(&qaoa_maxcut(16, 2, 3));
    let line = |id: usize, scheduler: Option<&str>| {
        let mut obj = Json::object().set("id", id).set("qasm", text.as_str());
        if let Some(s) = scheduler {
            obj = obj.set("scheduler", s);
        }
        format!("{}\n", obj.render())
    };
    // Two identical default requests, two identical override requests.
    let input = format!(
        "{}{}{}{}{{\"op\":\"stats\"}}\n",
        line(1, None),
        line(2, None),
        line(3, Some("naive")),
        line(4, Some("naive")),
    );
    let mut out = Vec::new();
    let summary = s.serve(Cursor::new(input), &mut out, None).unwrap();
    let text = String::from_utf8(out).unwrap();
    let resps: Vec<&str> = text.lines().collect();
    assert_eq!(
        resps[0].replace("\"id\":1", "\"id\":2"),
        resps[1],
        "default-session duplicate is byte-identical"
    );
    assert_eq!(
        resps[2].replace("\"id\":3", "\"id\":4"),
        resps[3],
        "override duplicate is byte-identical"
    );
    assert_ne!(
        resps[0].replace("\"id\":1", ""),
        resps[2].replace("\"id\":3", ""),
        "the two configs genuinely compile differently"
    );
    assert_eq!(summary.cache.hits, 2);
    assert_eq!(summary.cache.misses, 2);
    assert_eq!(summary.cache.entries, 2);
}

/// A snapshot as `CompileCache::save` writes it, committed byte for
/// byte: a salt header, an entry whose program text holds a newline, a
/// quote, a backslash and non-ASCII text, and an entry with simulation
/// fields. Every later loader must accept it unchanged.
const SNAPSHOT_FIXTURE: &str = r##"{"v":1,"salt":"0000000000005eed0fc15edb0fc0ffee","check":"599b9d8ef66487def5406fa7ab857211"}
{"v":1,"circuit":"0123456789abcdef0011223344556677","config":"0000000000000000000000000000c0f1","backend":"tilt","swaps":2,"opposing_swaps":1,"moves":3,"move_distance":7,"native_gates":12,"native_two_qubit":4,"epr_pairs":0,"ln_success":-0.0625,"success":0.9394130628134758,"exec_time_us":412.5,"program":"move -> 4\n  [  0] ms q[0], q[3] // \"ancilla\" \\ tape\n  [  1] rz(π/2) q[1] — ключ ✓\n","check":"b8e8e196510e2f4339b348d758b1c35a"}
{"v":1,"circuit":"000000000000000000000000feedbeef","config":"0000000000000000000000000000c0f1","backend":"qccd","swaps":2,"opposing_swaps":1,"moves":5,"move_distance":7,"native_gates":12,"native_two_qubit":4,"epr_pairs":0,"ln_success":-0.0625,"success":0.9394130628134758,"exec_time_us":412.5,"sim_simulator":"stabilizer","sim_bitstring":"0110","sim_measurements":4,"sim_deterministic":3,"sim_random":1,"check":"ede5bb2ef4b29e566474964f5edb6c73"}
"##;

fn fixture_key(circuit: u128) -> CacheKey {
    CacheKey {
        circuit: Digest(circuit),
        config: Digest(0xc0f1),
    }
}

fn fixture_wire(backend: BackendKind, moves: usize) -> WireReport {
    WireReport {
        backend,
        swaps: 2,
        opposing_swaps: 1,
        moves,
        move_distance: 7,
        native_gates: 12,
        native_two_qubit: 4,
        epr_pairs: 0,
        ln_success: -0.0625,
        success: 0.9394130628134758,
        exec_time_us: 412.5,
        program_text: None,
        sim: None,
    }
}

/// Loads `text` as a snapshot from a fresh directory.
fn load_snapshot(tag: &str, text: &str) -> (CompileCache, (usize, usize)) {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("compile-cache.jsonl"), text).unwrap();
    let cache = CompileCache::new(8);
    let counts = cache.load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (cache, counts)
}

/// The committed snapshot loads with no rejections into the exact wire
/// reports it was written from, and saving them again reproduces it
/// byte for byte.
#[test]
fn committed_snapshot_fixture_loads_and_resaves_byte_identically() {
    let (cache, counts) = load_snapshot("fixture", SNAPSHOT_FIXTURE);
    assert_eq!(counts, (2, 0));

    let mut program = fixture_wire(BackendKind::Tilt, 3);
    program.program_text = Some(
        "move -> 4\n  [  0] ms q[0], q[3] // \"ancilla\" \\ tape\n  [  1] rz(π/2) q[1] — ключ ✓\n"
            .to_string(),
    );
    let mut simulated = fixture_wire(BackendKind::Qccd, 5);
    simulated.sim = Some(SimReport {
        simulator: SimulatorKind::Stabilizer,
        bitstring: "0110".to_string(),
        measurements: 4,
        deterministic_measurements: Some(3),
        random_measurements: Some(1),
    });
    let key = fixture_key(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
    assert_eq!(cache.peek_wire(key), Some(program));
    assert_eq!(cache.peek_wire(fixture_key(0xfeed_beef)), Some(simulated));

    let dir = scratch_dir("fixture-resave");
    assert_eq!(cache.save(&dir).unwrap(), 2);
    let resaved = std::fs::read_to_string(dir.join("compile-cache.jsonl")).unwrap();
    assert_eq!(
        resaved, SNAPSHOT_FIXTURE,
        "the writer's byte format is pinned"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Entry lines the loader must reject: each edit is applied to the
/// fixture's program line, under the intact header.
#[test]
fn non_canonical_snapshot_lines_are_rejected() {
    let lines: Vec<&str> = SNAPSHOT_FIXTURE.lines().collect();
    let (header, line, other) = (lines[0], lines[1], lines[2]);
    let tail_at = line.rfind(",\"check\":").unwrap();
    let (body, tail) = line.split_at(tail_at);
    let check = &tail[",\"check\":".len()..tail.len() - 1];
    let other_check =
        &other[other.rfind(",\"check\":").unwrap() + ",\"check\":".len()..other.len() - 1];
    let cases = [
        ("whitespace", line.replace("\"swaps\":2", "\"swaps\": 2")),
        (
            "check first",
            format!("{{\"check\":{check},{}}}", &body[1..]),
        ),
        ("trailing space", format!("{line} ")),
        ("trailing brace", format!("{line}}}")),
        // `é` replaces the tail's comma, so its two bytes straddle the
        // fixed-width tail boundary.
        ("straddling char", format!("{body}é{}", &tail[1..])),
        ("wrong bytes", line.replace(check, other_check)),
    ];
    for (what, bad) in cases {
        assert_ne!(bad, line, "{what}: the edit applies");
        let (cache, counts) = load_snapshot("noncanonical", &format!("{header}\n{bad}\n"));
        assert_eq!(counts, (0, 1), "{what}: {bad}");
        assert_eq!(cache.counters().entries, 0, "{what}");
    }
}
