//! `serve_mixed`: `tilt serve` over one Unix socket, one request
//! outstanding.
//!
//! A job restores a compile-cache snapshot with `CompileCache::load`,
//! builds the `Service` and starts it on a server thread (the set-up),
//! then sends a fixed sequence of request lines in a closed loop and
//! times each from its write until its last response line is read, in
//! CPU time of the client and the server thread together.
//! Every job replays the same seeded sequence against the same snapshot,
//! so each job does the same work. The classes, by share:
//!
//! * hit: a circuit of the snapshot. The hot set is larger than the
//!   service's 512-entry parse memo and smaller than its 4,096-entry
//!   cache, and takes its shapes from the repository's own service
//!   benchmark (`crates/bench/src/bin/perf.rs`): QAOA MaxCut on 16
//!   qubits with four layers, and one in four BV-12.
//! * miss: a fresh seeded QAOA circuit of the hot shape, compiled on
//!   arrival, so hit and miss differ only by the cache.
//! * override: a `qccd` or `scaled` request, compiled by a one-off engine.
//! * stream: a `"stream": true` request, compiled through the streaming
//!   pipeline, which bypasses the cache.
//! * error: a malformed line, answered with kind `invalid_request`.
//!
//! The hit share is far above one half and the slowest class holds a
//! few percent of the requests, so the median falls inside the hit
//! class and the tail inside the slowest class. The tail is taken per
//! job and reported as the median over jobs: over a whole run the
//! percentile with ten samples beyond it lies so deep that it reads
//! the odd slow request of a busy host, not the service. Every response must be
//! byte-identical to one rendered from a fresh `Engine::run` (error
//! lines must carry the expected kind). The untimed priming pass that
//! writes the snapshot is the first, uncached run of each hot circuit.

use crate::clock::CpuTime;
use crate::layers::{self, Scratch};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::{splitmix, Mix, Pass};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tilt_benchmarks::bv::bernstein_vazirani;
use tilt_benchmarks::qaoa::qaoa_maxcut;
use tilt_benchmarks::qft::qft;
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_circuit::Circuit;
use tilt_compiler::{CompileReport, DeviceSpec};
use tilt_engine::{Backend, CompileCache, Engine, EngineBuilder, Service, WireReport};
use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
use tilt_report::Json;
use tilt_scale::{compile_scaled, estimate_scaled, ScaleSpec};
use tilt_sim::{GateTimeModel, NoiseModel};

const IONS: usize = 16;
const HEAD: usize = 4;
const HOT: usize = 2000;
const BV_QUBITS: usize = 12;
/// Layers of the hot and the miss QAOA circuits.
const QAOA_LAYERS: usize = 4;
/// Requests per job.
const REQUESTS: usize = 3000;
const IONS_PER_TRAP: usize = 5;
const ELU_IONS: usize = 10;
const ELU_HEAD: usize = 4;
const MALFORMED: [&str; 2] = [
    "{\"id\":\"bad-json\",\"qasm\":",
    "{\"id\":\"bad-qasm\",\"qasm\":\"qreg q[2];\\nwat q[0];\\n\"}",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Hit,
    Miss,
    Qccd,
    Scaled,
    Stream,
    Error,
}

/// Class shares in requests per thousand.
const SHARES: [(Class, u64); 6] = [
    (Class::Hit, 860),
    (Class::Miss, 60),
    (Class::Qccd, 20),
    (Class::Scaled, 20),
    (Class::Stream, 30),
    (Class::Error, 10),
];

impl Class {
    fn metric(self) -> &'static str {
        match self {
            Class::Hit => "engine.service.request_ms.hit",
            Class::Miss => "engine.service.request_ms.miss",
            Class::Qccd | Class::Scaled => "engine.service.request_ms.override",
            Class::Stream => "engine.service.request_ms.stream",
            Class::Error => "engine.service.request_ms.error",
        }
    }
}

/// The compile/estimate fields of a response, in wire order.
#[derive(Clone, Debug)]
struct Wire {
    backend: String,
    fields: [usize; 7],
    ln_success: f64,
    success: f64,
    exec_time_us: f64,
}

impl Wire {
    fn of(w: &WireReport) -> Wire {
        Wire {
            backend: w.backend.to_string(),
            fields: [
                w.swaps,
                w.opposing_swaps,
                w.moves,
                w.move_distance,
                w.native_gates,
                w.native_two_qubit,
                w.epr_pairs,
            ],
            ln_success: w.ln_success,
            success: w.success,
            exec_time_us: w.exec_time_us,
        }
    }

    /// The fields of a TILT run with compile statistics `r`.
    fn tilt(r: &CompileReport, ln_success: f64, success: f64, exec_time_us: f64) -> Wire {
        Wire {
            backend: "tilt".into(),
            fields: [
                r.swap_count,
                r.opposing_swap_count,
                r.move_count,
                r.move_distance_ions,
                r.native_gate_count,
                r.native_two_qubit_count,
                0,
            ],
            ln_success,
            success,
            exec_time_us,
        }
    }

    /// The response line `tilt serve` documents for a run; `stream`
    /// adds the streaming markers with `(increments, input_gates)`.
    fn render(&self, id: usize, stream: Option<(usize, usize)>) -> String {
        const NAMES: [&str; 7] = [
            "swaps",
            "opposing_swaps",
            "moves",
            "move_distance",
            "native_gates",
            "native_two_qubit",
            "epr_pairs",
        ];
        let mut j = Json::object().set("id", id).set("ok", true);
        if stream.is_some() {
            j = j.set("streamed", true);
        }
        j = j.set("backend", self.backend.as_str());
        for (name, &value) in NAMES.iter().zip(&self.fields) {
            j = j.set(name, value);
        }
        j = j
            .set("ln_success", self.ln_success)
            .set("success", self.success)
            .set("exec_time_us", self.exec_time_us);
        if let Some((increments, input_gates)) = stream {
            j = j
                .set("increments", increments)
                .set("input_gates", input_gates);
        }
        j.render()
    }
}

struct Request {
    class: Class,
    line: String,
    /// Gates in the payload, which a streaming response reports.
    input_gates: usize,
    /// The expected response body (`None` for error lines).
    wire: Option<Wire>,
}

pub struct Input {
    snapshot: PathBuf,
    requests: Vec<Request>,
}

fn builder() -> EngineBuilder {
    Engine::builder().backend(Backend::Tilt(
        DeviceSpec::new(IONS, HEAD).expect("16 ions with a 4-ion head is valid"),
    ))
}

fn scale_spec() -> ScaleSpec {
    ScaleSpec::new(ELU_IONS, ELU_HEAD).expect("10-ion ELUs with a 4-ion head are valid")
}

/// Hot circuit `k`: the shapes the repository's own service benchmark
/// sends (`crates/bench/src/bin/perf.rs`). Every fourth is BV-12 with
/// the next secret after the seeded `offset`, so no two repeat; the
/// rest are the compile-cache workload's QAOA MaxCut on 16 qubits with
/// four layers, one seeded instance each.
fn hot_circuit(k: usize, offset: u64, state: &mut u64) -> Circuit {
    if k % 4 == 3 {
        let bits = (offset as usize + k / 4) % (1 << (BV_QUBITS - 1));
        let secret: Vec<bool> = (0..BV_QUBITS - 1).map(|i| bits >> i & 1 == 1).collect();
        bernstein_vazirani(BV_QUBITS, &secret)
    } else {
        qaoa_maxcut(IONS, QAOA_LAYERS, splitmix(state))
    }
}

fn request_line(id: usize, qasm: &str, extra: &str) -> String {
    let body = Json::object().set("id", id).set("qasm", qasm).render();
    format!("{}{extra}}}", &body[..body.len() - 1])
}

fn run_fresh(builder: EngineBuilder, qasm: &str) -> Result<Wire, String> {
    let circuit = parse_qasm(qasm).map_err(|e| e.to_string())?;
    let engine = builder.build().map_err(|e| e.to_string())?;
    let report = engine.run(&circuit).map_err(|e| e.to_string())?;
    Ok(Wire::of(&WireReport::of(&report)))
}

pub fn input(seed: u64, dir: &Path) -> Result<Input, String> {
    let mut state = seed;
    // Priming: the first run of each hot circuit through a cached
    // engine is an uncached compile; its report is the expected answer
    // and its cache entry goes into the snapshot.
    let cache = Arc::new(CompileCache::default());
    let primer = builder()
        .compile_cache(Arc::clone(&cache))
        .build()
        .map_err(|e| e.to_string())?;
    let mut hot = Vec::with_capacity(HOT);
    let offset = splitmix(&mut state);
    for k in 0..HOT {
        let qasm = to_qasm(&hot_circuit(k, offset, &mut state));
        let circuit = parse_qasm(&qasm).map_err(|e| e.to_string())?;
        let report = primer.run(&circuit).map_err(|e| e.to_string())?;
        hot.push((qasm, Wire::of(&WireReport::of(&report))));
    }
    let snapshot = dir.join("cache");
    cache.save(&snapshot).map_err(|e| e.to_string())?;

    let stream_qasm = to_qasm(&qft(16));
    let stream_wire = run_fresh(builder(), &stream_qasm)?;
    let total: u64 = SHARES.iter().map(|s| s.1).sum();
    let mut requests = Vec::with_capacity(REQUESTS);
    for id in 0..REQUESTS {
        let mut pick = splitmix(&mut state) % total;
        let class = SHARES
            .iter()
            .find(|&&(_, share)| {
                let hit = pick < share;
                pick = pick.saturating_sub(share);
                hit
            })
            .map_or(Class::Hit, |s| s.0);
        let fresh = seed.wrapping_mul(1_000_003).wrapping_add(id as u64);
        let (qasm, extra, wire) = match class {
            Class::Hit => {
                let (qasm, wire) = &hot[(splitmix(&mut state) % HOT as u64) as usize];
                (qasm.clone(), String::new(), Some(wire.clone()))
            }
            Class::Miss => {
                let qasm = to_qasm(&qaoa_maxcut(IONS, QAOA_LAYERS, fresh));
                let wire = run_fresh(builder(), &qasm)?;
                (qasm, String::new(), Some(wire))
            }
            Class::Qccd => {
                let circuit = qaoa_maxcut(12, 1, fresh);
                let spec = QccdSpec::for_qubits(circuit.n_qubits(), IONS_PER_TRAP)
                    .map_err(|e| e.to_string())?;
                let qasm = to_qasm(&circuit);
                let wire = run_fresh(builder().backend(Backend::Qccd(spec)), &qasm)?;
                let extra = format!(",\"backend\":\"qccd\",\"ions_per_trap\":{IONS_PER_TRAP}");
                (qasm, extra, Some(wire))
            }
            Class::Scaled => {
                let qasm = to_qasm(&qaoa_maxcut(IONS, 1, fresh));
                let wire = run_fresh(builder().backend(Backend::Scaled(scale_spec())), &qasm)?;
                let extra =
                    format!(",\"backend\":\"scaled\",\"elu_ions\":{ELU_IONS},\"head\":{ELU_HEAD}");
                (qasm, extra, Some(wire))
            }
            Class::Stream => (
                stream_qasm.clone(),
                ",\"stream\":true".to_string(),
                Some(stream_wire.clone()),
            ),
            Class::Error => {
                let line = MALFORMED[id % MALFORMED.len()].to_string();
                requests.push(Request {
                    class,
                    line,
                    input_gates: 0,
                    wire: None,
                });
                continue;
            }
        };
        requests.push(Request {
            class,
            line: request_line(id, &qasm, &extra),
            input_gates: parse_qasm(&qasm).map_err(|e| e.to_string())?.len(),
            wire,
        });
    }
    Ok(Input { snapshot, requests })
}

/// Checks the response lines of request `id`.
fn check(id: usize, req: &Request, lines: &[String]) -> Result<(), String> {
    let Some(wire) = &req.wire else {
        let resp = Json::parse(&lines[0]).map_err(|e| e.to_string())?;
        let kind = resp.get_path("error.kind").and_then(Json::as_str);
        if lines.len() != 1 || kind != Some("invalid_request") {
            return Err(format!(
                "request {id}: expected invalid_request, got {lines:?}"
            ));
        }
        return Ok(());
    };
    let expected = match req.class {
        Class::Stream => {
            let increments = lines.len() - 1;
            for (k, line) in lines[..increments].iter().enumerate() {
                let prefix = format!("{{\"id\":{id},\"increment\":{},\"shard\":0,", k + 1);
                if !line.starts_with(&prefix) {
                    return Err(format!("request {id}: increment line {line}"));
                }
            }
            wire.render(id, Some((increments, req.input_gates)))
        }
        _ => wire.render(id, None),
    };
    match lines.last() {
        Some(last) if *last == expected && (req.class == Class::Stream || lines.len() == 1) => {
            Ok(())
        }
        _ => Err(format!("request {id}: got {lines:?}, expected {expected}")),
    }
}

fn read_response(reader: &mut impl BufRead, class: Class) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("the service closed the connection".into());
        }
        line.truncate(line.trim_end().len());
        // A streaming request ends with its report line; every other
        // request has exactly one line.
        let last = class != Class::Stream || !line.contains("\"increment\":");
        lines.push(line);
        if last {
            return Ok(lines);
        }
    }
}

/// One job: restore the snapshot and start the service (the set-up),
/// then send every request.
pub fn job(input: &Input, pass: &mut Pass) {
    if let Err(e) = serve_job(input, pass) {
        pass.attempted += 1;
        pass.fail(e);
    }
}

fn serve_job(input: &Input, pass: &mut Pass) -> Result<(), String> {
    let t0 = CpuTime::now();
    let cache = Arc::new(CompileCache::default());
    let (loaded, rejected) = cache.load(&input.snapshot).map_err(|e| e.to_string())?;
    let load_ms = ms(t0.elapsed());
    if rejected != 0 || loaded != HOT {
        return Err(format!(
            "snapshot restored {loaded} entries, rejected {rejected}"
        ));
    }
    let mut service =
        Service::new(builder().compile_cache(Arc::clone(&cache))).map_err(|e| e.to_string())?;
    let (client, server) = UnixStream::pair().map_err(|e| e.to_string())?;
    let server_in = server.try_clone().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || {
        crate::cpu::release();
        service.serve(BufReader::new(server_in), server, None)
    });
    let setup = t0.elapsed();

    let mut writer = client.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(client);
    let mut broken = false;
    let mut latencies = Vec::with_capacity(input.requests.len());
    for (id, req) in input.requests.iter().enumerate() {
        pass.attempted += 1;
        let t = CpuTime::now();
        let sent = writer
            .write_all(req.line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| e.to_string());
        let lines = sent.and_then(|()| read_response(&mut reader, req.class));
        let took = t.elapsed();
        match lines.and_then(|lines| check(id, req, &lines)) {
            Ok(()) => {
                pass.op(took, 1.0);
                pass.engine_ms.push(ms(took));
                pass.sample(req.class.metric(), ms(took));
                latencies.push(ms(took));
            }
            Err(e) => {
                // Later responses could no longer be matched to their
                // requests: end the job here.
                pass.fail(e);
                broken = true;
                break;
            }
        }
    }
    let job = t0.elapsed();
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let served = handle
        .join()
        .map_err(|_| "the server thread panicked".to_string())?;
    served.map_err(|e| e.to_string())?;
    if !broken {
        let counters = cache.counters();
        pass.setup(setup);
        pass.job(job);
        pass.job_tails.push(stats::tail(&latencies));
        pass.sample("engine.cache.load_ms", load_ms);
        pass.sample("engine.cache.entries_loaded", loaded as f64);
        pass.sample("engine.cache.hits", counters.hits as f64);
        pass.sample("engine.cache.misses", counters.misses as f64);
    }
    Ok(())
}

/// The requests again, in process. A hit goes through a `Service` on
/// the restored snapshot over an in-memory transport: JSON decode, parse
/// memo, digest, cache lookup and rendering, all of the hit path but the
/// socket. Every other request goes through the layer entry points: JSON
/// decode, QASM parse, circuit digest, the compile layers its class
/// reaches, and response rendering.
pub fn traced_job(input: &Input, _reference: &[u64], mix: &mut Mix, tracer: &mut Tracer) {
    let mut scratch = Scratch::default();
    let digester = CompileCache::default();
    let job = tracer.enter("job");
    let cache = Arc::new(CompileCache::default());
    tracer
        .time("engine.cache.load", || {
            cache.load(&input.snapshot).map(|_| ())
        })
        .expect("the snapshot restores");
    let mut service = Service::new(builder().compile_cache(cache)).expect("the service builds");
    let mut responses = Vec::with_capacity(input.requests.len());
    for (id, req) in input.requests.iter().enumerate() {
        tracer.set_request((mix.jobs * input.requests.len() + id) as u64);
        let run = tracer.enter("engine.run");
        let lines = if req.class == Class::Hit {
            dispatch(&mut service, &req.line, tracer)
        } else {
            replay(req, id, &digester, &mut scratch, tracer)
        };
        tracer.exit(run);
        responses.push(lines);
    }
    tracer.exit(job);
    mix.jobs += 1;
    for (id, (req, lines)) in input.requests.iter().zip(responses).enumerate() {
        mix.ops += 1;
        if let Err(e) = lines.and_then(|lines| check(id, req, &lines)) {
            mix.fail(e);
        }
    }
}

/// One request line through `service` over an in-memory transport.
fn dispatch(service: &mut Service, line: &str, tracer: &mut Tracer) -> Result<Vec<String>, String> {
    let input = format!("{line}\n");
    let mut output = Vec::new();
    tracer
        .time("engine.service.dispatch", || {
            service.serve(input.as_bytes(), &mut output, None)
        })
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8(output).map_err(|e| e.to_string())?;
    Ok(text.lines().map(str::to_string).collect())
}

fn replay(
    req: &Request,
    id: usize,
    digester: &CompileCache,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> Result<Vec<String>, String> {
    let decoded = tracer.time("report.json.decode", || Json::parse(&req.line));
    let render_error = |tracer: &mut Tracer, message: String| {
        tracer.time("report.json.render", || {
            Json::object()
                .set("id", Json::Null)
                .set("ok", false)
                .set(
                    "error",
                    Json::object()
                        .set("kind", "invalid_request")
                        .set("message", message),
                )
                .render()
        })
    };
    let request = match decoded {
        Ok(r) => r,
        Err(e) => return Ok(vec![render_error(tracer, e.to_string())]),
    };
    let qasm = request
        .get("qasm")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if req.class == Class::Stream {
        let spec = DeviceSpec::new(IONS, HEAD).expect("valid session spec");
        let s = crate::stream::replay(qasm.as_bytes(), spec, tracer)?;
        let wire = Wire::tilt(&s.compile, s.ln_success, s.success, s.exec_time_us);
        return Ok(tracer.time("report.json.render", || {
            let mut lines: Vec<String> = (1..=s.increments)
                .map(|k| format!("{{\"id\":{id},\"increment\":{k},\"shard\":0,}}"))
                .collect();
            lines.push(wire.render(id, Some((s.increments, s.input_gates))));
            lines
        }));
    }
    let circuit = match tracer.time("circuit.qasm", || parse_qasm(qasm)) {
        Ok(c) => c,
        Err(e) => return Ok(vec![render_error(tracer, e.to_string())]),
    };
    tracer.count("circuit.qasm.gates", circuit.len() as f64);
    std::hint::black_box(tracer.time("hash.digest", || digester.circuit_key(&circuit)));
    let wire = match req.class {
        Class::Miss => {
            let spec = DeviceSpec::new(IONS, HEAD).expect("valid session spec");
            let out = layers::compile(tracer, &circuit, spec, scratch);
            let e = layers::estimate(tracer, &out.program);
            Wire::tilt(&out.report, e.ln_success, e.success, e.exec_time_us)
        }
        Class::Qccd => {
            layers::decompose(tracer, &circuit, scratch);
            let spec = QccdSpec::for_qubits(circuit.n_qubits(), IONS_PER_TRAP)
                .map_err(|e| e.to_string())?;
            let native = &scratch.native;
            let program = tracer
                .time("qccd.compile", || compile_qccd(native, &spec))
                .map_err(|e| e.to_string())?;
            let r = tracer.time("qccd.estimate", || {
                estimate_qccd_success(
                    &program,
                    &NoiseModel::default(),
                    &GateTimeModel::default(),
                    &QccdParams::default(),
                )
            });
            tracer.count("qccd.transports", r.transports as f64);
            Wire {
                backend: "qccd".into(),
                fields: [
                    0,
                    0,
                    r.transports,
                    r.shuttle_segments,
                    r.two_qubit_gates + r.single_qubit_gates + r.measurements,
                    r.two_qubit_gates,
                    0,
                ],
                ln_success: r.ln_success,
                success: r.success,
                exec_time_us: r.exec_time_us,
            }
        }
        Class::Scaled => {
            let spec = scale_spec();
            let program = tracer
                .time("scale.compile", || compile_scaled(&circuit, &spec))
                .map_err(|e| e.to_string())?;
            tracer.count("scale.epr_pairs", program.epr_pairs as f64);
            let r = tracer.time("sim.estimate", || {
                estimate_scaled(&program, &NoiseModel::default(), &GateTimeModel::default())
            });
            let mut fields = [r.total_swaps, 0, r.total_moves, 0, 0, 0, program.epr_pairs];
            for out in &program.elu_outputs {
                fields[1] += out.report.opposing_swap_count;
                fields[3] += out.report.move_distance_ions;
                fields[4] += out.report.native_gate_count;
                fields[5] += out.report.native_two_qubit_count;
            }
            Wire {
                backend: "scaled".into(),
                fields,
                ln_success: r.ln_success,
                success: r.success,
                exec_time_us: r.exec_time_us,
            }
        }
        Class::Hit | Class::Stream | Class::Error => {
            return Err(format!("request {id}: unexpected class"))
        }
    };
    Ok(vec![
        tracer.time("report.json.render", || wire.render(id, None))
    ])
}
