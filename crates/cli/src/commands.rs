//! Subcommand implementations (string in → report text out).
//!
//! Every command is a client of the [`tilt_engine::Engine`] session
//! API, and every engine is built by [`builder`]: the flags decode into
//! [`Overrides`] and the engine's one overlay turns them into a session
//! sized for the circuit, exactly as the service does for wire fields.
//! `run --backend tilt|qccd|scaled` reports on any backend.

use crate::args::Options;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tilt_circuit::{qasm, Circuit};
use tilt_engine::{
    AdmissionControl, Backend, CompileCache, CompileStats, Engine, EngineBuilder, NullSink,
    Overrides, RunDetail, RunReport, Service, ServiceSummary, TiltError, VerifyLevel,
};
use tilt_report::{fmt_success, Table};
use tilt_sim::estimate_ideal_success;

/// The tape `serve` sizes its session to when `--ions` is absent.
const SERVE_WIDTH: usize = 64;

/// Loads the target as a QASM file.
fn load_circuit(opts: &Options) -> Result<Circuit, String> {
    let source = std::fs::read_to_string(&opts.target)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
    qasm::parse_qasm(&source).map_err(|e| e.to_string())
}

/// The engine prototype the flags name for a `width`-qubit register —
/// the one place a command's options become an engine. It overlays no
/// base backend, and the operator's own dimensions are not capped.
fn builder(o: &Overrides, width: usize) -> Result<EngineBuilder, String> {
    Engine::builder().overlay(o, width)
}

/// The engine [`builder`] describes, built.
fn engine(o: &Overrides, width: usize) -> Result<Engine, String> {
    builder(o, width)?.build().map_err(|e| e.to_string())
}

/// The machine a session runs a `width`-qubit register on, as a phrase.
fn machine(backend: &Backend, width: usize) -> String {
    match backend {
        Backend::Tilt(s) => format!("{} ions, head {}", s.n_ions(), s.head_size()),
        Backend::Qccd(s) => format!("QCCD, {} traps × {} capacity", s.n_traps(), s.capacity()),
        Backend::Scaled(s) => format!(
            "{} ELUs of {} ions (head {})",
            s.elus_for(width),
            s.ions_per_elu(),
            s.head_size()
        ),
    }
}

/// The machine and the compile statistics every backend reports, in
/// its own terms.
fn describe(backend: &Backend, width: usize, c: &CompileStats) -> String {
    let mut text = format!("device: {}\n", machine(backend, width));
    if let Backend::Qccd(_) = backend {
        let _ = writeln!(
            text,
            "transports: {} ({} shuttle segments)",
            c.move_count, c.move_distance
        );
    } else {
        let ratio = if c.swap_count == 0 {
            0.0
        } else {
            c.opposing_swap_count as f64 / c.swap_count as f64
        };
        let _ = writeln!(
            text,
            "swaps: {} (opposing {}, ratio {ratio:.2})",
            c.swap_count, c.opposing_swap_count
        );
        let _ = writeln!(
            text,
            "moves: {} (distance {} ion spacings)",
            c.move_count, c.move_distance
        );
    }
    if let Backend::Scaled(_) = backend {
        let _ = writeln!(text, "remote gates: {} (EPR pairs)", c.epr_pairs);
    }
    let _ = writeln!(
        text,
        "native gates: {} ({} two-qubit)",
        c.native_gate_count, c.native_two_qubit_count
    );
    text
}

/// The success line every run and stream ends its numbers with.
fn success_line(success: f64, log10_success: f64, exec_time_us: f64) -> String {
    format!(
        "success: {} (log10 {log10_success:.2}), execution time: {:.3} ms\n",
        fmt_success(success),
        exec_time_us / 1e3
    )
}

/// Renders the logical-simulation line of a report, when present.
fn describe_sim(report: &RunReport) -> String {
    let Some(sim) = &report.sim else {
        return String::new();
    };
    let mut text = format!("simulated ({}):", sim.simulator);
    if sim.measurements == 0 {
        text.push_str(" no measurements in circuit");
    } else {
        let _ = write!(
            text,
            " {} ({} measurements",
            sim.bitstring, sim.measurements
        );
        if let (Some(d), Some(r)) = (sim.deterministic_measurements, sim.random_measurements) {
            let _ = write!(text, ": {d} deterministic, {r} random");
        }
        text.push(')');
    }
    text.push('\n');
    text
}

/// `tilt-cli run <file.qasm> [--backend tilt|qccd|scaled]` — one
/// circuit through the session API.
/// `tilt-cli run <dir> --batch` — every `.qasm` in the directory as one
/// batch, one table row per circuit.
pub fn run(args: &[String]) -> Result<String, String> {
    let opts = Options::parse("run", args).map_err(|e| e.to_string())?;
    if opts.stream {
        return run_stream_file(&opts);
    }
    if opts.batch {
        return run_batch_dir(&opts);
    }
    let circuit = load_circuit(&opts)?;
    let width = circuit.n_qubits();
    let engine = engine(&opts.overrides, width)?;
    let report = engine.run(&circuit).map_err(|e| e.to_string())?;
    let mut text = format!("ran `{}`: {}\n", opts.target, circuit.stats());
    text.push_str(&describe(engine.backend(), width, &report.compile));
    text.push_str(&success_line(
        report.success,
        report.log10_success(),
        report.exec_time_us,
    ));
    match &report.detail {
        RunDetail::Tilt { success, .. } => {
            let ideal = estimate_ideal_success(&circuit, engine.noise(), engine.gate_times());
            let _ = writeln!(text, "ideal TI: {}", fmt_success(ideal.success));
            let _ = writeln!(
                text,
                "heat: {:.2} quanta after {} moves",
                success.report.final_quanta, success.report.moves
            );
        }
        RunDetail::Qccd { report: q, .. } => {
            let _ = writeln!(
                text,
                "cooling rounds: {}, peak heat: {:.1} quanta",
                q.cooling_rounds, q.peak_quanta
            );
        }
        RunDetail::Scaled { .. } => {}
    }
    text.push_str(&describe_sim(&report));
    if opts.emit_qasm || opts.emit_program {
        let out = report.tilt_output().ok_or_else(|| {
            format!(
                "--emit-qasm/--emit-program print a TILT program; --backend {} has none",
                report.backend
            )
        })?;
        if opts.emit_qasm {
            text.push_str("\n-- routed physical circuit (OpenQASM) --\n");
            text.push_str(&qasm::to_qasm(&out.routed.circuit));
        }
        if opts.emit_program {
            text.push_str("\n-- scheduled program --\n");
            let _ = write!(text, "{}", out.program);
        }
    }
    Ok(text)
}

/// `tilt-cli lint <file.qasm>` — compile for the `--backend` machine
/// and run the static program-invariant verifier over the compiled
/// artifacts; under `--stream` the verifier folds ride the
/// bounded-memory pipeline and report the same findings.
///
/// Human output is one line per diagnostic plus a summary; `--json`
/// emits the diagnostics as a JSON array (empty when clean). Any
/// error-severity finding makes the command fail, so the exit code is
/// the lint verdict.
pub fn lint(args: &[String]) -> Result<String, String> {
    let mut opts = Options::parse("lint", args).map_err(|e| e.to_string())?;
    if opts.stream && opts.overrides.method.is_some() {
        return Err("`lint --stream` never materializes the circuit; drop --method".into());
    }
    // A stream is sized by its header and never parsed whole.
    let (circuit, width) = if opts.stream {
        (None, probe_stream_width(&opts.target)?)
    } else {
        let circuit = load_circuit(&opts)?;
        let width = circuit.n_qubits();
        (Some(circuit), width)
    };
    // Warn, not strict: lint's job is to *report* every finding, then
    // decide the exit code itself (strict would stop at the first).
    opts.overrides.verify = Some(VerifyLevel::Warn);
    let engine = engine(&opts.overrides, width)?;
    let elus = match engine.backend() {
        Backend::Scaled(spec) => format!(" across {} ELUs", spec.elus_for(width)),
        _ => String::new(),
    };
    let (diags, native_ops, how) = match circuit {
        Some(circuit) => {
            let r = engine.run(&circuit).map_err(|e| e.to_string())?;
            (
                r.diagnostics,
                r.compile.native_gate_count,
                "verified".into(),
            )
        }
        None => {
            let window = opts
                .stream_window
                .unwrap_or(tilt_engine::DEFAULT_STREAM_WINDOW);
            let outcome = engine
                .run_streaming_qasm(open_stream(&opts.target)?, window, &mut NullSink)
                .map_err(|e| e.to_string())?;
            let how = format!(
                "stream-verified in {} increments, window {window}",
                outcome.increments
            );
            (outcome.diagnostics, outcome.compile.native_gate_count, how)
        }
    };

    let errors = diags
        .iter()
        .filter(|d| d.severity == tilt_engine::Severity::Error)
        .count();
    let text = if opts.json {
        let arr: Vec<tilt_report::Json> = diags
            .iter()
            .map(|d| {
                tilt_report::Json::object()
                    .set("rule", d.rule)
                    .set("severity", d.severity.to_string())
                    .set("op_index", d.op_index as f64)
                    .set("message", d.message.as_str())
            })
            .collect();
        format!("{}\n", tilt_report::Json::Arr(arr).render())
    } else {
        let mut text = String::new();
        for d in &diags {
            let _ = writeln!(text, "{d}");
        }
        let verdict = if diags.is_empty() {
            format!("clean ({native_ops} native ops{elus} {how})")
        } else {
            format!("{} diagnostic(s), {errors} error(s)", diags.len())
        };
        let _ = writeln!(text, "lint `{}`: {verdict}", opts.target);
        text
    };
    if errors > 0 {
        Err(text)
    } else {
        Ok(text)
    }
}

/// `tilt-cli timeline <file.qasm>`
pub fn timeline(args: &[String]) -> Result<String, String> {
    let opts = Options::parse("timeline", args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let report = engine(&opts.overrides, circuit.n_qubits())?
        .run(&circuit)
        .map_err(|e| e.to_string())?;
    let program = report.tilt_program().ok_or_else(|| {
        format!(
            "`timeline` draws a TILT tape; --backend {} has none",
            report.backend
        )
    })?;
    let mut text = format!("timeline of `{}`\n", opts.target);
    text.push_str(&tilt_compiler::viz::render_timeline(program));
    Ok(text)
}

/// One table row for a batch/bench report.
fn report_row(name: &str, report: &Result<RunReport, TiltError>) -> [String; 5] {
    match report {
        Ok(r) => [
            name.to_string(),
            r.compile.swap_count.to_string(),
            r.compile.move_count.to_string(),
            fmt_success(r.success),
            format!("{:.3}", r.exec_time_us / 1e6),
        ],
        Err(e) => [
            name.to_string(),
            "-".into(),
            "-".into(),
            format!("error: {e}"),
            "-".into(),
        ],
    }
}

/// Reads just the QASM prologue of `path` to learn the register width
/// (the `qreg` must precede the first gate, so this touches only the
/// header — cheap even on a million-gate file).
fn probe_stream_width(path: &str) -> Result<usize, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    qasm::QasmStream::new(std::io::BufReader::new(file))
        .require_n_qubits()
        .map_err(|e| format!("{path}: {e}"))
}

/// Opens `path` for the actual streaming pass.
fn open_stream(path: &str) -> Result<std::io::BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(std::io::BufReader::new)
        .map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// The `--stream` flavour of `run`: push the QASM file through the
/// bounded-memory windowed pipeline without ever materializing the
/// circuit or the scheduled program. A header probe sizes the device,
/// then the file is re-read as the gate stream; peak memory is
/// O(window), not O(gates).
fn run_stream_file(opts: &Options) -> Result<String, String> {
    if opts.batch {
        return Err("--stream runs one file; it cannot be combined with --batch".into());
    }
    if opts.overrides.method.is_some() {
        return Err(
            "--stream never materializes the logical circuit, so it cannot simulate; \
             drop --method or drop --stream"
                .into(),
        );
    }
    if opts.emit_program || opts.emit_qasm {
        return Err(
            "--stream discards each window after delivery; --emit-program/--emit-qasm \
             need the monolithic path"
                .into(),
        );
    }
    let width = probe_stream_width(&opts.target)?;
    let engine = engine(&opts.overrides, width)?;
    let window = opts
        .stream_window
        .unwrap_or(tilt_engine::DEFAULT_STREAM_WINDOW);
    let mut ops = 0usize;
    let mut sink = |_shard: usize, chunk: &[tilt_compiler::TiltOp]| {
        ops += chunk.len();
    };
    let outcome = engine
        .run_streaming_qasm(open_stream(&opts.target)?, window, &mut sink)
        .map_err(|e| e.to_string())?;
    let mut text = format!(
        "streamed `{}`: {} input gates in {} increments (window {})\n",
        opts.target, outcome.input_gate_count, outcome.increments, window
    );
    text.push_str(&describe(engine.backend(), width, &outcome.compile));
    let _ = writeln!(text, "scheduled ops delivered: {ops}");
    text.push_str(&success_line(
        outcome.success,
        outcome.log10_success(),
        outcome.exec_time_us,
    ));
    Ok(text)
}

/// The `--batch` flavour of `run`: one engine session, a directory of
/// circuits, one table row per circuit in directory order.
fn run_batch_dir(opts: &Options) -> Result<String, String> {
    let entries = std::fs::read_dir(&opts.target)
        .map_err(|e| format!("cannot read directory `{}`: {e}", opts.target))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .qasm files in `{}`", opts.target));
    }

    let mut names = Vec::with_capacity(paths.len());
    let mut circuits = Vec::with_capacity(paths.len());
    for path in &paths {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let circuit = qasm::parse_qasm(&source).map_err(|e| format!("{}: {e}", path.display()))?;
        names.push(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
        );
        circuits.push(circuit);
    }

    // One session sized for the widest circuit (or --ions) serves the
    // whole batch; individual misfits surface as per-row errors.
    let widest = circuits.iter().map(Circuit::n_qubits).max().unwrap_or(1);
    let engine = engine(&opts.overrides, widest)?;

    let mut table = Table::new(["circuit", "swaps", "moves", "success", "exec(s)"]);
    engine.run_batch_streaming(circuits, |i, report| {
        table.row(report_row(&names[i], &report));
    });
    let mut text = format!(
        "batch of {} circuits on {}\n",
        names.len(),
        machine(engine.backend(), widest)
    );
    text.push_str(&table.render());
    Ok(text)
}

/// Cross-platform SIGTERM-to-flag shim for the serve loop. On unix the
/// handler is installed through the libc `signal` symbol directly (the
/// workspace builds offline, without the `libc` crate); elsewhere the
/// flag simply never fires and shutdown is EOF / `{"op":"shutdown"}`.
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_term(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() -> &'static AtomicBool {
        const SIGTERM: i32 = 15;
        extern "C" {
            // `sighandler_t signal(int, sighandler_t)` — handlers are
            // pointer-sized, so `usize` carries the previous handler.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_term);
        }
        &FLAG
    }

    #[cfg(not(unix))]
    pub fn install() -> &'static AtomicBool {
        &FLAG
    }
}

/// Arms the engine's fault-injection plan from `TILT_FAULT_PLAN` (only
/// compiled in under the `faults` feature — the CI chaos smoke builds
/// it; production builds have no seams to arm).
#[cfg(feature = "faults")]
fn arm_fault_plan() -> Result<(), String> {
    let Ok(spec) = std::env::var("TILT_FAULT_PLAN") else {
        return Ok(());
    };
    if spec.is_empty() {
        return Ok(());
    }
    let plan = tilt_engine::faults::parse_plan(&spec)
        .map_err(|e| format!("invalid TILT_FAULT_PLAN: {e}"))?;
    eprintln!("tilt serve: fault plan armed: {spec}");
    // The guard would disarm the plan on drop; the serve process keeps
    // it for its whole life.
    std::mem::forget(tilt_engine::faults::install(plan));
    Ok(())
}

/// `tilt-cli serve [--ions N] [--head L] [--listen addr] [--cache-dir DIR]`
///
/// Runs the JSON-lines compile service over stdin/stdout (the default)
/// or a TCP listener (`--listen host:port`, one service loop per
/// connection). Responses go to the wire as they complete; the exit
/// summary goes to stderr so stdout stays pure protocol.
///
/// One content-addressed compile cache backs the whole process (all
/// connections in TCP mode); `--cache-dir` additionally restores its
/// snapshot at startup (entries failing digest verification are
/// dropped individually) and writes it back at drain.
pub fn serve(args: &[String]) -> Result<String, String> {
    let opts = Options::parse("serve", args).map_err(|e| e.to_string())?;
    let builder = builder(&opts.overrides, SERVE_WIDTH)?;
    #[cfg(feature = "faults")]
    arm_fault_plan()?;
    // One process-wide cache: the session engine, every per-request
    // override engine, and every TCP connection share it.
    let cache = Arc::new(CompileCache::default());
    let persist = opts.cache_dir.as_deref().map(std::path::Path::new);
    if let Some(dir) = persist {
        match cache.load(dir) {
            Ok((0, 0)) => {}
            Ok((loaded, 0)) => eprintln!(
                "tilt serve: compile cache: restored {loaded} entries from {}",
                dir.display()
            ),
            Ok((loaded, rejected)) => eprintln!(
                "tilt serve: compile cache: restored {loaded} entries from {} \
                 ({rejected} corrupt/stale entries rejected)",
                dir.display()
            ),
            Err(e) => eprintln!(
                "tilt serve: compile cache: cannot read {}: {e} (starting cold)",
                dir.display()
            ),
        }
    }
    // Every connection's service: the session the flags name over the
    // shared cache, one admission budget (0 on an axis leaves it
    // unlimited) and one default deadline.
    let builder = builder.compile_cache(cache.clone());
    let limit = |n: usize| if n > 0 { n } else { usize::MAX };
    let admission = Arc::new(AdmissionControl::new(
        limit(opts.max_in_flight),
        limit(opts.max_in_flight_bytes),
    ));
    let deadline =
        (opts.default_deadline_ms > 0).then(|| Duration::from_millis(opts.default_deadline_ms));
    let session = || -> Result<Service, String> {
        Ok(Service::new(builder.clone())
            .map_err(|e| e.to_string())?
            .with_admission(Arc::clone(&admission))
            .with_default_deadline(deadline))
    };
    // Validate the session config before any I/O so a bad --ions/--head
    // fails fast with a usage error.
    session()?;
    let flag = sigterm::install();
    let listener = opts.listen.as_deref().map(|addr| -> Result<_, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
        // Non-blocking accept so SIGTERM is noticed between connections.
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        eprintln!("tilt serve: listening on {local}");
        Ok((listener, local))
    });
    let listener = listener.transpose()?;
    let mut workers: Vec<Worker> = Vec::new();
    if listener.is_none() {
        let stdio = || Ok((std::io::stdin().lock(), std::io::stdout().lock()));
        workers.push((spawn_connection(session()?, stdio, None, flag), None));
    }
    // Each live connection is a worker thread plus a clone of its
    // socket, which the drain shuts down. Finished TCP workers are
    // reaped every pass; otherwise the retained clones would leak one
    // fd per connection until the listener hits EMFILE. Stdin is a
    // connection with no socket, and its end ends the loop.
    while !flag.load(Ordering::SeqCst) {
        let Some((listener, _)) = &listener else {
            if workers.iter().all(|(worker, _)| worker.is_finished()) {
                break;
            }
            std::thread::sleep(POLL);
            continue;
        };
        workers.retain(|(worker, _)| !worker.is_finished());
        match listener.accept() {
            Ok((stream, peer)) => {
                // The per-connection loop blocks on reads; switch the
                // socket back to blocking mode.
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                let socket = stream.try_clone().ok();
                let tcp = move || Ok((BufReader::new(stream.try_clone()?), stream));
                let worker = spawn_connection(session()?, tcp, Some(peer), flag);
                workers.push((worker, socket));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
    if flag.load(Ordering::SeqCst) {
        drain(&workers, &cache, persist);
    }
    // Stdin's failure is the command's; each TCP connection reported
    // its own, and the drain saw every worker finish.
    if listener.is_none() {
        for (worker, _) in workers {
            worker
                .join()
                .unwrap_or_else(|_| Err("service thread panicked".into()))?;
        }
    }
    snapshot_cache(&cache, persist);
    Ok(listener.map_or_else(String::new, |(_, local)| {
        format!("stopped listening on {local}\n")
    }))
}

/// How often the serve loop polls the SIGTERM flag, workers, listener.
const POLL: Duration = Duration::from_millis(20);

/// How long each drain phase waits for the workers.
const GRACE: Duration = Duration::from_secs(2);

/// One connection's service loop on its thread, plus the socket the
/// drain shuts down (`None` for stdin).
type Worker = (
    JoinHandle<Result<ServiceSummary, String>>,
    Option<TcpStream>,
);

/// Serves one connection on its own thread: `open` runs there and
/// yields the wire, and the loop's summary goes to stderr, tagged with
/// the TCP peer. A TCP connection's failure is reported there and ends
/// only that connection.
fn spawn_connection<R: BufRead, W: Write>(
    mut service: Service,
    open: impl FnOnce() -> std::io::Result<(R, W)> + Send + 'static,
    peer: Option<SocketAddr>,
    flag: &'static AtomicBool,
) -> JoinHandle<Result<ServiceSummary, String>> {
    std::thread::spawn(move || {
        let served = open()
            .and_then(|(input, output)| service.serve(input, output, Some(flag)))
            .map_err(|e| format!("service I/O error: {e}"));
        match (&served, peer) {
            (Ok(summary), None) => eprintln!("{}", summary_line(summary)),
            (Ok(summary), Some(peer)) => eprintln!("{} [{peer}]", summary_line(summary)),
            (Err(_), None) => {}
            (Err(e), Some(peer)) => eprintln!("tilt serve: connection {peer} failed: {e}"),
        }
        served
    })
}

/// The SIGTERM drain. A read blocked on idle input restarts after the
/// handler runs (glibc `signal()` is `SA_RESTART`), so: close each
/// socket's read side, and its loop sees EOF, drains and still writes;
/// then sever a socket stuck writing to a client that stopped reading.
/// A worker left after that is idle stdin (it answered every line it
/// read, so nothing is lost) or a compile past the grace period (its
/// response is forfeit): snapshot the cache and exit without it.
fn drain(workers: &[Worker], cache: &CompileCache, persist: Option<&std::path::Path>) {
    let all_finished = || {
        let deadline = Instant::now() + GRACE;
        while workers.iter().any(|(worker, _)| !worker.is_finished()) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(POLL);
        }
        true
    };
    for how in [Shutdown::Read, Shutdown::Both] {
        // The first phase waits even with no socket to close: stdin's
        // loop may be finishing a compile.
        let mut wait = how == Shutdown::Read;
        for (worker, socket) in workers {
            if let (false, Some(socket)) = (worker.is_finished(), socket) {
                let _ = socket.shutdown(how);
                wait = true;
            }
        }
        if wait && all_finished() {
            return;
        }
    }
    eprintln!(
        "tilt serve: SIGTERM — grace period expired, exiting \
         (an in-flight response, if any, is forfeit)"
    );
    snapshot_cache(cache, persist);
    std::process::exit(0);
}

/// Writes the compile-cache snapshot when persistence is configured.
fn snapshot_cache(cache: &CompileCache, dir: Option<&std::path::Path>) {
    let Some(dir) = dir else { return };
    match cache.save(dir) {
        Ok(written) => eprintln!(
            "tilt serve: compile cache: saved {written} entries to {}",
            dir.display()
        ),
        Err(e) => eprintln!(
            "tilt serve: compile cache: cannot write {}: {e}",
            dir.display()
        ),
    }
}

fn summary_line(summary: &ServiceSummary) -> String {
    let s = &summary.stats;
    let c = &summary.cache;
    format!(
        "tilt serve: {} responses ({} ok, {} errors), shed {} overloaded / {} deadline, \
         p50 {} µs, p99 {} µs, \
         cache {}/{} hits ({:.1}%), {} entries ({:?})",
        s.served,
        s.ok,
        s.errors,
        s.shed_overloaded,
        s.shed_deadline,
        s.p50_us(),
        s.p99_us(),
        c.hits,
        c.hits + c.misses,
        100.0 * c.hit_rate(),
        c.entries,
        summary.cause
    )
}

/// `tilt-cli bench <name|all>`
pub fn bench(args: &[String]) -> Result<String, String> {
    let opts = Options::parse("bench", args).map_err(|e| e.to_string())?;
    let suite = tilt_benchmarks::paper_suite();
    let selected: Vec<_> = if opts.target == "all" {
        suite
    } else {
        let wanted = opts.target.to_uppercase();
        let matched: Vec<_> = suite.into_iter().filter(|b| b.name == wanted).collect();
        if matched.is_empty() {
            return Err(format!(
                "unknown benchmark `{}` (try adder, bv, qaoa, rcs, qft, sqrt, all)",
                opts.target
            ));
        }
        matched
    };

    let mut table = Table::new(["benchmark", "swaps", "moves", "success", "exec(s)"]);
    for b in &selected {
        // One session per benchmark: the suite mixes register widths.
        let report = engine(&opts.overrides, b.circuit.n_qubits())?.run(&b.circuit);
        table.row(report_row(b.name, &report));
    }
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("tilt-cli-cmd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn compile_reports_swaps_for_long_gate() {
        let path = write_temp("long.qasm", "qreg q[8];\ncx q[0], q[7];\n");
        let out = run(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("swaps: "));
        assert!(!out.contains("swaps: 0"));
    }

    #[test]
    fn compile_emit_qasm_includes_swap_gates() {
        let path = write_temp("emit.qasm", "qreg q[8];\ncx q[0], q[7];\n");
        let out = run(&v(&[&path, "--head", "4", "--emit-qasm"])).unwrap();
        assert!(out.contains("swap q["));
    }

    #[test]
    fn simulate_prints_probability() {
        let path = write_temp("sim.qasm", "qreg q[4];\nh q[0];\ncx q[0], q[3];\n");
        let out = run(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("success: 0."), "{out}");
    }

    #[test]
    fn missing_file_is_reported() {
        let e = run(&v(&["/nonexistent/x.qasm"])).unwrap_err();
        assert!(e.contains("cannot read"));
    }

    #[test]
    fn bad_qasm_is_reported() {
        let path = write_temp("bad.qasm", "qreg q[2];\nwat q[0];\n");
        let e = run(&v(&[&path])).unwrap_err();
        assert!(e.contains("wat"));
    }

    #[test]
    fn bench_all_lists_six_rows() {
        let out = bench(&v(&["all", "--head", "32"])).unwrap();
        // Header + separator + 6 rows.
        assert_eq!(out.trim().lines().count(), 8, "{out}");
    }

    #[test]
    fn lint_reports_clean_compiles() {
        let path = write_temp("lint.qasm", "qreg q[8];\nh q[0];\ncx q[0], q[7];\n");
        let out = lint(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("native ops verified"), "{out}");
    }

    #[test]
    fn lint_json_emits_an_array() {
        let path = write_temp("lint-json.qasm", "qreg q[6];\ncx q[0], q[5];\n");
        let out = lint(&v(&[&path, "--head", "3", "--json"])).unwrap();
        let parsed = tilt_report::Json::parse(out.trim()).unwrap();
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(0), "{out}");
    }

    #[test]
    fn lint_rejects_exact_router() {
        let path = write_temp("lint-x.qasm", "qreg q[4];\ncx q[0], q[3];\n");
        let e = lint(&v(&[&path, "--router", "exact"])).unwrap_err();
        assert!(e.contains("unknown router `exact`"), "{e}");
    }

    #[test]
    fn timeline_draws_head_bars() {
        let path = write_temp("tl.qasm", "qreg q[8];\ncx q[0], q[1];\ncx q[6], q[7];\n");
        let out = timeline(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("####"), "{out}");
        assert!(out.contains("pos"), "{out}");
    }

    #[test]
    fn default_head_is_clamped_to_a_narrow_tape() {
        // The default head of 16 exceeds this 8-ion tape; every
        // command clamps it, as `run --stream` does.
        let path = write_temp("narrow.qasm", "qreg q[8];\nh q[0];\ncx q[0], q[7];\n");
        let stream = run(&v(&[&path, "--stream"])).unwrap();
        assert!(stream.contains("head 8"), "{stream}");
        for (name, command) in [
            ("run", run as fn(&[String]) -> Result<String, String>),
            ("lint", lint),
            ("timeline", timeline),
        ] {
            let out = command(&v(&[&path])).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.is_empty(), "{name}");
        }
        let out = run(&v(&[&path])).unwrap();
        assert!(out.contains("8 ions, head 8"), "{out}");
    }

    #[test]
    fn scale_reports_epr_pairs() {
        let path = write_temp("sc.qasm", "qreg q[16];\ncx q[7], q[8];\ncx q[0], q[1];\n");
        let out = run(&v(&[
            &path,
            "--backend",
            "scaled",
            "--elu-ions",
            "10",
            "--head",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("remote gates: 1"), "{out}");
        assert!(out.contains("2 ELUs"), "{out}");
    }

    #[test]
    fn run_stream_matches_the_monolithic_numbers() {
        let src = "qreg q[8];\nh q[0];\ncx q[0], q[7];\ncx q[1], q[6];\nrz(0.25) q[3];\n";
        let path = write_temp("stream-eq.qasm", src);
        let mono = run(&v(&[&path, "--head", "4"])).unwrap();
        let streamed = run(&v(&[
            &path,
            "--head",
            "4",
            "--stream",
            "--stream-window",
            "2",
        ]))
        .unwrap();
        assert!(streamed.contains("4 input gates"), "{streamed}");
        assert!(streamed.contains("(window 2)"), "{streamed}");
        // Decision identity: the success and execution-time lines agree
        // byte for byte with the monolithic run.
        let tail = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("success: "))
                .unwrap()
                .to_string()
        };
        assert_eq!(tail(&mono), tail(&streamed), "{mono}\n---\n{streamed}");
        let swaps = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("swaps: "))
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .trim_end_matches(')')
                .to_string()
        };
        assert_eq!(swaps(&mono), swaps(&streamed));
    }

    #[test]
    fn run_rejects_exact_router() {
        let path = write_temp("run2.qasm", "qreg q[4];\ncx q[0], q[3];\n");
        let e = run(&v(&[&path, "--router", "exact"])).unwrap_err();
        assert!(e.contains("unknown router `exact`"), "{e}");
    }

    #[test]
    fn run_stream_rejects_circuit_bound_flags() {
        let path = write_temp("stream-flags.qasm", "qreg q[4];\nh q[0];\n");
        for extra in [["--method", "auto"], ["--emit-program", "--json"]] {
            let mut args = vec![path.as_str(), "--stream"];
            args.extend(extra.iter().filter(|a| **a != "--json"));
            let e = run(&v(&args)).unwrap_err();
            assert!(e.contains("--stream"), "{e}");
        }
        let e = run(&v(&[&path, "--stream", "--batch"])).unwrap_err();
        assert!(e.contains("--batch"), "{e}");
    }

    #[test]
    fn lint_stream_verifies_incrementally() {
        let path = write_temp("lint-stream.qasm", "qreg q[8];\nh q[0];\ncx q[0], q[7];\n");
        let out = lint(&v(&[
            &path,
            "--head",
            "4",
            "--stream",
            "--stream-window",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("stream-verified"), "{out}");
        assert!(out.contains("increments"), "{out}");
    }

    #[test]
    fn lint_stream_json_emits_an_array() {
        let path = write_temp("lint-stream-json.qasm", "qreg q[6];\ncx q[0], q[5];\n");
        let out = lint(&v(&[&path, "--head", "3", "--stream", "--json"])).unwrap();
        let parsed = tilt_report::Json::parse(out.trim()).unwrap();
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(0), "{out}");
    }

    #[test]
    fn lint_stream_reports_what_the_in_memory_lint_reports() {
        // Measuring a data qubit and computing on it again is legal on
        // both backends: only a measured comm ion needs a reset.
        let path = write_temp(
            "lint-stream-same.qasm",
            "qreg q[16];\nh q[3];\nmeasure q[3] -> c[3];\ncx q[3], q[12];\ncx q[0], q[15];\n",
        );
        for scaled in [false, true] {
            let mut args = vec![path.as_str(), "--head", "4", "--json"];
            if scaled {
                args.extend(["--backend", "scaled", "--elu-ions", "10"]);
            }
            let mono = lint(&v(&args));
            args.extend(["--stream", "--stream-window", "1"]);
            assert_eq!(lint(&v(&args)), mono, "scaled: {scaled}");
            assert_eq!(mono.as_deref(), Ok("[]\n"), "scaled: {scaled}");
        }
    }

    #[test]
    fn lint_scaled_runs_the_scaled_rule_pack() {
        // Crosses an ELU boundary (10-ion ELUs hold 8 data ions), so a
        // remote gate and both ELUs' artifacts are verified.
        let path = write_temp(
            "lint-scaled.qasm",
            "qreg q[16];\ncx q[7], q[8];\ncx q[0], q[1];\n",
        );
        let out = lint(&v(&[
            &path,
            "--backend",
            "scaled",
            "--elu-ions",
            "10",
            "--head",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("2 ELUs verified"), "{out}");
    }

    #[test]
    fn lint_stream_scaled_verifies_per_elu_increments() {
        let path = write_temp(
            "lint-stream-scaled.qasm",
            "qreg q[16];\ncx q[7], q[8];\ncx q[0], q[1];\nh q[12];\n",
        );
        let out = lint(&v(&[
            &path,
            "--backend",
            "scaled",
            "--elu-ions",
            "10",
            "--head",
            "4",
            "--stream",
            "--stream-window",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("across 2 ELUs stream-verified"), "{out}");
        assert!(out.contains("increments"), "{out}");
    }

    #[test]
    fn run_single_file_reports_success() {
        let path = write_temp("run1.qasm", "qreg q[6];\nh q[0];\ncx q[0], q[5];\n");
        let out = run(&v(&[&path, "--head", "3"])).unwrap();
        assert!(out.contains("success: "), "{out}");
        assert!(out.contains("execution time"), "{out}");
    }

    #[test]
    fn run_with_method_prints_the_simulator() {
        let path = write_temp(
            "run-sim.qasm",
            "qreg q[4];\nh q[0];\ncx q[0], q[3];\nmeasure q[0];\nmeasure q[3];\n",
        );
        let out = run(&v(&[&path, "--head", "4", "--method", "auto"])).unwrap();
        assert!(out.contains("simulated (stabilizer):"), "{out}");
        assert!(out.contains("2 measurements"), "{out}");
        // Without --method, no simulation line appears.
        let out = run(&v(&[&path, "--head", "4"])).unwrap();
        assert!(!out.contains("simulated ("), "{out}");
    }

    #[test]
    fn run_with_stabilizer_method_rejects_non_clifford() {
        let path = write_temp("run-t.qasm", "qreg q[2];\nh q[0];\nt q[1];\n");
        let e = run(&v(&[&path, "--method", "stabilizer", "--head", "2"])).unwrap_err();
        assert!(e.contains("non-Clifford"), "{e}");
        assert!(e.contains("index 1"), "{e}");
    }

    #[test]
    fn run_batch_emits_one_row_per_circuit() {
        let dir = std::env::temp_dir().join("tilt-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [
            ("a.qasm", "qreg q[6];\nh q[0];\ncx q[0], q[5];\n"),
            ("b.qasm", "qreg q[4];\ncx q[0], q[3];\n"),
            ("c.qasm", "qreg q[6];\ncx q[2], q[3];\n"),
        ] {
            std::fs::write(dir.join(name), body).unwrap();
        }
        // Unrelated files are ignored.
        std::fs::write(dir.join("notes.txt"), "not qasm").unwrap();
        let out = run(&v(&[dir.to_str().unwrap(), "--batch", "--head", "3"])).unwrap();
        assert!(out.contains("batch of 3 circuits"), "{out}");
        for name in ["a.qasm", "b.qasm", "c.qasm"] {
            assert!(out.contains(name), "{out}");
        }
        // Header + separator + 3 rows (+ leading banner line).
        assert_eq!(out.trim().lines().count(), 6, "{out}");
    }

    #[test]
    fn run_batch_clamps_default_head_to_narrow_batches() {
        let dir = std::env::temp_dir().join("tilt-cli-batch-narrow");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("n.qasm"), "qreg q[6];\nh q[0];\ncx q[0], q[5];\n").unwrap();
        // No --head: the default (16) must clamp to the 6-qubit batch
        // instead of failing the whole run with an invalid spec.
        let out = run(&v(&[dir.to_str().unwrap(), "--batch"])).unwrap();
        assert!(out.contains("6 ions, head 6"), "{out}");
        assert!(!out.contains("error"), "{out}");
    }

    #[test]
    fn run_batch_rejects_empty_directory() {
        let dir = std::env::temp_dir().join("tilt-cli-batch-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let e = run(&v(&[dir.to_str().unwrap(), "--batch"])).unwrap_err();
        assert!(e.contains("no .qasm files"), "{e}");
    }

    #[test]
    fn serve_rejects_exact_router_and_bad_spec() {
        let e = serve(&v(&["--router", "exact"])).unwrap_err();
        assert!(e.contains("unknown router `exact`"), "{e}");
        let e = serve(&v(&["--ions", "1"])).unwrap_err();
        assert!(!e.is_empty());
    }

    /// A 24-qubit random CX/H circuit (xorshift64, seed fixed): enough
    /// routing work that router and scheduler choices show in the
    /// counts.
    fn rand24() -> String {
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut text = String::from("qreg q[24];\n");
        for _ in 0..200 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = (s >> 8) % 24;
            if s.is_multiple_of(4) {
                text += &format!("h q[{a}];\n");
            } else {
                let b = match (s >> 24) % 24 {
                    b if b == a => (a + 1) % 24,
                    b => b,
                };
                text += &format!("cx q[{a}], q[{b}];\n");
            }
        }
        text
    }

    #[test]
    fn run_backends_print_the_numbers_of_the_retired_commands() {
        // Expected values recorded from `simulate`/`compile`, `qccd` and
        // `scale` on this file before `run --backend` replaced them.
        let path = write_temp("pins24.qasm", &rand24());
        let cases: [(&[&str], &[&str]); 5] = [
            (
                &["--head", "6"],
                &[
                    "device: 24 ions, head 6",
                    "swaps: 128 (opposing 58, ratio 0.45)",
                    "moves: 169 (distance 821 ion spacings)",
                    "native gates: 2812 (548 two-qubit)",
                    "success: 0.1117 (log10 -0.95), execution time: 87.985 ms",
                    "ideal TI: 0.9074",
                    "heat: 29.27 quanta after 169 moves",
                ],
            ),
            (
                &[
                    "--head",
                    "6",
                    "--router",
                    "stochastic",
                    "--scheduler",
                    "naive",
                ],
                &[
                    "swaps: 177 (opposing 53, ratio 0.30)",
                    "moves: 269 (distance 1483 ion spacings)",
                    "native gates: 3547 (695 two-qubit)",
                    "success: 0.0131 (log10 -1.88), execution time: 147.691 ms",
                    "heat: 46.59 quanta after 269 moves",
                ],
            ),
            (
                &["--head", "8", "--max-swap-len", "3", "--alpha", "0.5"],
                &[
                    "device: 24 ions, head 8",
                    "swaps: 139 (opposing 58, ratio 0.42)",
                    "moves: 115 (distance 636 ion spacings)",
                    "success: 0.1935 (log10 -0.71), execution time: 83.190 ms",
                    "heat: 19.92 quanta after 115 moves",
                ],
            ),
            (
                &["--backend", "qccd", "--ions-per-trap", "5"],
                &[
                    "QCCD, 5 traps × 7 capacity",
                    "transports: 133 (276 shuttle segments)",
                    "cooling rounds: 13, peak heat: 17.2 quanta",
                    "success: 0.6838 ",
                ],
            ),
            (
                &["--backend", "scaled", "--elu-ions", "14", "--head", "6"],
                &[
                    "2 ELUs of 14 ions (head 6)",
                    "swaps: 60 ",
                    "moves: 99 ",
                    "remote gates: 69 (EPR pairs)",
                    "success: 0.0170 (log10 -1.77), execution time: 76.260 ms",
                ],
            ),
        ];
        for (flags, expected) in cases {
            let mut args = vec![path.as_str()];
            args.extend(flags);
            let out = run(&v(&args)).unwrap();
            for line in expected {
                assert!(out.contains(line), "{flags:?} lacks `{line}`:\n{out}");
            }
        }
        let out = run(&v(&[&path, "--backend", "qccd"])).unwrap();
        assert!(out.contains("QCCD, 2 traps × 19 capacity"), "{out}");
        assert!(
            out.contains("transports: 71 (71 shuttle segments)"),
            "{out}"
        );
        let out = run(&v(&[&path, "--backend", "scaled"])).unwrap();
        assert!(out.contains("2 ELUs of 18 ions (head 16)"), "{out}");
        assert!(out.contains("remote gates: 61 (EPR pairs)"), "{out}");
        assert!(out.contains("execution time: 71.868 ms"), "{out}");
    }

    #[test]
    fn scaled_router_and_scheduler_flags_match_the_service_override() {
        // Each flag must move the counts off the LinQ/greedy default
        // (60 swaps, 99 moves) to what the service prints for the same
        // wire fields.
        let qasm = rand24();
        let path = write_temp("scaled-flags.qasm", &qasm);
        let mut wire = String::new();
        let variants: [(&[&str], &str); 3] = [
            (&[], ""),
            (&["--router", "stochastic"], ",\"router\":\"stochastic\""),
            (&["--scheduler", "naive"], ",\"scheduler\":\"naive\""),
        ];
        let qasm_json = tilt_report::Json::from(qasm.as_str()).render();
        for (_, fields) in variants {
            wire += &format!(
                "{{\"qasm\":{qasm_json},\"backend\":\"scaled\",\"elu_ions\":14,\"head\":6{fields}}}\n"
            );
        }
        let mut service =
            tilt_engine::Service::new(builder(&Overrides::default(), SERVE_WIDTH).unwrap())
                .unwrap();
        let mut out = Vec::new();
        service
            .serve(std::io::Cursor::new(wire), &mut out, None)
            .unwrap();
        let responses: Vec<_> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| tilt_report::Json::parse(l).unwrap())
            .collect();
        let mut seen = Vec::new();
        for ((flags, _), resp) in variants.iter().zip(&responses) {
            let mut args = vec![
                path.as_str(),
                "--backend",
                "scaled",
                "--elu-ions",
                "14",
                "--head",
                "6",
            ];
            args.extend(*flags);
            let text = run(&v(&args)).unwrap();
            let field = |key: &str| resp.get(key).and_then(tilt_report::Json::as_f64).unwrap();
            let (swaps, moves) = (field("swaps"), field("moves"));
            assert!(
                text.contains(&format!("swaps: {swaps} ")),
                "{flags:?}: {text}"
            );
            assert!(
                text.contains(&format!("moves: {moves} ")),
                "{flags:?}: {text}"
            );
            seen.push((swaps, moves));
        }
        assert_eq!(seen, [(60.0, 99.0), (96.0, 159.0), (60.0, 136.0)]);
    }

    #[test]
    fn lint_scaled_verifies_the_program_the_router_flag_names() {
        let path = write_temp("lint-scaled-router.qasm", &rand24());
        let args = [
            &path,
            "--backend",
            "scaled",
            "--elu-ions",
            "14",
            "--head",
            "6",
        ];
        let linq = lint(&v(&args)).unwrap();
        assert!(
            linq.contains("clean (2409 native ops across 2 ELUs"),
            "{linq}"
        );
        let mut args = args.to_vec();
        args.extend(["--router", "stochastic"]);
        let stochastic = lint(&v(&args)).unwrap();
        assert!(
            stochastic.contains("clean (2949 native ops across 2 ELUs"),
            "{stochastic}"
        );
    }

    #[test]
    fn dimensions_a_backend_has_no_use_for_are_rejected() {
        let path = write_temp("inapplicable.qasm", "qreg q[8];\nh q[0];\ncx q[0], q[7];\n");
        for flags in [
            ["--backend", "qccd", "--ions", "5"],
            ["--backend", "scaled", "--ions", "999"],
            ["--backend", "qccd", "--head", "3"],
        ] {
            let mut args = vec![path.as_str()];
            args.extend(flags);
            let e = run(&v(&args)).unwrap_err();
            assert!(e.contains("does not apply"), "{flags:?}: {e}");
            let e = lint(&v(&args)).unwrap_err();
            assert!(e.contains("does not apply"), "{flags:?}: {e}");
        }
        let e = timeline(&v(&[&path, "--backend", "qccd"])).unwrap_err();
        assert!(e.contains("TILT tape"), "{e}");
        let e = run(&v(&[&path, "--backend", "scaled", "--emit-program"])).unwrap_err();
        assert!(e.contains("TILT program"), "{e}");
    }

    #[test]
    fn streams_match_the_monolithic_run_on_every_backend() {
        let src = "qreg q[16];\nh q[0];\ncx q[0], q[15];\ncx q[7], q[8];\n";
        let path = write_temp("stream-backends.qasm", src);
        for backend in ["tilt", "qccd", "scaled"] {
            let args = [&path, "--backend", backend];
            let mono = run(&v(&args)).unwrap();
            let mut streamed = args.to_vec();
            streamed.extend(["--stream", "--stream-window", "1"]);
            let streamed = run(&v(&streamed)).unwrap();
            let success = |text: &str| {
                text.lines()
                    .find(|l| l.starts_with("success: "))
                    .map(str::to_string)
            };
            assert_eq!(
                success(&mono),
                success(&streamed),
                "{backend}: {mono}\n---\n{streamed}"
            );
        }
    }

    #[test]
    fn serve_tcp_connection_round_trips_requests() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = Options::parse("serve", &v(&["--ions", "8", "--head", "4"])).unwrap();
        let session = builder(&opts.overrides, SERVE_WIDTH).unwrap();
        let session = Service::new(session).unwrap();

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (stream, peer) = listener.accept().unwrap();
        let tcp = move || Ok((BufReader::new(stream.try_clone()?), stream));
        let server = spawn_connection(session, tcp, Some(peer), &FLAG);
        let mut reader = BufReader::new(client.try_clone().unwrap());
        // Interactive request/response: the service must answer while
        // the connection stays open and idle, not only at EOF.
        client
            .write_all(b"{\"id\":1,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\"}\n")
            .unwrap();
        client.flush().unwrap();
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"backend\":\"tilt\""), "{first}");
        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        client.flush().unwrap();
        let mut rest = Vec::new();
        for line in reader.lines() {
            rest.push(line.unwrap());
        }
        assert_eq!(rest.len(), 1, "{rest:?}");
        assert!(rest[0].contains("\"shutdown\":true"), "{}", rest[0]);
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.stats.served, 1);
    }
}
