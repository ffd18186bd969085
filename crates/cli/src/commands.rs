//! Subcommand implementations (string in → report text out).
//!
//! Every simulating subcommand (`run`, `simulate`, `qccd`, `scale`,
//! `bench`) is a client of the [`tilt_engine::Engine`] session API; the
//! legacy pass-by-pass pipeline survives only where the session API
//! deliberately does not reach — the exact router (a search, not a
//! policy) and the compile-only introspection commands.

use crate::args::{Options, RouterChoice, ServeOptions};
use std::fmt::Write as _;
use tilt_circuit::{qasm, Circuit};
use tilt_compiler::route::exact::optimal_route;
use tilt_compiler::schedule::schedule;
use tilt_compiler::{CompileOutput, DeviceSpec, InitialMapping, TiltProgram};
use tilt_engine::{Backend, Engine, NullSink, RunReport};
use tilt_qccd::QccdSpec;
use tilt_report::{fmt_success, Table};
use tilt_sim::{estimate_ideal_success, GateTimeModel, NoiseModel};

/// Loads the target as a QASM file.
fn load_circuit(opts: &Options) -> Result<Circuit, String> {
    let source = std::fs::read_to_string(&opts.target)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
    qasm::parse_qasm(&source).map_err(|e| e.to_string())
}

/// The tape for a `width`-qubit register: `--ions` or the width, with
/// the head clamped to the tape so the default `--head 16` works on
/// narrow circuits.
fn device(opts: &Options, width: usize) -> Result<DeviceSpec, String> {
    let ions = opts.ions.unwrap_or(width);
    DeviceSpec::new(ions, opts.head.min(ions)).map_err(|e| e.to_string())
}

/// A TILT engine session configured from the command-line options.
fn tilt_engine(opts: &Options, spec: DeviceSpec) -> Result<Engine, String> {
    let mut builder = Engine::builder()
        .backend(Backend::Tilt(spec))
        .router(opts.router_kind())
        .scheduler(opts.scheduler);
    if let Some(method) = opts.method {
        builder = builder.simulate(method);
    }
    builder.build().map_err(|e| e.to_string())
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

/// Runs the *compile-only* pipeline per the options (including the
/// exact router, which bypasses the policy-based routing entirely).
/// The compile-only commands (`compile`, `timeline`) stay on the pass
/// layer deliberately: `Engine::run` would also walk the scheduled
/// program for success/exec-time estimates they discard.
fn run_pipeline(opts: &Options, circuit: &Circuit) -> Result<CompileOutput, String> {
    let spec = device(opts, circuit.n_qubits())?;
    if opts.router == RouterChoice::Exact {
        // Exact routing: decompose → optimal route → lower swaps → schedule.
        let native = tilt_compiler::decompose::decompose(circuit);
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        let routed = optimal_route(&native, spec, &initial, &opts.exact_config())
            .map_err(|e| e.to_string())?;
        let lowered = tilt_compiler::decompose::decompose(&routed.circuit);
        let program = schedule(&lowered, spec, opts.scheduler);
        let report = tilt_compiler::CompileReport {
            swap_count: routed.swap_count,
            opposing_swap_count: routed.opposing_swap_count,
            opposing_ratio: routed.opposing_ratio(),
            move_count: program.move_count(),
            move_distance_ions: program.move_distance_ions(),
            native_gate_count: program.gate_count(),
            native_two_qubit_count: program.two_qubit_gate_count(),
            t_decompose: std::time::Duration::ZERO,
            t_swap: std::time::Duration::ZERO,
            t_move: std::time::Duration::ZERO,
        };
        return Ok(CompileOutput {
            program,
            routed,
            report,
        });
    }
    let mut compiler = tilt_compiler::Compiler::new(spec);
    compiler
        .router(opts.router_kind())
        .scheduler(opts.scheduler);
    compiler.compile(circuit).map_err(|e| e.to_string())
}

fn describe(out: &CompileOutput, program: &TiltProgram) -> String {
    let r = &out.report;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "device: {} ions, head {}",
        program.spec().n_ions(),
        program.spec().head_size()
    );
    let _ = writeln!(
        text,
        "swaps: {} (opposing {}, ratio {:.2})",
        r.swap_count, r.opposing_swap_count, r.opposing_ratio
    );
    let _ = writeln!(
        text,
        "moves: {} (distance {} ion spacings)",
        r.move_count, r.move_distance_ions
    );
    let _ = writeln!(
        text,
        "native gates: {} ({} two-qubit)",
        r.native_gate_count, r.native_two_qubit_count
    );
    text
}

fn emit_extras(opts: &Options, out: &CompileOutput) -> String {
    let mut text = String::new();
    if opts.emit_qasm {
        text.push_str("\n-- routed physical circuit (OpenQASM) --\n");
        text.push_str(&qasm::to_qasm(&out.routed.circuit));
    }
    if opts.emit_program {
        text.push_str("\n-- scheduled program --\n");
        let _ = write!(text, "{}", out.program);
    }
    text
}

/// `tilt-cli compile <file.qasm>`
pub fn compile(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let out = run_pipeline(&opts, &circuit)?;
    let mut text = format!("compiled `{}`: {}\n", opts.target, circuit.stats());
    text.push_str(&describe(&out, &out.program));
    text.push_str(&emit_extras(&opts, &out));
    Ok(text)
}

/// The numbers `simulate` prints, whichever path produced them.
struct SimulateOutcome {
    out: CompileOutput,
    success: f64,
    log10_success: f64,
    final_quanta: f64,
    moves: usize,
    exec_time_us: f64,
}

/// `tilt-cli simulate <file.qasm>`
pub fn simulate(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();
    let o = if opts.router == RouterChoice::Exact {
        // The exact router bypasses the session API; estimate its
        // output with the free-function estimators.
        use tilt_sim::{estimate_success, execution_time_us, ExecTimeModel};
        let out = run_pipeline(&opts, &circuit)?;
        let s = estimate_success(&out.program, &noise, &times);
        let exec_time_us = execution_time_us(&out.program, &times, &ExecTimeModel::default());
        SimulateOutcome {
            out,
            success: s.success,
            log10_success: s.log10_success(),
            final_quanta: s.final_quanta,
            moves: s.moves,
            exec_time_us,
        }
    } else {
        let spec = device(&opts, circuit.n_qubits())?;
        let report = tilt_engine(&opts, spec)?
            .run(&circuit)
            .map_err(|e| e.to_string())?;
        let s = report.tilt_success().expect("Tilt backend").report;
        let (success, log10_success, exec_time_us) =
            (report.success, report.log10_success(), report.exec_time_us);
        let tilt_engine::RunDetail::Tilt { output: out, .. } = report.detail else {
            unreachable!("a Tilt backend produces Tilt detail");
        };
        SimulateOutcome {
            out,
            success,
            log10_success,
            final_quanta: s.final_quanta,
            moves: s.moves,
            exec_time_us,
        }
    };

    let ideal = estimate_ideal_success(&circuit, &noise, &times);
    let mut text = format!("simulated `{}`: {}\n", opts.target, circuit.stats());
    text.push_str(&describe(&o.out, &o.out.program));
    let _ = writeln!(
        text,
        "success: {} (log10 {:.2}), ideal TI {}",
        fmt_success(o.success),
        o.log10_success,
        fmt_success(ideal.success)
    );
    let _ = writeln!(
        text,
        "heat: {:.2} quanta after {} moves",
        o.final_quanta, o.moves
    );
    let _ = writeln!(text, "execution time: {:.3} ms", o.exec_time_us / 1e3);
    text.push_str(&emit_extras(&opts, &o.out));
    Ok(text)
}

/// `tilt-cli lint <file.qasm>` — compile for a TILT machine (or, under
/// `--scaled`, an ELU array) and run the static program-invariant
/// verifier over the compiled artifacts; under `--stream` the verifier
/// folds ride the bounded-memory pipeline and report the same findings.
///
/// Human output is one line per diagnostic plus a summary; `--json`
/// emits the diagnostics as a JSON array (empty when clean). Any
/// error-severity finding makes the command fail, so the exit code is
/// the lint verdict.
pub fn lint(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    if opts.router == RouterChoice::Exact {
        return Err(
            "`lint` drives the session API; use `compile` to inspect --router exact output".into(),
        );
    }
    if opts.stream && (opts.method.is_some() || opts.emit_program || opts.emit_qasm || opts.batch) {
        return Err("`lint --stream` takes none of --method/--emit-*/--batch".into());
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
    let mut builder = Engine::builder().verify(tilt_engine::VerifyLevel::Warn);
    let mut elus = String::new();
    if opts.scaled {
        let spec = tilt_scale::ScaleSpec::new(opts.elu_ions, opts.head.min(opts.elu_ions))
            .map_err(|e| e.to_string())?;
        elus = format!(" across {} ELUs", spec.elus_for(width));
        builder = builder.backend(Backend::Scaled(spec));
    } else {
        builder = builder
            .backend(Backend::Tilt(device(&opts, width)?))
            .router(opts.router_kind())
            .scheduler(opts.scheduler);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
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
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let out = run_pipeline(&opts, &circuit)?;
    let mut text = format!("timeline of `{}`\n", opts.target);
    text.push_str(&tilt_compiler::viz::render_timeline(&out.program));
    Ok(text)
}

/// `tilt-cli scale <file.qasm>`
pub fn scale(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let spec = tilt_scale::ScaleSpec::new(opts.elu_ions, opts.head.min(opts.elu_ions))
        .map_err(|e| e.to_string())?;
    let report = Engine::builder()
        .backend(Backend::Scaled(spec))
        .build()
        .map_err(|e| e.to_string())?
        .run(&circuit)
        .map_err(|e| e.to_string())?;
    let scaled = report.scale_report().expect("Scaled backend");
    let elus = match &report.detail {
        tilt_engine::RunDetail::Scaled { program, .. } => program.elu_outputs.len(),
        _ => unreachable!("a Scaled backend produces Scaled detail"),
    };
    let mut text = format!(
        "modular `{}`: {} ELUs of {} ions (head {})\n",
        opts.target,
        elus,
        spec.ions_per_elu(),
        spec.head_size()
    );
    let _ = writeln!(
        text,
        "remote gates: {} (EPR pairs), local swaps: {}, local moves: {}",
        scaled.remote_gates, report.compile.swap_count, report.compile.move_count
    );
    let _ = writeln!(
        text,
        "success: {} (log10 {:.2}), makespan {:.3} ms",
        fmt_success(report.success),
        report.log10_success(),
        report.exec_time_us / 1e3
    );
    Ok(text)
}

/// `tilt-cli qccd <file.qasm>`
pub fn qccd(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let circuit = load_circuit(&opts)?;
    let spec =
        QccdSpec::for_qubits(circuit.n_qubits(), opts.ions_per_trap).map_err(|e| e.to_string())?;
    let report = Engine::builder()
        .backend(Backend::Qccd(spec))
        .build()
        .map_err(|e| e.to_string())?
        .run(&circuit)
        .map_err(|e| e.to_string())?;
    let q = report.qccd_report().expect("Qccd backend");
    let mut text = format!(
        "QCCD `{}`: {} traps × {} capacity\n",
        opts.target,
        spec.n_traps(),
        spec.capacity()
    );
    let _ = writeln!(
        text,
        "transports: {} ({} shuttle segments), cooling rounds: {}",
        q.transports, q.shuttle_segments, q.cooling_rounds
    );
    let _ = writeln!(
        text,
        "success: {} (peak heat {:.1} quanta)",
        fmt_success(report.success),
        q.peak_quanta
    );
    Ok(text)
}

/// One table row from `(swaps, moves, success, exec µs)` or an error.
fn metric_row(name: &str, metrics: Result<(usize, usize, f64, f64), String>) -> [String; 5] {
    match metrics {
        Ok((swaps, moves, success, exec_us)) => [
            name.to_string(),
            swaps.to_string(),
            moves.to_string(),
            fmt_success(success),
            format!("{:.3}", exec_us / 1e6),
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

/// One table row for a batch/bench report.
fn report_row(name: &str, report: &Result<RunReport, tilt_engine::TiltError>) -> [String; 5] {
    metric_row(
        name,
        report
            .as_ref()
            .map(|r| {
                (
                    r.compile.swap_count,
                    r.compile.move_count,
                    r.success,
                    r.exec_time_us,
                )
            })
            .map_err(std::string::ToString::to_string),
    )
}

/// `tilt-cli run <file.qasm>` — one circuit through the session API.
/// `tilt-cli run <dir> --batch` — every `.qasm` in the directory as one
/// batch, one table row per circuit.
pub fn run(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    if opts.router == RouterChoice::Exact {
        return Err(
            "`run` drives the session API; use `compile`/`simulate` for --router exact".into(),
        );
    }
    if opts.stream {
        return run_stream_file(&opts);
    }
    if opts.batch {
        return run_batch_dir(&opts);
    }
    let circuit = load_circuit(&opts)?;
    let spec = device(&opts, circuit.n_qubits())?;
    let report = tilt_engine(&opts, spec)?
        .run(&circuit)
        .map_err(|e| e.to_string())?;
    let out = report.tilt_output().expect("Tilt backend");
    let mut text = format!("ran `{}`: {}\n", opts.target, circuit.stats());
    text.push_str(&describe(out, &out.program));
    let _ = writeln!(
        text,
        "success: {} (log10 {:.2}), execution time: {:.3} ms",
        fmt_success(report.success),
        report.log10_success(),
        report.exec_time_us / 1e3
    );
    text.push_str(&describe_sim(&report));
    Ok(text)
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
    if opts.method.is_some() {
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
    let spec = device(opts, width)?;
    let engine = tilt_engine(opts, spec)?;
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
    let c = &outcome.compile;
    let mut text = format!(
        "streamed `{}`: {} input gates in {} increments (window {})\n",
        opts.target, outcome.input_gate_count, outcome.increments, window
    );
    let _ = writeln!(
        text,
        "device: {} ions, head {}",
        spec.n_ions(),
        spec.head_size()
    );
    let _ = writeln!(
        text,
        "swaps: {} (opposing {}), moves: {} (distance {} ion spacings)",
        c.swap_count, c.opposing_swap_count, c.move_count, c.move_distance
    );
    let _ = writeln!(
        text,
        "native gates: {} ({} two-qubit), scheduled ops delivered: {ops}",
        c.native_gate_count, c.native_two_qubit_count
    );
    let _ = writeln!(
        text,
        "success: {} (log10 {:.2}), execution time: {:.3} ms",
        fmt_success(outcome.success),
        outcome.log10_success(),
        outcome.exec_time_us / 1e3
    );
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
    let spec = device(opts, widest)?;
    let engine = tilt_engine(opts, spec)?;

    let mut table = Table::new(["circuit", "swaps", "moves", "success", "exec(s)"]);
    engine.run_batch_streaming(circuits, |i, report| {
        table.row(report_row(&names[i], &report));
    });
    let mut text = format!(
        "batch of {} circuits on {} ions, head {}\n",
        names.len(),
        spec.n_ions(),
        spec.head_size()
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

/// The engine prototype a `serve` invocation describes.
fn serve_builder(opts: &ServeOptions) -> Result<tilt_engine::EngineBuilder, String> {
    let spec = DeviceSpec::new(opts.ions, opts.head.min(opts.ions)).map_err(|e| e.to_string())?;
    Ok(Engine::builder()
        .backend(Backend::Tilt(spec))
        .router(opts.router_kind())
        .scheduler(opts.scheduler))
}

/// Process-wide overload policy shared by every serve loop: one
/// admission budget across all connections, one default deadline.
#[derive(Clone, Default)]
pub(crate) struct ServePolicy {
    admission: Option<std::sync::Arc<tilt_engine::AdmissionControl>>,
    default_deadline: Option<std::time::Duration>,
}

impl ServePolicy {
    fn from_opts(opts: &ServeOptions) -> ServePolicy {
        // 0 on either axis means "that axis unlimited"; both 0 means no
        // admission control at all.
        let admission = (opts.max_in_flight > 0 || opts.max_in_flight_bytes > 0).then(|| {
            let requests = if opts.max_in_flight > 0 {
                opts.max_in_flight
            } else {
                usize::MAX
            };
            let bytes = if opts.max_in_flight_bytes > 0 {
                opts.max_in_flight_bytes
            } else {
                usize::MAX
            };
            std::sync::Arc::new(tilt_engine::AdmissionControl::new(requests, bytes))
        });
        let default_deadline = (opts.default_deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(opts.default_deadline_ms));
        ServePolicy {
            admission,
            default_deadline,
        }
    }

    fn apply(&self, mut service: tilt_engine::Service) -> tilt_engine::Service {
        if let Some(admission) = &self.admission {
            service = service.with_admission(std::sync::Arc::clone(admission));
        }
        service.with_default_deadline(self.default_deadline)
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

/// `tilt-cli serve [--ions N] [--head L] [--window W] [--listen addr]
/// [--cache-dir DIR]`
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
    let opts = ServeOptions::parse(args).map_err(|e| e.to_string())?;
    let builder = serve_builder(&opts)?;
    #[cfg(feature = "faults")]
    arm_fault_plan()?;
    let policy = ServePolicy::from_opts(&opts);
    // One process-wide cache: the session engine, every per-request
    // override engine, and every TCP connection share it.
    let cache = std::sync::Arc::new(tilt_engine::CompileCache::default());
    let persist = opts.cache_dir.as_deref().map(std::path::PathBuf::from);
    if let Some(dir) = &persist {
        match cache.load(dir) {
            Ok((loaded, rejected)) if loaded > 0 || rejected > 0 => eprintln!(
                "tilt serve: compile cache: restored {loaded} entries from {}{}",
                dir.display(),
                if rejected > 0 {
                    format!(" ({rejected} corrupt/stale entries rejected)")
                } else {
                    String::new()
                }
            ),
            Ok(_) => {}
            Err(e) => eprintln!(
                "tilt serve: compile cache: cannot read {}: {e} (starting cold)",
                dir.display()
            ),
        }
    }
    let builder = builder.compile_cache(cache.clone());
    // Validate the session config before any I/O so a bad --ions/--head
    // fails fast with a usage error.
    tilt_engine::Service::new(builder.clone()).map_err(|e| e.to_string())?;
    let flag = sigterm::install();
    let out = match &opts.listen {
        None => serve_stdio(
            builder,
            opts.window,
            policy,
            flag,
            &cache,
            persist.as_deref(),
        ),
        Some(addr) => serve_tcp(
            builder,
            addr,
            opts.window,
            policy,
            flag,
            &cache,
            persist.as_deref(),
        ),
    }?;
    snapshot_cache(&cache, persist.as_deref());
    Ok(out)
}

/// Writes the compile-cache snapshot when persistence is configured.
fn snapshot_cache(cache: &tilt_engine::CompileCache, dir: Option<&std::path::Path>) {
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

/// The stdin/stdout loop, on a worker thread so SIGTERM works even
/// while the loop is blocked reading idle input. glibc's `signal()`
/// installs BSD (`SA_RESTART`) semantics, so a blocked `read(2)`
/// restarts after the handler runs and the in-loop flag check never
/// executes; the main thread polls the flag instead. By the
/// flush-before-blocking rule, a loop blocked on input has **zero**
/// pending responses, so exiting the process at that point loses
/// nothing.
fn serve_stdio(
    builder: tilt_engine::EngineBuilder,
    window: usize,
    policy: ServePolicy,
    flag: &'static std::sync::atomic::AtomicBool,
    cache: &tilt_engine::CompileCache,
    persist: Option<&std::path::Path>,
) -> Result<String, String> {
    use std::sync::atomic::Ordering;
    let worker = std::thread::spawn(move || {
        let mut service = policy.apply(
            tilt_engine::Service::new(builder)
                .expect("config validated before the thread spawned")
                .with_window(window),
        );
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        service
            .serve(stdin.lock(), stdout.lock(), Some(flag))
            .map_err(|e| format!("service I/O error: {e}"))
    });
    while !worker.is_finished() {
        if flag.load(Ordering::SeqCst) {
            // Grace period: a line mid-compile finishes, flushes, and
            // the loop notices the flag and returns — then we can
            // print its real summary. A loop blocked on idle input
            // never returns (restarted read), but by construction has
            // nothing buffered, so exiting directly is lossless.
            // SIGTERM means bounded shutdown: a compile still running
            // 2 s after the signal forfeits its response.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while !worker.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            if !worker.is_finished() {
                // Either genuinely idle (blocked read, nothing
                // buffered — lossless) or a compile outlasted the
                // grace period (its response is forfeit). We cannot
                // tell which from here, so say so. The cache snapshot
                // still happens — warm restarts are the point of
                // persistence, and SIGTERM restarts are the common
                // case under an orchestrator.
                eprintln!(
                    "tilt serve: SIGTERM — grace period expired, exiting \
                     (an in-flight response, if any, is forfeit)"
                );
                snapshot_cache(cache, persist);
                std::process::exit(0);
            }
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    let summary = worker.join().map_err(|_| "service thread panicked")??;
    eprintln!("{}", summary_line(&summary));
    Ok(String::new())
}

fn summary_line(summary: &tilt_engine::ServiceSummary) -> String {
    let s = &summary.stats;
    let c = &summary.cache;
    format!(
        "tilt serve: {} responses ({} ok, {} errors), shed {} overloaded / {} deadline, \
         p50 {} µs, p99 {} µs, max in-flight {}, \
         cache {}/{} hits ({:.1}%), {} entries ({:?})",
        s.served,
        s.ok,
        s.errors,
        s.shed_overloaded,
        s.shed_deadline,
        s.p50_us(),
        s.p99_us(),
        s.max_in_flight,
        c.hits,
        c.hits + c.misses,
        100.0 * c.hit_rate(),
        c.entries,
        summary.cause
    )
}

/// One service loop per accepted connection, each on its own thread
/// over a clone of the engine prototype.
pub(crate) fn handle_connection(
    builder: tilt_engine::EngineBuilder,
    stream: std::net::TcpStream,
    window: usize,
    policy: ServePolicy,
    flag: &'static std::sync::atomic::AtomicBool,
) -> Result<tilt_engine::ServiceSummary, String> {
    let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut service = policy.apply(
        tilt_engine::Service::new(builder)
            .map_err(|e| e.to_string())?
            .with_window(window),
    );
    service
        .serve(reader, stream, Some(flag))
        .map_err(|e| format!("service I/O error: {e}"))
}

fn serve_tcp(
    builder: tilt_engine::EngineBuilder,
    addr: &str,
    window: usize,
    policy: ServePolicy,
    flag: &'static std::sync::atomic::AtomicBool,
    cache: &tilt_engine::CompileCache,
    persist: Option<&std::path::Path>,
) -> Result<String, String> {
    use std::sync::atomic::Ordering;
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Non-blocking accept so SIGTERM is noticed between connections.
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    eprintln!("tilt serve: listening on {local}");
    // Each live connection: the worker thread plus a clone of its
    // socket. On SIGTERM the clones are shut down, turning each
    // worker's restarted-blocking read into EOF — the loops drain
    // their windows and return, so `join` below terminates. (glibc
    // `signal()` semantics restart blocked reads, so the flag alone
    // cannot wake an idle connection.) Finished entries are reaped
    // every accept-loop pass; otherwise the retained clones would leak
    // one fd per connection until the listener hits EMFILE.
    let mut workers: Vec<(std::thread::JoinHandle<()>, Option<std::net::TcpStream>)> = Vec::new();
    loop {
        if flag.load(Ordering::SeqCst) {
            break;
        }
        workers.retain(|(handle, _)| !handle.is_finished());
        match listener.accept() {
            Ok((stream, peer)) => {
                // The per-connection loop blocks on reads; switch the
                // socket back to blocking mode.
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                let clone = stream.try_clone().ok();
                let builder = builder.clone();
                let policy = policy.clone();
                let handle = std::thread::spawn(move || {
                    match handle_connection(builder, stream, window, policy, flag) {
                        Ok(summary) => eprintln!("{} [{peer}]", summary_line(&summary)),
                        Err(e) => eprintln!("tilt serve: connection {peer} failed: {e}"),
                    }
                });
                workers.push((handle, clone));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
    // Two-phase drain. Phase 1: close only the read side, so each
    // worker sees EOF, drains its window, and still gets to *write*
    // the responses and its summary.
    for (_, stream) in &workers {
        if let Some(stream) = stream {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
    let drained = wait_all_finished(&workers, std::time::Duration::from_secs(2));
    if !drained {
        // Phase 2: a worker is stuck in a blocking write (client
        // stopped draining its socket) — sever both directions.
        for (handle, stream) in &workers {
            if !handle.is_finished() {
                if let Some(stream) = stream {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        if !wait_all_finished(&workers, std::time::Duration::from_secs(2)) {
            // Last resort (e.g. the socket clone was unavailable at
            // accept time): shutdown must not wedge.
            eprintln!("tilt serve: a connection did not drain within the grace period, exiting");
            snapshot_cache(cache, persist);
            std::process::exit(0);
        }
    }
    for (handle, _) in workers {
        let _ = handle.join();
    }
    Ok(format!("stopped listening on {local}\n"))
}

/// Polls until every worker thread finished or `grace` elapsed.
fn wait_all_finished(
    workers: &[(std::thread::JoinHandle<()>, Option<std::net::TcpStream>)],
    grace: std::time::Duration,
) -> bool {
    let deadline = std::time::Instant::now() + grace;
    loop {
        if workers.iter().all(|(h, _)| h.is_finished()) {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// `tilt-cli bench <name|all>`
pub fn bench(args: &[String]) -> Result<String, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
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
        let head = opts.head.min(b.circuit.n_qubits());
        if opts.router == RouterChoice::Exact {
            // The exact router lives on the pass layer; estimate with
            // the free-function estimators as before the session API.
            use tilt_sim::{estimate_success, execution_time_us, ExecTimeModel};
            let mut bench_opts = opts.clone();
            bench_opts.ions = Some(b.circuit.n_qubits());
            bench_opts.head = head;
            let metrics = run_pipeline(&bench_opts, &b.circuit).map(|out| {
                let noise = NoiseModel::default();
                let times = GateTimeModel::default();
                let s = estimate_success(&out.program, &noise, &times);
                let t = execution_time_us(&out.program, &times, &ExecTimeModel::default());
                (out.report.swap_count, out.report.move_count, s.success, t)
            });
            table.row(metric_row(b.name, metrics));
        } else {
            // One session per benchmark: the suite mixes register widths.
            let spec = DeviceSpec::new(b.circuit.n_qubits(), head).map_err(|e| e.to_string())?;
            let report = tilt_engine(&opts, spec)?.run(&b.circuit);
            table.row(report_row(b.name, &report));
        }
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
        let out = compile(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("swaps: "));
        assert!(!out.contains("swaps: 0"));
    }

    #[test]
    fn compile_emit_qasm_includes_swap_gates() {
        let path = write_temp("emit.qasm", "qreg q[8];\ncx q[0], q[7];\n");
        let out = compile(&v(&[&path, "--head", "4", "--emit-qasm"])).unwrap();
        assert!(out.contains("swap q["));
    }

    #[test]
    fn simulate_prints_probability() {
        let path = write_temp("sim.qasm", "qreg q[4];\nh q[0];\ncx q[0], q[3];\n");
        let out = simulate(&v(&[&path, "--head", "4"])).unwrap();
        assert!(out.contains("success: 0."), "{out}");
    }

    #[test]
    fn missing_file_is_reported() {
        let e = compile(&v(&["/nonexistent/x.qasm"])).unwrap_err();
        assert!(e.contains("cannot read"));
    }

    #[test]
    fn bad_qasm_is_reported() {
        let path = write_temp("bad.qasm", "qreg q[2];\nwat q[0];\n");
        let e = compile(&v(&[&path])).unwrap_err();
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
        assert!(e.contains("session API"), "{e}");
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
        // command clamps it, as `run --stream` and `lint` do.
        let path = write_temp("narrow.qasm", "qreg q[8];\nh q[0];\ncx q[0], q[7];\n");
        let stream = run(&v(&[&path, "--stream"])).unwrap();
        assert!(stream.contains("head 8"), "{stream}");
        for (name, command) in [
            ("run", run as fn(&[String]) -> Result<String, String>),
            ("compile", compile),
            ("simulate", simulate),
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
        let out = scale(&v(&[&path, "--elu-ions", "10", "--head", "4"])).unwrap();
        assert!(out.contains("remote gates: 1"), "{out}");
        assert!(out.contains("2 ELUs"), "{out}");
    }

    #[test]
    fn exact_router_on_small_file() {
        let path = write_temp("exact.qasm", "qreg q[6];\ncx q[0], q[5];\n");
        let out = compile(&v(&[&path, "--head", "3", "--router", "exact"])).unwrap();
        assert!(out.contains("swaps: 2"), "{out}");
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
                args.extend(["--scaled", "--elu-ions", "10"]);
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
        let out = lint(&v(&[&path, "--scaled", "--elu-ions", "10", "--head", "4"])).unwrap();
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
            "--scaled",
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
    fn run_rejects_exact_router() {
        let path = write_temp("run2.qasm", "qreg q[4];\ncx q[0], q[3];\n");
        let e = run(&v(&[&path, "--router", "exact"])).unwrap_err();
        assert!(e.contains("session API"), "{e}");
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
    fn bench_exact_router_reaches_the_exact_branch() {
        // `--router exact` must reach the exact router, not silently
        // substitute LinQ: BV-64 exceeds the exact search's ion cap,
        // so the row reports that error — LinQ would have succeeded
        // and printed swap counts mislabeled as exact results.
        let text = bench(&v(&["bv", "--head", "16", "--router", "exact"])).unwrap();
        assert!(text.contains("BV"), "{text}");
        assert!(text.contains("error"), "{text}");
        assert!(text.contains("ion cap"), "{text}");
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
        assert!(e.contains("not servable"), "{e}");
        let e = serve(&v(&["--ions", "1"])).unwrap_err();
        assert!(!e.is_empty());
    }

    #[test]
    fn serve_tcp_connection_round_trips_requests() {
        use std::io::{BufRead, BufReader, Write};
        use std::sync::atomic::AtomicBool;

        static FLAG: AtomicBool = AtomicBool::new(false);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let builder =
            serve_builder(&ServeOptions::parse(&v(&["--ions", "8", "--head", "4"])).unwrap())
                .unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            handle_connection(builder, stream, 4, ServePolicy::default(), &FLAG).unwrap()
        });

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        // Interactive request/response: the service must answer while
        // the connection stays open and idle (flush-before-blocking),
        // not only at window boundaries or EOF.
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
        let summary = server.join().unwrap();
        assert_eq!(summary.stats.served, 1);
    }
}
