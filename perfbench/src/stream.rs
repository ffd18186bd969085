//! `stream_million`: a million-gate circuit streamed from a QASM file.
//!
//! The input is `rcs_stream(8, 8, 11_000, seed)`, 1,012,064 gates,
//! written to a file before timing, so the benchmark holds no copy of
//! it. One op streams the file through `Engine::run_streaming_qasm` at
//! `DEFAULT_STREAM_WINDOW`; its set-up is the pipeline fill, from the
//! call until the sink receives its first increment. `ops_per_s` counts
//! input gates. An op is too long to gather ten tail samples in a run,
//! so the tail is taken over the gaps between increments.

use crate::calib::{self, Calibration};
use crate::clock::CpuTime;
use crate::trace::Tracer;
use crate::{Mix, Pass};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tilt_benchmarks::stream::rcs_stream;
use tilt_circuit::qasm::{write_qasm_stream, QasmStream};
use tilt_compiler::{CompileReport, Compiler, DeviceSpec, StreamingCompiler, TiltOp};
use tilt_engine::{Engine, DEFAULT_STREAM_WINDOW};
use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};
use tilt_sim::{ExecTimeModel, GateTimeModel, NoiseModel};

/// Gates in `rcs_stream(8, 8, 11_000, _)`, counted from the generator's
/// structure: 64 Hadamards, then per cycle one gate per qubit plus the
/// cycle's two-qubit pattern.
const INPUT_GATES: usize = 1_012_064;
const ROWS: usize = 8;
const COLS: usize = 8;
const CYCLES: usize = 11_000;
const HEAD: usize = 16;
/// Gates the traced replay pulls from the parser per span.
const PARSE_CHUNK: usize = 4096;

pub struct Input {
    path: PathBuf,
}

pub fn input(seed: u64, dir: &Path) -> Result<Input, String> {
    let path = dir.join("rcs_stream.qasm");
    let file = File::create(&path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    let mut written = 0usize;
    let gates = rcs_stream(ROWS, COLS, CYCLES, seed).inspect(|_| written += 1);
    write_qasm_stream(ROWS * COLS, gates, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    if written != INPUT_GATES {
        return Err(format!(
            "generator wrote {written} gates, expected {INPUT_GATES}"
        ));
    }
    Ok(Input { path })
}

fn spec() -> DeviceSpec {
    DeviceSpec::new(ROWS * COLS, HEAD).expect("64 ions with a 16-ion head is valid")
}

fn open(input: &Input) -> Result<BufReader<File>, String> {
    File::open(&input.path)
        .map(BufReader::new)
        .map_err(|e| e.to_string())
}

/// One job: one stream of the whole file. The stream is timed in
/// stretches, from one increment to the next, each between two
/// calibration readings that scale it; the readings are taken inside the
/// sink, while the pipeline waits, and are not part of any stretch.
/// Each stretch also runs on the next CPU.
pub fn job(input: &Input, pass: &mut Pass, calibration: &mut Calibration) {
    pass.attempted += 1;
    let mut timer = Stretches::start(calibration);
    let outcome = open(input).and_then(|reader| {
        let engine = Engine::tilt(spec());
        let mut sink = |_shard: usize, _ops: &[TiltOp]| {
            timer.end(calibration);
            crate::cpu::advance();
            timer.resume(calibration);
        };
        engine
            .run_streaming_qasm(reader, DEFAULT_STREAM_WINDOW, &mut sink)
            .map_err(|e| e.to_string())
    });
    timer.end(calibration);
    pass.calib_ms.extend(&timer.readings);
    let stretches = timer.stretches;
    let increments = stretches.len() - 1;
    let checked = outcome.and_then(|o| {
        if o.input_gate_count != INPUT_GATES {
            return Err(format!(
                "streamed {} gates, expected {INPUT_GATES}",
                o.input_gate_count
            ));
        }
        if o.increments != increments || increments == 0 {
            return Err(format!(
                "{} increments reported, {increments} delivered",
                o.increments
            ));
        }
        // A million gates drive the modelled success probability to
        // 0, so ln_success may be -inf, but never NaN or positive.
        if !(o.ln_success <= 0.0 && o.exec_time_us.is_finite() && o.exec_time_us > 0.0) {
            return Err(format!(
                "implausible estimate ln {} / {} us",
                o.ln_success, o.exec_time_us
            ));
        }
        Ok([o.ln_success.to_bits(), o.exec_time_us.to_bits()])
    });
    match checked {
        Ok(bits) if pass.reference.is_empty() || pass.reference == bits => {
            pass.reference = bits.to_vec();
            pass.op_in_stretches(&stretches, INPUT_GATES as f64);
        }
        Ok(_) => pass.fail("a repeated stream gave another estimate".into()),
        Err(e) => pass.fail(e),
    }
}

/// Stretches of work, each timed between two calibration readings.
struct Stretches {
    readings: Vec<f64>,
    /// Raw time and calibration scale of each finished stretch.
    stretches: Vec<(Duration, f64)>,
    resumed: CpuTime,
}

impl Stretches {
    fn start(calibration: &mut Calibration) -> Stretches {
        let readings = vec![calibration.run()];
        Stretches {
            readings,
            stretches: Vec::new(),
            resumed: CpuTime::now(),
        }
    }

    fn end(&mut self, calibration: &mut Calibration) {
        let took = self.resumed.elapsed();
        let before = self.readings[self.readings.len() - 1];
        let after = calibration.run();
        self.readings.push(after);
        self.stretches.push((took, calib::scale(before, after)));
    }

    fn resume(&mut self, calibration: &mut Calibration) {
        self.readings.push(calibration.run());
        self.resumed = CpuTime::now();
    }
}

/// The stream again, through the parser, the streaming compiler and the
/// streaming estimators directly. Time inside the sink is the
/// estimators' span, nested in (and so excluded from the self time of)
/// the streaming compiler's span.
pub fn traced_job(input: &Input, reference: &[u64], mix: &mut Mix, tracer: &mut Tracer) {
    tracer.set_request(mix.jobs as u64);
    let job = tracer.enter("job");
    let outcome = traced_stream(input, tracer);
    tracer.exit(job);
    mix.jobs += 1;
    mix.ops += 1;
    match outcome {
        Ok(bits) if bits == reference => {}
        Ok(_) => mix.fail("the layer replay differs from run_streaming_qasm".into()),
        Err(e) => mix.fail(e),
    }
}

/// What a traced streaming compile produced.
pub struct Streamed {
    pub compile: CompileReport,
    pub increments: usize,
    pub input_gates: usize,
    pub ln_success: f64,
    pub success: f64,
    pub exec_time_us: f64,
}

fn traced_stream(input: &Input, tracer: &mut Tracer) -> Result<Vec<u64>, String> {
    let run = tracer.enter("engine.run");
    let streamed = replay(open(input)?, spec(), tracer);
    tracer.exit(run);
    let s = streamed?;
    if s.input_gates != INPUT_GATES {
        return Err(format!(
            "streamed {} gates, expected {INPUT_GATES}",
            s.input_gates
        ));
    }
    Ok(vec![s.ln_success.to_bits(), s.exec_time_us.to_bits()])
}

/// `Engine::run_streaming_qasm` on `spec` with the default models at
/// `DEFAULT_STREAM_WINDOW`, through the parser, the streaming compiler
/// and the streaming estimators directly.
pub fn replay(
    reader: impl BufRead,
    spec: DeviceSpec,
    tracer: &mut Tracer,
) -> Result<Streamed, String> {
    let (noise, times, exec_model) = (
        NoiseModel::default(),
        GateTimeModel::default(),
        ExecTimeModel::default(),
    );
    let mut qasm = QasmStream::new(reader);
    let n_qubits = tracer
        .time("circuit.qasm", || qasm.require_n_qubits())
        .map_err(|e| e.to_string())?;
    let compiler = Compiler::new(spec);
    let mut streaming = StreamingCompiler::new(&compiler, n_qubits, DEFAULT_STREAM_WINDOW)
        .map_err(|e| e.to_string())?;
    let mut success = SuccessAccumulator::new(spec.n_ions(), &noise, &times);
    let mut exec = ExecTimeAccumulator::new(spec.n_ions(), &times, &exec_model);
    let mut chunk = Vec::with_capacity(PARSE_CHUNK);
    let mut ops = 0usize;
    let mut sink = |tracer: &mut Tracer, increment: &[TiltOp]| {
        let span = tracer.enter("sim.estimate");
        for op in increment {
            success.push(op);
            exec.push(op);
        }
        ops += increment.len();
        tracer.exit(span);
    };
    loop {
        let span = tracer.enter("circuit.qasm");
        for g in qasm.by_ref().take(PARSE_CHUNK) {
            chunk.push(g.map_err(|e| e.to_string())?);
        }
        tracer.exit(span);
        tracer.count("circuit.qasm.gates", chunk.len() as f64);
        if chunk.is_empty() {
            break;
        }
        let span = tracer.enter("compiler.streaming");
        for g in chunk.drain(..) {
            streaming
                .push(g, &mut |ops: &[TiltOp]| sink(tracer, ops))
                .map_err(|e| e.to_string())?;
        }
        tracer.exit(span);
    }
    let span = tracer.enter("compiler.streaming");
    let summary = streaming.finish(&mut |ops: &[TiltOp]| sink(tracer, ops));
    tracer.exit(span);
    tracer.count("compiler.streaming.increments", summary.increments as f64);
    tracer.count("compiler.streaming.ops", ops as f64);
    let s = success.finish();
    Ok(Streamed {
        compile: summary.report,
        increments: summary.increments,
        input_gates: summary.input_gate_count,
        ln_success: s.ln_success,
        success: s.success,
        exec_time_us: exec.finish(),
    })
}
