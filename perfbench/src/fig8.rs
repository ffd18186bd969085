//! `fig8_sweep`: the paper's Fig. 8 evaluation, in memory and monolithic.
//!
//! One op is one sweep: the six Table II applications on TILT with a
//! head of 16 and of 32 and on QCCD at every trap size of §VI-B, 48
//! `Engine::run` calls, plus the ideal trapped-ion bound per
//! application. A job's set-up parses the six QASM texts and builds the
//! engines. The seed fixes the order in which the 48 runs are issued.

use crate::clock::CpuTime;
use crate::layers::{self, Scratch};
use crate::trace::Tracer;
use crate::{stats, Mix, Pass};
use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Duration;
use tilt_benchmarks::paper_suite;
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_circuit::Circuit;
use tilt_compiler::DeviceSpec;
use tilt_engine::{Backend, Engine};
use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
use tilt_sim::{estimate_ideal_success, GateTimeModel, NoiseModel};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Config {
    Tilt { head: usize },
    Qccd { ions_per_trap: usize },
}

const CONFIGS: [Config; 8] = [
    Config::Tilt { head: 16 },
    Config::Tilt { head: 32 },
    Config::Qccd { ions_per_trap: 15 },
    Config::Qccd { ions_per_trap: 17 },
    Config::Qccd { ions_per_trap: 20 },
    Config::Qccd { ions_per_trap: 25 },
    Config::Qccd { ions_per_trap: 30 },
    Config::Qccd { ions_per_trap: 35 },
];

/// Table II two-qubit counts must lie within this share of the paper's.
const TABLE2_TOLERANCE: f64 = 0.12;

struct App {
    name: &'static str,
    qasm: String,
    paper_two_qubit_gates: usize,
}

pub struct Input {
    apps: Vec<App>,
    /// `(app, config)` pairs in issue order.
    order: Vec<(usize, usize)>,
}

pub fn input(seed: u64) -> Input {
    let apps: Vec<App> = paper_suite()
        .into_iter()
        .map(|b| App {
            name: b.name,
            qasm: to_qasm(&b.circuit),
            paper_two_qubit_gates: b.paper_two_qubit_gates,
        })
        .collect();
    let mut order: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|a| (0..CONFIGS.len()).map(move |c| (a, c)))
        .collect();
    crate::shuffle(&mut order, seed);
    Input { apps, order }
}

fn build_engine(width: usize, config: Config) -> Result<Engine, String> {
    let backend = match config {
        Config::Tilt { head } => {
            Backend::Tilt(DeviceSpec::new(width, head).map_err(|e| e.to_string())?)
        }
        Config::Qccd { ions_per_trap } => {
            Backend::Qccd(QccdSpec::for_qubits(width, ions_per_trap).map_err(|e| e.to_string())?)
        }
    };
    Engine::builder()
        .backend(backend)
        .build()
        .map_err(|e| e.to_string())
}

/// Success probability per app and config, then the ideal bound per app.
type Table = (Vec<[f64; 8]>, Vec<f64>);

/// The known answers: Table II sizes and the Fig. 8 orderings.
fn check(input: &Input, circuits: &[Circuit], table: &Table) -> Result<(), String> {
    let (success, ideal) = table;
    let best_qccd = |a: usize| success[a][2..].iter().copied().fold(0.0, f64::max);
    for (a, app) in input.apps.iter().enumerate() {
        let ours = circuits[a].two_qubit_count() as f64;
        let paper = app.paper_two_qubit_gates as f64;
        if (ours - paper).abs() / paper >= TABLE2_TOLERANCE {
            return Err(format!(
                "{}: {ours} two-qubit gates vs Table II {paper}",
                app.name
            ));
        }
        if success[a].iter().any(|&s| !(s > 0.0 && s <= ideal[a])) {
            return Err(format!(
                "{}: a success rate exceeds the ideal bound {}",
                app.name, ideal[a]
            ));
        }
        let favours_tilt = success[a][1] > best_qccd(a);
        match app.name {
            "QAOA" | "RCS" if !favours_tilt => {
                return Err(format!("{}: TILT-32 should beat the best QCCD", app.name));
            }
            "QFT" if success[a][0] >= best_qccd(a) => {
                return Err("QFT: the best QCCD should beat TILT-16".into());
            }
            _ => {}
        }
    }
    Ok(())
}

struct Session {
    circuits: Vec<Circuit>,
    engines: BTreeMap<usize, Vec<Engine>>,
}

fn setup(input: &Input) -> Result<Session, String> {
    let circuits = input
        .apps
        .iter()
        .map(|a| parse_qasm(&a.qasm).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut engines = BTreeMap::new();
    for c in &circuits {
        if let Entry::Vacant(slot) = engines.entry(c.n_qubits()) {
            let row = CONFIGS
                .iter()
                .map(|&cfg| build_engine(c.n_qubits(), cfg))
                .collect::<Result<Vec<_>, _>>()?;
            slot.insert(row);
        }
    }
    Ok(Session { circuits, engines })
}

fn ideal_bounds(circuits: &[Circuit]) -> Vec<f64> {
    let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
    circuits
        .iter()
        .map(|c| estimate_ideal_success(c, &noise, &times).success)
        .collect()
}

/// One sweep through the engines; also returns the time spent inside
/// `Engine::run`.
fn sweep(input: &Input, s: &Session) -> Result<(Table, Duration), String> {
    let mut success = vec![[0.0; 8]; input.apps.len()];
    let mut in_engine = Duration::ZERO;
    for &(a, c) in &input.order {
        let circuit = &s.circuits[a];
        let engine = &s.engines[&circuit.n_qubits()][c];
        let t = CpuTime::now();
        let report = engine.run(circuit).map_err(|e| e.to_string())?;
        in_engine += t.elapsed();
        success[a][c] = report.success;
    }
    Ok(((success, ideal_bounds(&s.circuits)), in_engine))
}

/// One job: set-up, then one sweep.
pub fn job(input: &Input, pass: &mut Pass) {
    pass.attempted += 1;
    let t0 = CpuTime::now();
    let outcome = setup(input).and_then(|s| {
        let t1 = CpuTime::now();
        let (table, in_engine) = sweep(input, &s)?;
        let op = t1.elapsed();
        check(input, &s.circuits, &table)?;
        Ok((t1 - t0, op, in_engine, table))
    });
    match outcome {
        Ok((setup, op, in_engine, table)) => {
            pass.setup(setup);
            pass.op(op, 1.0);
            pass.job(setup + op);
            pass.engine_ms.push(stats::ms(in_engine));
            if pass.reference.is_empty() {
                pass.reference = table.0.iter().flatten().map(|s| s.to_bits()).collect();
            }
        }
        Err(e) => pass.fail(e),
    }
}

/// The job again, through the layer entry points one by one.
pub fn traced_job(input: &Input, reference: &[u64], mix: &mut Mix, tracer: &mut Tracer) {
    let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
    let mut scratch = Scratch::default();
    tracer.set_request(mix.jobs as u64);
    let job = tracer.enter("job");
    let mut circuits = Vec::new();
    for app in &input.apps {
        let c = tracer.time("circuit.qasm", || parse_qasm(&app.qasm));
        let c = c.expect("the generated QASM parses");
        tracer.count("circuit.qasm.gates", c.len() as f64);
        circuits.push(c);
    }
    let mut success = vec![[0.0; 8]; input.apps.len()];
    for &(a, c) in &input.order {
        let circuit = &circuits[a];
        let width = circuit.n_qubits();
        let run = tracer.enter("engine.run");
        success[a][c] = match CONFIGS[c] {
            Config::Tilt { head } => {
                let spec = DeviceSpec::new(width, head).expect("paper head sizes are valid");
                let out = layers::compile(tracer, circuit, spec, &mut scratch);
                layers::estimate(tracer, &out.program).success
            }
            Config::Qccd { ions_per_trap } => {
                layers::decompose(tracer, circuit, &mut scratch);
                let spec =
                    QccdSpec::for_qubits(width, ions_per_trap).expect("paper trap sizes are valid");
                let native = &scratch.native;
                let program = tracer.time("qccd.compile", || compile_qccd(native, &spec));
                let program = program.expect("paper circuits fit the trap array");
                let report = tracer.time("qccd.estimate", || {
                    estimate_qccd_success(&program, &noise, &times, &QccdParams::default())
                });
                tracer.count("qccd.transports", report.transports as f64);
                report.success
            }
        };
        tracer.exit(run);
    }
    let ideal = tracer.time("sim.estimate", || ideal_bounds(&circuits));
    tracer.exit(job);
    mix.jobs += 1;
    mix.ops += 1;
    let bits: Vec<u64> = success.iter().flatten().map(|s| s.to_bits()).collect();
    match check(input, &circuits, &(success, ideal)) {
        Err(e) => mix.fail(e),
        Ok(()) if bits != reference => mix.fail("the layer replay differs from Engine::run".into()),
        Ok(()) => {}
    }
}
