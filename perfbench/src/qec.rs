//! `qec_verify`: the Clifford-dominated QEC regime on the simulators and
//! the static verifier.
//!
//! One op is one job of two runs: `repetition_code(251, 10)` on the
//! stabilizer simulator with strict verification, and Bernstein–Vazirani
//! over 16 qubits with its data qubits measured, on the state vector.
//! Set-up parses both QASM texts and builds the engines. The seed draws
//! the BV secret.

use crate::clock::CpuTime;
use crate::layers::{self, Scratch};
use crate::trace::Tracer;
use crate::{stats, Mix, Pass};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tilt_benchmarks::bv::bernstein_vazirani;
use tilt_benchmarks::qec::repetition_code;
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_circuit::{Circuit, Qubit};
use tilt_compiler::verify::verify_tilt;
use tilt_compiler::{DeviceSpec, RouterKind, Severity};
use tilt_engine::{Backend, Engine, SimMethod, VerifyLevel};
use tilt_statevec::State;

const DISTANCE: usize = 251;
const ROUNDS: usize = 10;
/// Syndrome bits plus the final data readout: `rounds · (d − 1) + d`.
const MEASUREMENTS: usize = ROUNDS * (DISTANCE - 1) + DISTANCE;
/// 16 qubits keep the state vector (1 MiB) in the per-core cache. At
/// 20 (16 MiB) it lives in the shared cache, and its time follows the
/// other tenants of the host, which the calibration cannot see.
const BV_QUBITS: usize = 16;
const HEAD: usize = 16;

pub struct Input {
    repetition: String,
    bv: String,
    secret: String,
}

pub fn input(seed: u64) -> Input {
    let mut state = seed;
    let secret: Vec<bool> = (0..BV_QUBITS - 1)
        .map(|_| crate::splitmix(&mut state) & 1 == 1)
        .collect();
    let mut bv = bernstein_vazirani(BV_QUBITS, &secret);
    for i in 0..BV_QUBITS - 1 {
        bv.measure(Qubit(i));
    }
    Input {
        repetition: to_qasm(&repetition_code(DISTANCE, ROUNDS)),
        bv: to_qasm(&bv),
        secret: secret.iter().map(|&b| if b { '1' } else { '0' }).collect(),
    }
}

fn spec(width: usize) -> DeviceSpec {
    DeviceSpec::new(width, HEAD).expect("QEC widths exceed the head")
}

/// The known answers: every syndrome and data bit of the noiseless
/// memory experiment is deterministically 0, and BV reads out its secret.
fn check_repetition(bits: &str, deterministic: Option<usize>) -> Result<(), String> {
    if bits.len() != MEASUREMENTS || bits.contains('1') || deterministic != Some(MEASUREMENTS) {
        return Err(format!(
            "repetition code: {} outcomes, {deterministic:?} deterministic, not all 0",
            bits.len()
        ));
    }
    Ok(())
}

fn check_bv(input: &Input, bits: &str) -> Result<(), String> {
    if bits != input.secret {
        return Err(format!("BV read {bits}, secret {}", input.secret));
    }
    Ok(())
}

struct Session {
    repetition: Circuit,
    bv: Circuit,
    stabilizer: Engine,
    statevec: Engine,
}

fn setup(input: &Input) -> Result<Session, String> {
    let repetition = parse_qasm(&input.repetition).map_err(|e| e.to_string())?;
    let bv = parse_qasm(&input.bv).map_err(|e| e.to_string())?;
    let stabilizer = Engine::builder()
        .backend(Backend::Tilt(spec(repetition.n_qubits())))
        .simulate(SimMethod::Stabilizer)
        .verify(VerifyLevel::Strict)
        .build()
        .map_err(|e| e.to_string())?;
    let statevec = Engine::builder()
        .backend(Backend::Tilt(spec(bv.n_qubits())))
        .simulate(SimMethod::Statevec)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Session {
        repetition,
        bv,
        stabilizer,
        statevec,
    })
}

fn work(input: &Input, s: &Session) -> Result<Vec<u64>, String> {
    let rep = s.stabilizer.run(&s.repetition).map_err(|e| e.to_string())?;
    let sim = rep.sim.as_ref().ok_or("no stabilizer report")?;
    check_repetition(&sim.bitstring, sim.deterministic_measurements)?;
    if rep
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error)
    {
        return Err("the verifier flagged the repetition-code program".into());
    }
    let bv = s.statevec.run(&s.bv).map_err(|e| e.to_string())?;
    check_bv(
        input,
        &bv.sim.as_ref().ok_or("no statevec report")?.bitstring,
    )?;
    Ok(vec![
        rep.success.to_bits(),
        rep.diagnostics.len() as u64,
        bv.success.to_bits(),
    ])
}

/// One job: set-up, then both runs.
pub fn job(input: &Input, pass: &mut Pass) {
    pass.attempted += 1;
    let t0 = CpuTime::now();
    let outcome = setup(input).and_then(|s| {
        let t1 = CpuTime::now();
        let bits = work(input, &s)?;
        Ok((t1 - t0, t1.elapsed(), bits))
    });
    match outcome {
        Ok((setup, op, bits)) => {
            pass.setup(setup);
            pass.op(op, 1.0);
            pass.job(setup + op);
            pass.engine_ms.push(stats::ms(op));
            if pass.reference.is_empty() {
                pass.reference = bits;
            }
        }
        Err(e) => pass.fail(e),
    }
}

/// The job again, through the compile layers, the verifier and both
/// simulators directly.
pub fn traced_job(input: &Input, reference: &[u64], mix: &mut Mix, tracer: &mut Tracer) {
    let mut scratch = Scratch::default();
    tracer.set_request(mix.jobs as u64);
    let job = tracer.enter("job");
    let mut parse = |text: &str| {
        let c = tracer.time("circuit.qasm", || parse_qasm(text));
        let c = c.expect("the generated QASM parses");
        tracer.count("circuit.qasm.gates", c.len() as f64);
        c
    };
    let repetition = parse(&input.repetition);
    let bv = parse(&input.bv);

    let run = tracer.enter("engine.run");
    let rep_spec = spec(repetition.n_qubits());
    let out = layers::compile(tracer, &repetition, rep_spec, &mut scratch);
    let rep_success = layers::estimate(tracer, &out.program).success;
    let diagnostics = tracer.time("compiler.verify", || {
        verify_tilt(&out, RouterKind::default().max_swap_span(rep_spec))
    });
    tracer.count("compiler.verify.diagnostics", diagnostics.len() as f64);
    let sim = tracer.time("stabilizer", || tilt_stabilizer::run(&repetition, 0));
    tracer.exit(run);
    let sim = sim.expect("the repetition code is Clifford");
    tracer.count("stabilizer.measurements", sim.outcomes.len() as f64);
    let rep_check = check_repetition(&sim.bitstring(), Some(sim.deterministic_measurements));

    let run = tracer.enter("engine.run");
    let out = layers::compile(tracer, &bv, spec(bv.n_qubits()), &mut scratch);
    let bv_success = layers::estimate(tracer, &out.program).success;
    let outcomes = tracer.time("statevec", || {
        let state = State::try_zero(bv.n_qubits()).expect("16 qubits fit the state vector");
        state.run_sampled(&bv, &mut SmallRng::seed_from_u64(0)).1
    });
    tracer.exit(run);
    tracer.exit(job);
    let bits: String = outcomes
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    mix.jobs += 1;
    mix.ops += 1;
    let replay = vec![
        rep_success.to_bits(),
        diagnostics.len() as u64,
        bv_success.to_bits(),
    ];
    match rep_check.and_then(|()| check_bv(input, &bits)) {
        Err(e) => mix.fail(e),
        Ok(()) if replay != reference => {
            mix.fail("the layer replay differs from Engine::run".into());
        }
        Ok(()) => {}
    }
}
