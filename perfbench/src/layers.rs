//! Traced replays of the TILT compile path through its layer entry
//! points: the same calls `Compiler::compile` and `Engine::run` make,
//! each wrapped in a span named after its layer.

use crate::trace::Tracer;
use std::time::Duration;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose_into;
use tilt_compiler::schedule::schedule;
use tilt_compiler::{
    CompileOutput, CompileReport, DeviceSpec, InitialMapping, RouterKind, SchedulerKind,
    TiltProgram,
};
use tilt_sim::{estimate_success, execution_time_us, ExecTimeModel, GateTimeModel, NoiseModel};

/// Reused buffers of the replay, like the engine's compile scratch.
#[derive(Default)]
pub struct Scratch {
    pub native: Circuit,
    lowered: Circuit,
}

/// Decomposes `circuit` into `scratch.native` and counts the result.
pub fn decompose(tracer: &mut Tracer, circuit: &Circuit, scratch: &mut Scratch) {
    tracer.time("compiler.decompose", || {
        decompose_into(circuit, &mut scratch.native)
    });
    tracer.count(
        "compiler.decompose.native_gates",
        scratch.native.len() as f64,
    );
}

/// Decompose, route, lower and schedule `circuit` on `spec` with the
/// default policies.
pub fn compile(
    tracer: &mut Tracer,
    circuit: &Circuit,
    spec: DeviceSpec,
    scratch: &mut Scratch,
) -> CompileOutput {
    decompose(tracer, circuit, scratch);
    let native = &scratch.native;
    let routed = tracer.time("compiler.route", || {
        let initial = InitialMapping::default().build(native, spec.n_ions());
        RouterKind::default().route(native, spec, &initial)
    });
    let routed = routed.expect("benchmark circuits fit their devices");
    tracer.count("compiler.route.swaps", routed.swap_count as f64);
    tracer.count(
        "compiler.route.opposing_swaps",
        routed.opposing_swap_count as f64,
    );
    tracer.time("compiler.decompose", || {
        decompose_into(&routed.circuit, &mut scratch.lowered);
    });
    let lowered = &scratch.lowered;
    let program = tracer.time("compiler.schedule", || {
        schedule(lowered, spec, SchedulerKind::default())
    });
    tracer.count("compiler.schedule.moves", program.move_count() as f64);
    tracer.count(
        "compiler.schedule.move_distance",
        program.move_distance_ions() as f64,
    );
    tracer.count("compiler.schedule.ops", program.ops().len() as f64);
    let report = CompileReport {
        swap_count: routed.swap_count,
        opposing_swap_count: routed.opposing_swap_count,
        opposing_ratio: routed.opposing_ratio(),
        move_count: program.move_count(),
        move_distance_ions: program.move_distance_ions(),
        native_gate_count: program.gate_count(),
        native_two_qubit_count: program.two_qubit_gate_count(),
        t_decompose: Duration::ZERO,
        t_swap: Duration::ZERO,
        t_move: Duration::ZERO,
    };
    CompileOutput {
        program,
        routed,
        report,
    }
}

/// The Eq. 4 success estimate and the Eq. 5 execution time.
pub struct Estimate {
    pub ln_success: f64,
    pub success: f64,
    pub exec_time_us: f64,
}

/// Estimates `program` under the default models.
pub fn estimate(tracer: &mut Tracer, program: &TiltProgram) -> Estimate {
    tracer.time("sim.estimate", || {
        let times = GateTimeModel::default();
        let s = estimate_success(program, &NoiseModel::default(), &times);
        Estimate {
            ln_success: s.ln_success,
            success: s.success,
            exec_time_us: execution_time_us(program, &times, &ExecTimeModel::default()),
        }
    })
}
