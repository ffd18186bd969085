//! Program execution-time estimation (Eq. 5 of the paper).
//!
//! `t_exe = t_m · dist + Σ_d t_d`: tape travel at the shuttle rate plus
//! the sum over depth layers of each layer's maximum gate time. Gates
//! executed at the same head position on disjoint qubits share a layer
//! (the head's lasers drive them simultaneously); a tape move fences
//! layering, since nothing executes while the chain is in flight. The
//! fold itself is [`ExecTimeAccumulator`].

use crate::gate_time::GateTimeModel;
use crate::streaming::ExecTimeAccumulator;
use tilt_compiler::TiltProgram;

/// Shuttle-speed parameters for Eq. 5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecTimeModel {
    /// Tape shuttle rate in µm per µs (1 µm/µs, §VI-C).
    pub shuttle_um_per_us: f64,
    /// Ion spacing in µm (≈5 µm in modern traps, §II-B).
    pub ion_spacing_um: f64,
}

impl Default for ExecTimeModel {
    fn default() -> Self {
        ExecTimeModel {
            shuttle_um_per_us: 1.0,
            ion_spacing_um: 5.0,
        }
    }
}

impl ExecTimeModel {
    /// Total tape travel distance of `program` in µm: its move distance
    /// in ion spacings (the unit of Table III's `dist` column) times the
    /// ion pitch.
    pub fn travel_um(&self, program: &TiltProgram) -> f64 {
        program.move_distance_ions() as f64 * self.ion_spacing_um
    }
}

/// Estimates the execution time of `program` in microseconds (Eq. 5).
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::{Compiler, DeviceSpec};
/// use tilt_sim::{execution_time_us, ExecTimeModel, GateTimeModel};
///
/// let mut c = Circuit::new(8);
/// c.cnot(Qubit(0), Qubit(1));
/// let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
/// let t = execution_time_us(&out.program, &GateTimeModel::default(), &ExecTimeModel::default());
/// assert!(t > 0.0);
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn execution_time_us(
    program: &TiltProgram,
    times: &GateTimeModel,
    exec: &ExecTimeModel,
) -> f64 {
    let mut acc = ExecTimeAccumulator::new(program.spec().n_ions(), times, exec);
    for op in program.ops() {
        acc.push(op);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec};

    fn compile(c: &Circuit, n: usize, head: usize) -> TiltProgram {
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(c)
            .unwrap()
            .program
    }

    fn exec_us(p: &TiltProgram) -> f64 {
        execution_time_us(p, &GateTimeModel::default(), &ExecTimeModel::default())
    }

    #[test]
    fn empty_program_takes_no_time() {
        assert_eq!(exec_us(&compile(&Circuit::new(4), 4, 4)), 0.0);
    }

    #[test]
    fn parallel_gates_share_a_layer() {
        // Two disjoint XX gates in one zone: time = max, not sum.
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.1); // span 1 → 48 µs
        c.xx(Qubit(2), Qubit(3), 0.1); // span 1 → 48 µs
        let p = compile(&c, 8, 4);
        assert_eq!(p.move_count(), 0);
        assert_eq!(exec_us(&p), 48.0);
    }

    #[test]
    fn dependent_gates_stack_layers() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.xx(Qubit(1), Qubit(2), 0.1);
        let p = compile(&c, 8, 4);
        assert_eq!(exec_us(&p), 96.0);
    }

    #[test]
    fn moves_add_travel_time() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.xx(Qubit(14), Qubit(15), 0.1);
        let p = compile(&c, 16, 4);
        assert_eq!(p.move_count(), 1);
        let travel_ions = p.move_distance_ions() as f64;
        // 5 µm per spacing at 1 µm/µs plus two 48 µs gate layers.
        assert_eq!(exec_us(&p), travel_ions * 5.0 + 96.0);
    }

    #[test]
    fn travel_um_uses_ion_spacing() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.xx(Qubit(14), Qubit(15), 0.1);
        let p = compile(&c, 16, 4);
        let exec = ExecTimeModel::default();
        assert_eq!(exec.travel_um(&p), p.move_distance_ions() as f64 * 5.0);
    }

    #[test]
    fn longer_span_dominates_layer() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(3), 0.1); // span 3 → 124 µs
        c.xx(Qubit(4), Qubit(5), 0.1); // span 1 → 48 µs (parallel)
        let p = compile(&c, 8, 8);
        assert_eq!(exec_us(&p), 124.0);
    }

    #[test]
    fn slower_shuttle_increases_time() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.xx(Qubit(14), Qubit(15), 0.1);
        let p = compile(&c, 16, 4);
        let fast = execution_time_us(
            &p,
            &GateTimeModel::default(),
            &ExecTimeModel {
                shuttle_um_per_us: 2.0,
                ion_spacing_um: 5.0,
            },
        );
        let slow = exec_us(&p);
        assert!(fast < slow);
    }
}
