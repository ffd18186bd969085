//! The unified run report: one shape for every backend.
//!
//! A [`RunReport`] carries the cross-architecture comparables — compile
//! statistics, success probability, execution time — in one flat
//! structure tagged by [`BackendKind`], plus the full backend-specific
//! artifacts (program, per-backend report) in [`RunDetail`] for callers
//! that need to drill down (visualization, semantic verification,
//! re-estimation under other models).

use crate::sim::SimReport;
use std::time::Duration;
use tilt_compiler::verify::Diagnostic;
use tilt_compiler::{CompileOutput, CompileReport, TiltProgram};
use tilt_qccd::{QccdProgram, QccdReport};
use tilt_scale::{ScaleReport, ScaledProgram};
use tilt_sim::CooledSuccessReport;

/// Which backend produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Monolithic TILT tape (the paper's architecture).
    Tilt,
    /// QCCD trap-array comparator (§VI-B).
    Qccd,
    /// MUSIQC-style ELU array of TILT modules (§VII).
    Scaled,
}

impl BackendKind {
    /// Parses the spelling [`Display`](std::fmt::Display) writes.
    pub fn parse(name: &str) -> Option<BackendKind> {
        [BackendKind::Tilt, BackendKind::Qccd, BackendKind::Scaled]
            .into_iter()
            .find(|b| b.to_string() == name)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Tilt => "tilt",
            BackendKind::Qccd => "qccd",
            BackendKind::Scaled => "scaled",
        })
    }
}

/// Compile statistics normalized across backends.
///
/// Fields keep their TILT meaning where one exists; the per-backend
/// mapping for the communication columns is documented on each field.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileStats {
    /// Inserted SWAP gates (TILT routing; summed over ELUs when scaled;
    /// 0 on QCCD, which shuttles ions instead of swapping them).
    pub swap_count: usize,
    /// Swaps classified as opposing (Fig. 2c; TILT only).
    pub opposing_swap_count: usize,
    /// Communication events: tape moves (TILT, summed over ELUs when
    /// scaled) or ion transports (QCCD).
    pub move_count: usize,
    /// Communication distance: tape travel in ion spacings (TILT) or
    /// shuttle segments traversed (QCCD).
    pub move_distance: usize,
    /// Gates in the compiled program(s), measurements included.
    pub native_gate_count: usize,
    /// Two-qubit gates in the compiled program(s).
    pub native_two_qubit_count: usize,
    /// EPR pairs consumed by remote gates (scaled backend only).
    pub epr_pairs: usize,
    /// Wall-clock time of native-gate decomposition.
    pub t_decompose: Duration,
    /// Wall-clock time of mapping/routing (`t_swap` of Table III).
    pub t_swap: Duration,
    /// Wall-clock time of scheduling (`t_move` of Table III).
    pub t_move: Duration,
}

impl CompileStats {
    /// The TILT statistics of one LinQ compile.
    pub(crate) fn tilt(r: &CompileReport) -> Self {
        CompileStats {
            swap_count: r.swap_count,
            opposing_swap_count: r.opposing_swap_count,
            move_count: r.move_count,
            move_distance: r.move_distance_ions,
            native_gate_count: r.native_gate_count,
            native_two_qubit_count: r.native_two_qubit_count,
            epr_pairs: 0,
            t_decompose: r.t_decompose,
            t_swap: r.t_swap,
            t_move: r.t_move,
        }
    }

    /// The per-ELU sum of a scaled compile; the swap and move totals come
    /// from the aggregate `report`.
    pub(crate) fn scaled<'a>(
        report: &ScaleReport,
        epr_pairs: usize,
        elus: impl IntoIterator<Item = &'a CompileReport>,
    ) -> Self {
        let mut sum = CompileStats {
            swap_count: report.total_swaps,
            move_count: report.total_moves,
            epr_pairs,
            ..CompileStats::default()
        };
        for r in elus {
            sum.opposing_swap_count += r.opposing_swap_count;
            sum.move_distance += r.move_distance_ions;
            sum.native_gate_count += r.native_gate_count;
            sum.native_two_qubit_count += r.native_two_qubit_count;
            sum.t_decompose += r.t_decompose;
            sum.t_swap += r.t_swap;
            sum.t_move += r.t_move;
        }
        sum
    }
}

/// Backend-specific artifacts of a run.
///
/// Variants deliberately carry the full owned artifacts (programs are
/// the payload here, not an error path), so the size skew between
/// backends is expected.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum RunDetail {
    /// TILT: the full LinQ output and the (possibly cooled) success
    /// estimate.
    Tilt {
        /// Program, routing outcome, and per-pass statistics.
        output: CompileOutput,
        /// Success estimate; `cooling_rounds` is 0 under
        /// [`tilt_sim::CoolingPolicy::never`].
        success: CooledSuccessReport,
    },
    /// QCCD: the primitive trace and its estimate.
    Qccd {
        /// The compiled split/shuttle/merge/gate trace.
        program: QccdProgram,
        /// The walk of that trace under the noise model.
        report: QccdReport,
    },
    /// ELU array: the partitioned compilation and its estimate.
    Scaled {
        /// Per-ELU LinQ outputs plus the partition and EPR count.
        program: ScaledProgram,
        /// The aggregate estimate.
        report: ScaleReport,
    },
}

/// Everything one engine run produces, in one backend-tagged shape.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which backend ran.
    pub backend: BackendKind,
    /// Normalized compile statistics.
    pub compile: CompileStats,
    /// Natural log of the success probability.
    pub ln_success: f64,
    /// Success probability (may underflow to 0 for deep circuits; use
    /// [`RunReport::log10_success`] for plotting).
    pub success: f64,
    /// Execution-time estimate in µs (Eq. 5 for TILT, including cooling
    /// time when a cooling policy is active; serial trace time for
    /// QCCD; makespan for ELU arrays).
    pub exec_time_us: f64,
    /// Outcome of simulating the logical circuit, when the session has
    /// a [`crate::SimMethod`] configured (`None` when simulation is
    /// off, the default).
    pub sim: Option<SimReport>,
    /// Static-verifier findings over the compiled artifacts. Empty
    /// unless the session enables verification
    /// ([`crate::VerifyLevel::Warn`] attaches findings here;
    /// [`crate::VerifyLevel::Strict`] additionally fails the run on
    /// error-severity ones, so strict reports are always clean).
    pub diagnostics: Vec<Diagnostic>,
    /// The backend-specific artifacts.
    pub detail: RunDetail,
}

impl RunReport {
    /// Base-10 log of the success probability.
    pub fn log10_success(&self) -> f64 {
        self.ln_success / std::f64::consts::LN_10
    }

    /// The LinQ output, when this was a TILT run.
    pub fn tilt_output(&self) -> Option<&CompileOutput> {
        match &self.detail {
            RunDetail::Tilt { output, .. } => Some(output),
            _ => None,
        }
    }

    /// The scheduled TILT program, when this was a TILT run.
    pub fn tilt_program(&self) -> Option<&TiltProgram> {
        self.tilt_output().map(|o| &o.program)
    }

    /// The TILT success estimate, when this was a TILT run.
    pub fn tilt_success(&self) -> Option<&CooledSuccessReport> {
        match &self.detail {
            RunDetail::Tilt { success, .. } => Some(success),
            _ => None,
        }
    }

    /// The QCCD trace estimate, when this was a QCCD run.
    pub fn qccd_report(&self) -> Option<&QccdReport> {
        match &self.detail {
            RunDetail::Qccd { report, .. } => Some(report),
            _ => None,
        }
    }

    /// The ELU-array estimate, when this was a scaled run.
    pub fn scale_report(&self) -> Option<&ScaleReport> {
        match &self.detail {
            RunDetail::Scaled { report, .. } => Some(report),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_renders_lowercase() {
        assert_eq!(BackendKind::Tilt.to_string(), "tilt");
        assert_eq!(BackendKind::Qccd.to_string(), "qccd");
        assert_eq!(BackendKind::Scaled.to_string(), "scaled");
    }
}
