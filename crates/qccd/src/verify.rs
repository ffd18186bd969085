//! Static verification of QCCD primitive traces.
//!
//! The QCCD rule pack of the program-invariant verifier (see
//! `tilt_compiler::verify` for the rule engine and diagnostic format).
//! The estimator replays the recorded chain lengths to model heating,
//! so a trace whose lengths exceed the trap capacity — or whose
//! shuttles jump between non-adjacent traps — would be silently
//! mis-scored rather than rejected.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `qccd/trap-index` | every primitive references traps inside the array |
//! | `qccd/trap-capacity` | recorded chain lengths never exceed the trap capacity; intra-trap moves and gate distances fit inside their chain |
//! | `qccd/shuttle-route` | every transport is a well-formed split → adjacent-segment shuttle → merge sequence, and nothing else executes mid-flight |

use crate::program::{QccdOp, QccdProgram};
use crate::spec::QccdSpec;
use tilt_compiler::verify::Diagnostic;

/// Runs the QCCD rule pack over one compiled trace.
pub fn verify_qccd(program: &QccdProgram) -> Vec<Diagnostic> {
    let mut verifier = QccdVerifier::new(program.spec());
    verifier.push(program.ops());
    verifier.finish()
}

/// The QCCD rule pack as a fold over the primitive trace, as it is
/// routed; [`verify_qccd`] drives it over a whole program. Findings come
/// out in trace order.
#[derive(Clone, Debug)]
pub struct QccdVerifier {
    n_traps: usize,
    capacity: usize,
    /// In-flight ion position for the shuttle state machine; `None`
    /// between transports.
    in_flight: Option<usize>,
    ops_seen: usize,
    diags: Vec<Diagnostic>,
}

impl QccdVerifier {
    /// A verifier for a trace on `spec`.
    pub fn new(spec: &QccdSpec) -> Self {
        QccdVerifier {
            n_traps: spec.n_traps(),
            capacity: spec.capacity(),
            in_flight: None,
            ops_seen: 0,
            diags: Vec::new(),
        }
    }

    /// Checks the next primitives of the trace.
    pub fn push(&mut self, ops: &[QccdOp]) {
        const ROUTE: &str = "qccd/shuttle-route";
        let (n_traps, cap) = (self.n_traps, self.capacity);
        for op in ops {
            let i = self.ops_seen;
            self.ops_seen += 1;
            let mut flag = |rule, message: String| {
                self.diags.push(Diagnostic::error(rule, i, message));
            };
            // The op's name, the traps it names, and its capacity finding.
            let (what, traps, capacity) = match *op {
                QccdOp::EdgeMove {
                    trap,
                    sites,
                    chain_len,
                } => {
                    let finding = if chain_len > cap {
                        Some(format!(
                            "edge move records a {chain_len}-ion chain in trap {trap}, over \
                             the {cap}-ion capacity"
                        ))
                    } else {
                        (sites >= chain_len).then(|| {
                            format!("edge move of {sites} sites cannot fit a {chain_len}-ion chain")
                        })
                    };
                    ("edge move", [Some(trap), None], finding)
                }
                QccdOp::Split {
                    trap,
                    chain_len_before: n,
                } => {
                    let finding = (n == 0 || n > cap).then(|| {
                        format!("split records a {n}-ion chain in trap {trap}, outside 1..={cap}")
                    });
                    ("split", [Some(trap), None], finding)
                }
                QccdOp::ShuttleSegment { from, to } => {
                    ("shuttle segment", [Some(from), Some(to)], None)
                }
                QccdOp::Merge {
                    trap,
                    chain_len_after: n,
                } => {
                    let finding = (n == 0 || n > cap)
                        .then(|| format!("merge grows trap {trap} to {n} ions, outside 1..={cap}"));
                    ("merge", [Some(trap), None], finding)
                }
                QccdOp::TwoQubitGate { trap, distance } => {
                    let finding = (distance == 0 || distance >= cap).then(|| {
                        format!("two-qubit gate at distance {distance} cannot fit a {cap}-ion trap")
                    });
                    ("two-qubit gate", [Some(trap), None], finding)
                }
                QccdOp::SingleQubitGate { trap } | QccdOp::Measure { trap } => {
                    ("gate", [Some(trap), None], None)
                }
            };
            for t in traps.into_iter().flatten().filter(|&t| t >= n_traps) {
                flag(
                    "qccd/trap-index",
                    format!("{what} references trap {t}, outside the {n_traps}-trap array"),
                );
            }
            if let Some(message) = capacity {
                flag("qccd/trap-capacity", message);
            }
            // The split → segment → merge state machine; a segment
            // resyncs to its destination so one corruption yields one
            // finding, not a cascade.
            match *op {
                QccdOp::Split { trap, .. } => {
                    let previous = self.in_flight.replace(trap);
                    if previous.is_some() {
                        let message = "split issued while another ion is already in transit";
                        flag(ROUTE, message.into());
                    }
                }
                QccdOp::ShuttleSegment { from, to } => {
                    if from.abs_diff(to) != 1 {
                        let message =
                            format!("shuttle segment {from}→{to} skips over non-adjacent traps");
                        flag(ROUTE, message);
                    }
                    match self.in_flight.replace(to) {
                        Some(at) if at == from => {}
                        Some(at) => flag(
                            ROUTE,
                            format!(
                                "shuttle segment departs trap {from} but the ion is at trap {at}"
                            ),
                        ),
                        None => flag(ROUTE, "shuttle segment with no split ion in transit".into()),
                    }
                }
                QccdOp::Merge { trap, .. } => match self.in_flight.take() {
                    Some(at) if at == trap => {}
                    Some(at) => flag(
                        ROUTE,
                        format!("merge into trap {trap} but the ion is at trap {at}"),
                    ),
                    None => flag(ROUTE, "merge with no split ion in transit".into()),
                },
                QccdOp::EdgeMove { .. } => {}
                _ if self.in_flight.is_some() => {
                    flag(ROUTE, format!("{what} executed while an ion is in transit"));
                }
                _ => {}
            }
        }
    }

    /// Ends the trace and reports every finding.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        if self.in_flight.is_some() {
            self.diags.push(Diagnostic::error(
                "qccd/shuttle-route",
                self.ops_seen,
                "trace ends with an ion split off and never merged".into(),
            ));
        }
        self.diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::compile_qccd;
    use tilt_circuit::{Circuit, Qubit};

    fn traced() -> QccdProgram {
        let spec = QccdSpec::for_qubits(32, 9).unwrap();
        let mut c = Circuit::new(32);
        for i in 0..31 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        c.cnot(Qubit(0), Qubit(31));
        compile_qccd(&c, &spec).unwrap()
    }

    #[test]
    fn clean_trace_verifies_clean() {
        assert_eq!(verify_qccd(&traced()), Vec::new());
    }

    #[test]
    fn out_of_array_trap_is_diagnosed() {
        let p = traced();
        let spec = *p.spec();
        let mut ops = p.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, QccdOp::TwoQubitGate { .. }))
            .unwrap();
        ops[idx] = QccdOp::TwoQubitGate {
            trap: spec.n_traps(),
            distance: 1,
        };
        let diags = verify_qccd(&QccdProgram::new(spec, ops));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "qccd/trap-index" && d.op_index == idx),
            "{diags:?}"
        );
    }

    #[test]
    fn overfull_merge_is_diagnosed() {
        let p = traced();
        let spec = *p.spec();
        let mut ops = p.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, QccdOp::Merge { .. }))
            .expect("wrap-around CNOT forces a transport");
        if let QccdOp::Merge {
            chain_len_after, ..
        } = &mut ops[idx]
        {
            *chain_len_after = spec.capacity() + 1;
        }
        let diags = verify_qccd(&QccdProgram::new(spec, ops));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "qccd/trap-capacity" && d.op_index == idx),
            "{diags:?}"
        );
    }

    #[test]
    fn teleporting_shuttle_is_diagnosed() {
        let p = traced();
        let spec = *p.spec();
        let mut ops = p.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, QccdOp::ShuttleSegment { .. }))
            .unwrap();
        if let QccdOp::ShuttleSegment { from, to } = ops[idx] {
            ops[idx] = QccdOp::ShuttleSegment {
                from,
                to: if to + 2 < spec.n_traps() { to + 2 } else { 0 },
            };
        }
        let diags = verify_qccd(&QccdProgram::new(spec, ops));
        assert!(
            diags.iter().any(|d| d.rule == "qccd/shuttle-route"),
            "{diags:?}"
        );
    }

    #[test]
    fn dangling_split_is_diagnosed() {
        let spec = QccdSpec::new(2, 6).unwrap();
        let ops = vec![QccdOp::Split {
            trap: 0,
            chain_len_before: 3,
        }];
        let diags = verify_qccd(&QccdProgram::new(spec, ops));
        assert!(
            diags.iter().any(|d| d.message.contains("never merged")),
            "{diags:?}"
        );
    }
}
