//! Logical-circuit simulation riding along with compilation.
//!
//! A session can ask the engine to also *simulate* each input circuit
//! (the logical program, before decomposition and routing) and record
//! the measurement outcomes in the run report. Two simulators are
//! available, selected by [`SimMethod`]:
//!
//! * **Stabilizer** — the bit-packed tableau of `tilt-stabilizer`.
//!   Handles Clifford programs only, but scales to thousands of qubits
//!   (QEC syndrome-extraction territory). A non-Clifford gate is a
//!   structured [`TiltError::NonClifford`] naming the gate and its
//!   index.
//! * **Statevec** — the dense simulator of `tilt-statevec`, with
//!   sampled mid-circuit measurement. Any gate set, but capped at
//!   [`tilt_statevec::DEFAULT_MAX_QUBITS`] qubits.
//! * **Auto** — stabilizer when [`Circuit::is_clifford`] says the whole
//!   program qualifies, statevec otherwise.
//!
//! Simulation is deterministic per `(circuit, method, seed)`; both the
//! method and the seed are folded into the session's config
//! fingerprint, so cached run reports (which embed the [`SimReport`])
//! stay byte-identical to fresh ones.

use crate::error::TiltError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tilt_circuit::{Circuit, Gate};
use tilt_statevec::State;

/// Which simulator a session (or request) asks for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SimMethod {
    /// Pick per circuit: stabilizer for all-Clifford programs, dense
    /// state vector otherwise.
    #[default]
    Auto,
    /// Force the dense state-vector simulator.
    Statevec,
    /// Force the stabilizer tableau (non-Clifford programs error).
    Stabilizer,
}

impl SimMethod {
    /// Parses the wire/CLI spelling.
    pub fn parse(name: &str) -> Option<SimMethod> {
        [SimMethod::Auto, SimMethod::Statevec, SimMethod::Stabilizer]
            .into_iter()
            .find(|m| m.to_string() == name)
    }

    /// Stable tag for config fingerprinting.
    pub(crate) fn tag(self) -> u8 {
        match self {
            SimMethod::Auto => 0,
            SimMethod::Statevec => 1,
            SimMethod::Stabilizer => 2,
        }
    }
}

impl std::fmt::Display for SimMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimMethod::Auto => "auto",
            SimMethod::Statevec => "statevec",
            SimMethod::Stabilizer => "stabilizer",
        })
    }
}

/// Which simulator actually ran (the resolution of [`SimMethod::Auto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimulatorKind {
    /// Dense state vector.
    Statevec,
    /// Stabilizer tableau.
    Stabilizer,
}

impl SimulatorKind {
    /// Parses the spelling [`Display`](std::fmt::Display) writes.
    pub fn parse(name: &str) -> Option<SimulatorKind> {
        [SimulatorKind::Statevec, SimulatorKind::Stabilizer]
            .into_iter()
            .find(|s| s.to_string() == name)
    }
}

impl std::fmt::Display for SimulatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimulatorKind::Statevec => "statevec",
            SimulatorKind::Stabilizer => "stabilizer",
        })
    }
}

/// One shot of the logical circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// The simulator that ran.
    pub simulator: SimulatorKind,
    /// One `0`/`1` character per `measure` gate, in program order.
    pub bitstring: String,
    /// Number of `measure` gates executed.
    pub measurements: usize,
    /// Outcomes fixed by the state (stabilizer backend only).
    pub deterministic_measurements: Option<usize>,
    /// Fresh coin flips (stabilizer backend only).
    pub random_measurements: Option<usize>,
}

/// Runs `circuit` on the simulator `method` selects.
pub(crate) fn simulate(
    circuit: &Circuit,
    method: SimMethod,
    seed: u64,
) -> Result<SimReport, TiltError> {
    let resolved = match method {
        SimMethod::Auto => {
            if circuit.is_clifford() {
                SimulatorKind::Stabilizer
            } else {
                SimulatorKind::Statevec
            }
        }
        SimMethod::Statevec => SimulatorKind::Statevec,
        SimMethod::Stabilizer => SimulatorKind::Stabilizer,
    };
    match resolved {
        SimulatorKind::Stabilizer => {
            let run = tilt_stabilizer::run(circuit, seed).map_err(|e| TiltError::NonClifford {
                gate: e.gate,
                index: e.index,
            })?;
            Ok(SimReport {
                simulator: SimulatorKind::Stabilizer,
                measurements: run.outcomes.len(),
                deterministic_measurements: Some(run.deterministic_measurements),
                random_measurements: Some(run.random_measurements),
                bitstring: run.bitstring(),
            })
        }
        SimulatorKind::Statevec => {
            let state = State::try_zero(circuit.n_qubits()).map_err(|e| {
                let reason = match e {
                    tilt_statevec::StateError::TooManyQubits { n_qubits, cap } => format!(
                        "{n_qubits} qubits exceed the dense simulator's {cap}-qubit cap; \
                         Clifford programs can use the stabilizer method instead"
                    ),
                    other => other.to_string(),
                };
                TiltError::Simulation { reason }
            })?;
            let mut rng = SmallRng::seed_from_u64(seed);
            let (_, outcomes) = state.run_sampled(circuit, &mut rng);
            let measurements = circuit
                .iter()
                .filter(|g| matches!(g, Gate::Measure(_)))
                .count();
            debug_assert_eq!(outcomes.len(), measurements);
            Ok(SimReport {
                simulator: SimulatorKind::Statevec,
                bitstring: outcomes
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect(),
                measurements,
                deterministic_measurements: None,
                random_measurements: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::Qubit;

    #[test]
    fn method_spellings_round_trip() {
        for m in [SimMethod::Auto, SimMethod::Statevec, SimMethod::Stabilizer] {
            assert_eq!(SimMethod::parse(&m.to_string()), Some(m));
        }
        assert_eq!(SimMethod::parse("qpu9000"), None);
    }

    #[test]
    fn auto_picks_stabilizer_for_clifford_programs() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.measure(Qubit(0));
        c.measure(Qubit(1));
        let r = simulate(&c, SimMethod::Auto, 1).unwrap();
        assert_eq!(r.simulator, SimulatorKind::Stabilizer);
        assert_eq!(r.measurements, 2);
        assert_eq!(r.bitstring.len(), 2);
        // Bell pair: the two bits agree.
        let bits: Vec<char> = r.bitstring.chars().collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(r.random_measurements, Some(1));
    }

    #[test]
    fn auto_falls_back_to_statevec_for_non_clifford() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.t(Qubit(0));
        c.measure(Qubit(0));
        let r = simulate(&c, SimMethod::Auto, 1).unwrap();
        assert_eq!(r.simulator, SimulatorKind::Statevec);
        assert_eq!(r.measurements, 1);
        assert!(r.deterministic_measurements.is_none());
    }

    #[test]
    fn forced_stabilizer_rejects_non_clifford_with_position() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.t(Qubit(1));
        let err = simulate(&c, SimMethod::Stabilizer, 0).unwrap_err();
        match err {
            TiltError::NonClifford { gate, index } => {
                assert_eq!(index, 1);
                assert!(gate.contains('t'), "{gate}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn forced_statevec_respects_the_qubit_cap() {
        let c = Circuit::new(500);
        let err = simulate(&c, SimMethod::Statevec, 0).unwrap_err();
        assert!(matches!(err, TiltError::Simulation { .. }), "{err}");
        assert!(err.to_string().contains("stabilizer"), "{err}");
    }

    #[test]
    fn stabilizer_scales_where_statevec_cannot() {
        // 600-qubit GHZ + measure: trivially out of dense reach.
        let n = 600;
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        for i in 0..n {
            c.measure(Qubit(i));
        }
        let r = simulate(&c, SimMethod::Auto, 9).unwrap();
        assert_eq!(r.simulator, SimulatorKind::Stabilizer);
        assert_eq!(r.measurements, n);
        assert!(r
            .bitstring
            .chars()
            .all(|b| b == r.bitstring.chars().next().unwrap()));
    }

    #[test]
    fn same_seed_same_outcomes() {
        let mut c = Circuit::new(6);
        for i in 0..6 {
            c.h(Qubit(i));
            c.measure(Qubit(i));
        }
        for method in [SimMethod::Stabilizer, SimMethod::Statevec] {
            let a = simulate(&c, method, 5).unwrap();
            let b = simulate(&c, method, 5).unwrap();
            assert_eq!(a, b);
        }
    }
}
