//! The batch layer: many circuits through one session.
//!
//! Batch runs amortize everything the session already owns — validated
//! specs, router configuration, the models — and run each circuit in
//! turn on the calling thread, **in submission order**:
//!
//! * **Panic isolation.** A compile that panics costs exactly its own
//!   circuit's result, never the rest of the batch.
//! * **Bounded memory.** The callback variant observes circuit `i`
//!   before circuit `i + 1` starts compiling, so memory stays
//!   proportional to one circuit, not the batch.
//!
//! One thread keeps a batch on the path the benchmark measures (it times
//! one thread) and matches the paper's sequential greedy compiler. On a
//! multi-core host `tilt run --batch` therefore gets no multi-core
//! wall-clock speedup; its CPU time is the same.

use crate::{Engine, RunReport, TiltError};
use tilt_circuit::Circuit;

impl Engine {
    /// Runs every circuit through the session, returning one result per
    /// circuit **in submission order**.
    ///
    /// Individual failures (e.g. one circuit wider than the tape) do not
    /// abort the batch — each circuit gets its own `Result`.
    ///
    /// # Example
    ///
    /// ```
    /// use tilt_circuit::{Circuit, Qubit};
    /// use tilt_compiler::DeviceSpec;
    /// use tilt_engine::Engine;
    ///
    /// let engine = Engine::tilt(DeviceSpec::new(12, 4)?);
    /// let batch: Vec<Circuit> = (2..12)
    ///     .map(|k| {
    ///         let mut c = Circuit::new(12);
    ///         c.h(Qubit(0)).cnot(Qubit(0), Qubit(k));
    ///         c
    ///     })
    ///     .collect();
    /// let reports = engine.run_batch(batch);
    /// assert_eq!(reports.len(), 10);
    /// assert!(reports.iter().all(|r| r.is_ok()));
    /// # Ok::<(), tilt_engine::TiltError>(())
    /// ```
    pub fn run_batch(
        &self,
        circuits: impl IntoIterator<Item = Circuit>,
    ) -> Vec<Result<RunReport, TiltError>> {
        let mut reports = Vec::new();
        self.run_batch_streaming(circuits, |_, report| reports.push(report));
        reports
    }

    /// [`Engine::run_batch`], delivering each report to `sink` as soon
    /// as its circuit is done — still in submission order, with `index`
    /// counting from 0.
    ///
    /// Use this to render progress (one table row per circuit) or to
    /// aggregate over batches too large to hold every report in memory.
    pub fn run_batch_streaming<F>(&self, circuits: impl IntoIterator<Item = Circuit>, mut sink: F)
    where
        F: FnMut(usize, Result<RunReport, TiltError>),
    {
        for (index, circuit) in circuits.into_iter().enumerate() {
            // Panic isolation: a compile that panics must cost exactly
            // that circuit its result, not the rest of the batch.
            sink(index, crate::error::isolated(|| self.run(&circuit)));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, TiltError};
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::DeviceSpec;

    fn chain(n: usize, k: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1 + k % (n - 1)));
        c
    }

    #[test]
    fn batch_matches_single_runs_in_order() {
        let engine = Engine::tilt(DeviceSpec::new(12, 4).unwrap());
        let circuits: Vec<Circuit> = (1..40).map(|k| chain(12, k)).collect();
        let batch = engine.run_batch(circuits.clone());
        assert_eq!(batch.len(), circuits.len());
        for (c, b) in circuits.iter().zip(&batch) {
            let single = engine.run(c).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(
                single.tilt_program().unwrap(),
                b.tilt_program().unwrap(),
                "batch must be decision-identical to single runs"
            );
            assert_eq!(single.ln_success, b.ln_success);
            assert_eq!(single.exec_time_us, b.exec_time_us);
        }
    }

    #[test]
    fn one_bad_circuit_does_not_poison_the_batch() {
        let engine = Engine::tilt(DeviceSpec::new(8, 4).unwrap());
        let circuits = vec![chain(8, 3), Circuit::new(20), chain(8, 5)];
        let reports = engine.run_batch(circuits);
        assert!(reports[0].is_ok());
        assert!(matches!(reports[1], Err(TiltError::Compile(_))));
        assert!(reports[2].is_ok());
    }

    #[test]
    fn a_panicking_compile_is_isolated_to_its_slot() {
        // Width 37 is used by no other test in this crate, so the armed
        // plan cannot interfere with concurrently running tests.
        let guard = crate::faults::install(crate::faults::FaultPlan {
            panic_on_width: Some(37),
            ..Default::default()
        });
        let engine = Engine::tilt(DeviceSpec::new(40, 4).unwrap());
        let circuits = vec![chain(8, 1), chain(37, 2), chain(8, 3)];
        let reports = engine.run_batch(circuits);
        assert!(reports[0].is_ok(), "{:?}", reports[0]);
        assert!(
            matches!(&reports[1], Err(TiltError::Internal { message })
                if message.contains("injected fault")),
            "{:?}",
            reports[1]
        );
        assert!(reports[2].is_ok(), "the batch survives the panic");
        drop(guard);
        // The engine that panicked still compiles correctly afterwards.
        let again = engine.run_batch(vec![chain(37, 2)]);
        assert!(again[0].is_ok());
    }

    #[test]
    fn streaming_preserves_submission_order_across_windows() {
        let engine = Engine::tilt(DeviceSpec::new(10, 4).unwrap());
        let circuits: Vec<Circuit> = (0..100).map(|k| chain(10, 1 + k % 9)).collect();
        let mut seen = Vec::new();
        engine.run_batch_streaming(circuits, |i, r| {
            assert!(r.is_ok());
            seen.push(i);
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::tilt(DeviceSpec::new(8, 4).unwrap());
        assert!(engine.run_batch(Vec::new()).is_empty());
    }
}
