//! Fault injection for the chaos tests and the CI chaos smoke.
//!
//! A [`FaultPlan`] arms process-global failure seams threaded through
//! the engine behind `#[cfg(any(test, feature = "faults"))]`: compile
//! panics keyed by circuit width or compile index, artificial compile
//! latency, snapshot write errors / partial writes, and snapshot line
//! corruption. Production builds (no `faults` feature, not `cfg(test)`)
//! do not compile this module or any call into it.
//!
//! Plans are installed with [`install`], which also serializes fault
//! tests: the returned [`FaultGuard`] holds a process-wide lock so two
//! concurrent `#[test]`s can never see each other's plan, and dropping
//! it disarms every seam. The CLI (built with `--features faults`)
//! installs a plan from the `TILT_FAULT_PLAN` environment variable and
//! leaks the guard for the life of the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which faults to inject; every field defaults to "off".
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Panic inside the compile path for any circuit with exactly this
    /// register width. Width-keyed injection is deterministic under the
    /// batch pool's work stealing, unlike a compile counter.
    pub panic_on_width: Option<usize>,
    /// Panic inside the compile path on the `n`-th compile (0-based,
    /// counted across the process since [`install`]).
    pub panic_at_compile: Option<u64>,
    /// Sleep this long inside every compile.
    pub compile_delay_us: u64,
    /// Fail [`CompileCache::save`](crate::CompileCache::save) before it
    /// writes anything.
    pub snapshot_write_error: bool,
    /// Make `save` write only the first `n` bytes of the snapshot to
    /// the temporary file, then fail — a simulated crash mid-write.
    pub snapshot_truncate_bytes: Option<usize>,
    /// Corrupt (bit-flip) this 0-based line of the snapshot text as it
    /// is saved.
    pub snapshot_corrupt_line: Option<usize>,
    /// Panic once inside the cache's locked critical section, genuinely
    /// poisoning its mutex.
    pub cache_insert_panic: bool,
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static TEST_SERIAL: Mutex<()> = Mutex::new(());
static COMPILES: AtomicU64 = AtomicU64::new(0);
static CACHE_PANICS: AtomicU64 = AtomicU64::new(0);

fn plan_lock() -> MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan` for the whole process until the guard drops. Tests using
/// faults are serialized through the guard's lock (a panicking fault
/// test poisons nothing: poisoned guards are recovered).
pub fn install(plan: FaultPlan) -> FaultGuard {
    let serial = TEST_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    COMPILES.store(0, Ordering::SeqCst);
    CACHE_PANICS.store(0, Ordering::SeqCst);
    *plan_lock() = Some(plan);
    FaultGuard { _serial: serial }
}

/// Parses a `TILT_FAULT_PLAN`-style spec: comma-separated `key=value`
/// pairs over the [`FaultPlan`] fields, e.g.
/// `panic_on_width=3,compile_delay_us=2000,snapshot_write_error=1`.
pub fn parse_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
        let n: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("fault value `{value}` is not an integer"))?;
        match key.trim() {
            "panic_on_width" => plan.panic_on_width = Some(n as usize),
            "panic_at_compile" => plan.panic_at_compile = Some(n),
            "compile_delay_us" => plan.compile_delay_us = n,
            "snapshot_write_error" => plan.snapshot_write_error = n != 0,
            "snapshot_truncate_bytes" => plan.snapshot_truncate_bytes = Some(n as usize),
            "snapshot_corrupt_line" => plan.snapshot_corrupt_line = Some(n as usize),
            "cache_insert_panic" => plan.cache_insert_panic = n != 0,
            other => return Err(format!("unknown fault key `{other}`")),
        }
    }
    Ok(plan)
}

/// Disarms the plan on drop; holding it serializes fault-using tests.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *plan_lock() = None;
    }
}

/// The compile-path seam: called once per compile with the
/// circuit's register width. Applies latency, then panics when armed
/// for this width or this compile index.
pub(crate) fn before_compile(width: usize) {
    let Some(plan) = plan_lock().clone() else {
        return;
    };
    if plan.compile_delay_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(plan.compile_delay_us));
    }
    let index = COMPILES.fetch_add(1, Ordering::SeqCst);
    if plan.panic_on_width == Some(width) {
        panic!("injected fault: compile panic on width {width}");
    }
    if plan.panic_at_compile == Some(index) {
        panic!("injected fault: compile panic at index {index}");
    }
}

/// The cache critical-section seam: called while the cache mutex is
/// held, so the armed panic genuinely poisons it. Fires once per
/// installed plan.
pub(crate) fn cache_insert_seam() {
    let armed = plan_lock().as_ref().is_some_and(|p| p.cache_insert_panic);
    if armed && CACHE_PANICS.fetch_add(1, Ordering::SeqCst) == 0 {
        panic!("injected fault: panic inside the cache critical section");
    }
}

/// The snapshot-save seam: may corrupt the rendered text in place,
/// simulate a crash mid-write by writing a truncated temporary file and
/// failing, or fail outright before writing anything.
pub(crate) fn snapshot_save_seam(tmp: &std::path::Path, text: &mut String) -> std::io::Result<()> {
    let Some(plan) = plan_lock().clone() else {
        return Ok(());
    };
    if plan.snapshot_write_error {
        return Err(std::io::Error::other(
            "injected fault: snapshot write error",
        ));
    }
    if let Some(line) = plan.snapshot_corrupt_line {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if let Some(l) = lines.get_mut(line) {
            // Flip a byte in the middle of the line; the per-line check
            // digest must catch it on reload.
            let mid = l.len() / 2;
            let mut bytes = l.clone().into_bytes();
            bytes[mid] ^= 0x01;
            *l = String::from_utf8_lossy(&bytes).into_owned();
            *text = lines.join("\n");
            text.push('\n');
        }
    }
    if let Some(n) = plan.snapshot_truncate_bytes {
        let cut = n.min(text.len());
        std::fs::write(tmp, &text.as_bytes()[..cut])?;
        return Err(std::io::Error::other(
            "injected fault: crash after partial snapshot write",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_spec_round_trips_and_rejects_garbage() {
        let plan =
            parse_plan("panic_on_width=3, compile_delay_us=250,snapshot_write_error=1").unwrap();
        assert_eq!(plan.panic_on_width, Some(3));
        assert_eq!(plan.compile_delay_us, 250);
        assert!(plan.snapshot_write_error);
        assert!(plan.panic_at_compile.is_none());
        assert!(parse_plan("wat=1").is_err());
        assert!(parse_plan("panic_on_width").is_err());
        assert!(parse_plan("compile_delay_us=soon").is_err());
        assert!(parse_plan("").unwrap().panic_on_width.is_none());
    }

    #[test]
    fn seams_are_inert_without_a_plan() {
        before_compile(4);
        cache_insert_seam();
        let mut text = String::from("line\n");
        snapshot_save_seam(std::path::Path::new("/nonexistent/tmp"), &mut text).unwrap();
        assert_eq!(text, "line\n");
    }

    #[test]
    fn width_keyed_panic_fires_only_for_its_width() {
        let _guard = install(FaultPlan {
            panic_on_width: Some(37),
            ..FaultPlan::default()
        });
        before_compile(4);
        let caught = std::panic::catch_unwind(|| before_compile(37));
        assert!(caught.is_err(), "width 37 must panic");
        before_compile(6);
    }
}
