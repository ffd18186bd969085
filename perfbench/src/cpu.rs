//! Spreads a run's jobs evenly over the CPUs the process may use.
//!
//! On a small virtual machine one CPU can run markedly slower than
//! another for seconds to minutes (a busy neighbour on its host core).
//! Left to the scheduler, a single-threaded run may spend all of its
//! time on either one, so whole runs land in different speed modes, and
//! a thread moved between CPUs mid-job finds its caches cold. Pinning
//! each job, with the calibrations on both sides of it, to the next
//! allowed CPU in turn gives every run the same mixture and pairs every
//! job with calibrations taken on its own CPU. With one allowed CPU
//! this does nothing.

use std::cell::Cell;
use std::os::raw::{c_int, c_ulong};
use std::sync::OnceLock;

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;
const BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The CPUs the process could use before any thread was pinned.
static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();

thread_local! {
    /// How many times this thread was pinned.
    static TURN: Cell<usize> = const { Cell::new(0) };
}

fn allowed() -> &'static [usize] {
    ALLOWED.get_or_init(|| {
        let mut mask = [0 as c_ulong; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..WORDS * BITS)
            .filter(|&c| mask[c / BITS] >> (c % BITS) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread to `cpus`. A failure leaves the
/// affinity unchanged, which only forgoes the spreading.
fn set(cpus: &[usize]) {
    let mut mask = [0 as c_ulong; WORDS];
    for &cpu in cpus {
        mask[cpu / BITS] |= 1 << (cpu % BITS);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Pins the calling thread to the next CPU the process was allowed to
/// use.
pub fn advance() {
    let cpus = allowed();
    if cpus.len() < 2 {
        return;
    }
    let turn = TURN.with(|t| t.replace(t.get() + 1));
    set(&[cpus[turn % cpus.len()]]);
}

/// Lets the calling thread run on every CPU the process was allowed to
/// use again. A thread spawned by a pinned one inherits its pin; the
/// serve workload's server thread calls this first, so that it and the
/// client are placed by the scheduler as they would be in deployment.
pub fn release() {
    let cpus = allowed();
    if cpus.len() >= 2 {
        set(cpus);
    }
}
