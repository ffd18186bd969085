//! The CPU time of the benchmark's process, read like `Instant`.
//!
//! Every time the benchmark reports is CPU time: what the process's
//! threads spent running, summed over them. On a host shared with
//! other tenants, wall time also holds the stretches in which another
//! process held the CPU and the delays before a blocked thread is run
//! again; those come and go with the neighbours, not with the program.
//! For the single-threaded workloads CPU time is the op's wall time on
//! an idle host. For `serve_mixed` it is the client's and the server's
//! work on one request, without the wake-ups between them.

use std::ops::Sub;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPU: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// A reading of the process's CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct CpuTime(Duration);

impl CpuTime {
    pub fn now() -> CpuTime {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a writable `struct timespec` (64-bit `time_t`
        // and `long`, as on every 64-bit Linux target).
        let rc = unsafe { clock_gettime(PROCESS_CPU, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is unavailable");
        CpuTime(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time spent since this reading.
    pub fn elapsed(&self) -> Duration {
        CpuTime::now() - *self
    }
}

impl Sub for CpuTime {
    type Output = Duration;

    fn sub(self, earlier: CpuTime) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_not_with_sleep() {
        let t = CpuTime::now();
        std::thread::sleep(Duration::from_millis(50));
        assert!(t.elapsed() < Duration::from_millis(25));
        let t = CpuTime::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
