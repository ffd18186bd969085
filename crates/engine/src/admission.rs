//! Admission control: a global in-flight budget with load shedding.
//!
//! Each `tilt serve` loop answers one request at a time, but nothing
//! bounds the *aggregate* across loops — many TCP connections at once
//! could pile up compiles and bytes without limit. An
//! [`AdmissionControl`] is one process-wide budget shared by every
//! service loop: each compiling run request holds an [`AdmissionPermit`]
//! (one request slot plus its line's bytes) from admission until its
//! response is written, so a loop holds at most one permit at a time.
//! A request that would exceed either bound is
//! **shed immediately** with a structured
//! `{"error":{"kind":"overloaded","retry_after_ms":N}}` response —
//! bounded latency for everything admitted, an explicit retry signal
//! for everything not, and never an unbounded queue.
//!
//! Permits are RAII over atomics: admission is one compare-and-swap
//! loop, release is two atomic subs, and no lock is shared with the
//! compile path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared in-flight budget (requests and line bytes).
#[derive(Debug)]
pub struct AdmissionControl {
    max_requests: usize,
    max_bytes: usize,
    in_flight: AtomicUsize,
    in_flight_bytes: AtomicUsize,
    shed: AtomicU64,
}

/// Counter snapshot of an [`AdmissionControl`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Requests currently holding a permit.
    pub in_flight: usize,
    /// Bytes currently held by permits.
    pub in_flight_bytes: usize,
    /// Requests shed because a bound was exceeded.
    pub shed: u64,
}

impl AdmissionControl {
    /// A budget of `max_requests` in-flight requests and `max_bytes`
    /// in-flight request bytes (each with a floor of 1).
    pub fn new(max_requests: usize, max_bytes: usize) -> AdmissionControl {
        AdmissionControl {
            max_requests: max_requests.max(1),
            max_bytes: max_bytes.max(1),
            in_flight: AtomicUsize::new(0),
            in_flight_bytes: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The request bound.
    pub fn max_requests(&self) -> usize {
        self.max_requests
    }

    /// Tries to admit one request of `bytes` wire bytes. `Ok` carries
    /// the permit keeping the budget reserved until dropped; `Err`
    /// carries the `retry_after_ms` hint to send with the shed
    /// response.
    pub fn try_admit(self: &Arc<Self>, bytes: usize) -> Result<AdmissionPermit, u64> {
        let mut held = self.in_flight.load(Ordering::Relaxed);
        loop {
            if held >= self.max_requests {
                return Err(self.shed_with_hint());
            }
            match self.in_flight.compare_exchange_weak(
                held,
                held + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => held = actual,
            }
        }
        // The byte bound tolerates one oversized straggler (the add
        // happens before the check) — a DoS bound, not an accountant;
        // the request-count reservation above is already exact.
        let prior = self.in_flight_bytes.fetch_add(bytes, Ordering::AcqRel);
        if prior > 0 && prior + bytes > self.max_bytes {
            self.in_flight_bytes.fetch_sub(bytes, Ordering::AcqRel);
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(self.shed_with_hint());
        }
        Ok(AdmissionPermit {
            control: Arc::clone(self),
            bytes,
        })
    }

    fn shed_with_hint(&self) -> u64 {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.retry_after_ms()
    }

    /// The backoff hint sent with shed responses: scales with how far
    /// over budget the instant load is, clamped to [25, 1000] ms.
    /// Advisory — see the README's overload-semantics section for the
    /// client contract (exponential backoff with jitter on repeat).
    pub fn retry_after_ms(&self) -> u64 {
        let held = self.in_flight.load(Ordering::Relaxed);
        let over = held.saturating_mul(50) / self.max_requests;
        (over as u64).clamp(25, 1000)
    }

    /// Current counters.
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            in_flight_bytes: self.in_flight_bytes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// One admitted request's reservation; dropping it releases the budget.
#[derive(Debug)]
pub struct AdmissionPermit {
    control: Arc<AdmissionControl>,
    bytes: usize,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.control
            .in_flight_bytes
            .fetch_sub(self.bytes, Ordering::AcqRel);
        self.control.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_admits_up_to_the_bound_then_sheds() {
        let ctl = Arc::new(AdmissionControl::new(2, 1 << 20));
        let a = ctl.try_admit(100).unwrap();
        let b = ctl.try_admit(100).unwrap();
        let retry = ctl.try_admit(100).unwrap_err();
        assert!((25..=1000).contains(&retry));
        assert_eq!(ctl.counters().shed, 1);
        assert_eq!(ctl.counters().in_flight, 2);
        drop(a);
        let _c = ctl.try_admit(100).unwrap();
        drop(b);
        assert_eq!(ctl.counters().in_flight, 1);
        assert_eq!(ctl.counters().in_flight_bytes, 100);
    }

    #[test]
    fn byte_budget_sheds_but_admits_one_oversized_straggler() {
        let ctl = Arc::new(AdmissionControl::new(100, 1000));
        // An empty budget admits even an over-budget single request —
        // otherwise a giant request could never run at all.
        let big = ctl.try_admit(5000).unwrap();
        assert!(ctl.try_admit(10).is_err(), "bytes exhausted");
        drop(big);
        let a = ctl.try_admit(600).unwrap();
        assert!(ctl.try_admit(600).is_err());
        assert_eq!(ctl.counters().shed, 2);
        drop(a);
        assert_eq!(ctl.counters().in_flight_bytes, 0);
    }

    #[test]
    fn permits_release_across_threads() {
        let ctl = Arc::new(AdmissionControl::new(4, 1 << 20));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ctl = Arc::clone(&ctl);
                std::thread::spawn(move || ctl.try_admit(10).is_ok())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctl.counters().in_flight, 0, "all permits released");
        assert_eq!(ctl.counters().in_flight_bytes, 0);
    }
}
