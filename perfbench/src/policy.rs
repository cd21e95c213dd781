//! A timing wrapper around the boxed policy handed to an engine.
//!
//! The engine calls `schedule` once per tick; the wrapper times that call
//! and, separately, a call of the public `validate_decision` on the same
//! decision (the check the engine itself applies, which cannot be timed
//! from outside the engine). Every other trait method forwards, so a
//! wrapped run is bit-identical to an unwrapped one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vsched_core::sched::{validate_decision, PolicyState, ViewFields};
use vsched_core::{PcpuView, ScheduleDecision, SchedulingPolicy, VcpuView};

/// Counters shared between a [`TimedPolicy`] and the code that reads them.
/// Relaxed ordering: they publish no other data.
#[derive(Debug, Default)]
pub struct PolicyClock {
    calls: AtomicU64,
    sched_ns: AtomicU64,
    validate_ns: AtomicU64,
}

/// A point-in-time copy of a [`PolicyClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockReading {
    /// `schedule` calls.
    pub calls: u64,
    /// Time inside the wrapped policy's `schedule`, ns.
    pub sched_ns: u64,
    /// Time inside `validate_decision`, ns.
    pub validate_ns: u64,
}

impl ClockReading {
    /// Component-wise difference `self - earlier`.
    #[must_use]
    pub fn since(self, earlier: ClockReading) -> ClockReading {
        ClockReading {
            calls: self.calls - earlier.calls,
            sched_ns: self.sched_ns - earlier.sched_ns,
            validate_ns: self.validate_ns - earlier.validate_ns,
        }
    }
}

impl PolicyClock {
    /// Reads the counters.
    #[must_use]
    pub fn read(&self) -> ClockReading {
        ClockReading {
            calls: self.calls.load(Ordering::Relaxed),
            sched_ns: self.sched_ns.load(Ordering::Relaxed),
            validate_ns: self.validate_ns.load(Ordering::Relaxed),
        }
    }
}

/// Wraps a policy and times each decision.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    clock: Arc<PolicyClock>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned clock observes every call.
    #[must_use]
    pub fn wrap(inner: Box<dyn SchedulingPolicy>) -> (Box<dyn SchedulingPolicy>, Arc<PolicyClock>) {
        let clock = Arc::new(PolicyClock::default());
        let policy = TimedPolicy {
            inner,
            clock: Arc::clone(&clock),
        };
        (Box::new(policy), clock)
    }
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        let t0 = Instant::now();
        let decision = self
            .inner
            .schedule(vcpus, pcpus, timestamp, default_timeslice);
        let sched = elapsed_ns(t0);
        let t1 = Instant::now();
        // The engine rejects an invalid decision itself; only the cost of
        // the check matters here.
        let _ = std::hint::black_box(validate_decision(
            self.inner.name(),
            vcpus,
            pcpus,
            &decision,
        ));
        let validate = elapsed_ns(t1);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock.sched_ns.fetch_add(sched, Ordering::Relaxed);
        self.clock
            .validate_ns
            .fetch_add(validate, Ordering::Relaxed);
        decision
    }

    fn snapshot_view(&self) -> ViewFields {
        self.inner.snapshot_view()
    }

    fn save_state(&self) -> Option<PolicyState> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        self.inner.load_state(state)
    }

    fn rotation_equivariant(&self) -> bool {
        self.inner.rotation_equivariant()
    }
}
