//! Traced replications: the benchmark's own replication loop over the
//! engines' public API, with a span at every call it makes.
//!
//! [`replication`] mirrors `ExperimentBuilder::run_replication` (static
//! model) and `TraceExperiment::run_replication` (churn trace) step for
//! step, so its metrics must equal theirs bit for bit; the workloads check
//! that. Span names:
//!
//! * `exec.rep` — one replication;
//! * `core.build.direct` / `core.build.san` — engine construction;
//! * `core.direct.run` / `core.san.run` — one `run(ticks)` call, whose
//!   self time excludes its `core.sched` / `core.validate` aggregates;
//! * `trace.boundary.direct` / `trace.boundary.san` — applying one
//!   boundary's trace events.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vsched_core::direct::DirectSim;
use vsched_core::san_model::SanSystem;
use vsched_core::{CoreError, Engine, PolicyKind, SampleMetrics, SystemConfig};
use vsched_trace::{TraceAction, TraceSchedule, FULL_LEVEL};

use crate::measure::{self, SpanTotals, Tracer};
use crate::policy::{PolicyClock, TimedPolicy};

/// Work counters summed over every traced replication of a run.
/// Relaxed ordering: plain statistics.
#[derive(Debug, Default)]
pub struct Work {
    /// VCPU-ticks simulated on DirectSim.
    pub direct_vcpu_ticks: AtomicU64,
    /// VCPU-ticks simulated on the SAN engine.
    pub san_vcpu_ticks: AtomicU64,
    /// SAN activity completions (`Simulator::stats`).
    pub san_completions: AtomicU64,
    /// SAN aborted activations (`Simulator::stats`).
    pub san_aborts: AtomicU64,
    /// Trace segment boundaries crossed.
    pub boundaries: AtomicU64,
}

impl Work {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    #[must_use]
    pub fn get(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64
    }
}

enum Sim {
    Direct(Box<DirectSim>),
    San(Box<SanSystem>),
}

impl Sim {
    fn run(&mut self, ticks: u64) -> Result<(), CoreError> {
        match self {
            Sim::Direct(sim) => sim.run(ticks),
            Sim::San(sys) => sys.run(ticks),
        }
    }

    fn reset_metrics(&mut self) {
        match self {
            Sim::Direct(sim) => sim.reset_metrics(),
            Sim::San(sys) => sys.reset_metrics(),
        }
    }

    fn set_admitted(&mut self, vm: usize, admitted: bool) {
        match self {
            Sim::Direct(sim) => sim.set_admitted(vm, admitted),
            Sim::San(sys) => sys.set_admitted(vm, admitted),
        }
    }

    fn set_load_level(&mut self, vm: usize, level: u32) {
        match self {
            Sim::Direct(sim) => sim.set_load_level(vm, level),
            Sim::San(sys) => sys.set_load_level(vm, level),
        }
    }

    fn metrics(&self) -> SampleMetrics {
        match self {
            Sim::Direct(sim) => sim.metrics(),
            Sim::San(sys) => sys.metrics(),
        }
    }
}

/// One replication's inputs.
#[derive(Debug, Clone, Copy)]
pub struct RepSpec<'a> {
    /// The machine (a trace's union topology for churn runs).
    pub config: &'a SystemConfig,
    /// The policy under test.
    pub policy: &'a PolicyKind,
    /// Which engine runs it.
    pub engine: Engine,
    /// Seed of this replication (base seed + index).
    pub seed: u64,
    /// Warm-up ticks.
    pub warmup: u64,
    /// Measured ticks.
    pub horizon: u64,
    /// The churn trace, or `None` for a static model.
    pub schedule: Option<&'a TraceSchedule>,
}

struct Traced<'a> {
    tracer: &'a Tracer,
    rep: u64,
    clock: std::sync::Arc<PolicyClock>,
    run_name: &'static str,
    boundary_name: &'static str,
}

impl Traced<'_> {
    fn run(&self, sim: &mut Sim, ticks: u64) -> Result<(), CoreError> {
        let span = self.tracer.open(self.run_name, self.rep);
        let id = span.id();
        let before = self.clock.read();
        let from = Instant::now();
        let out = sim.run(ticks);
        let d = self.clock.read().since(before);
        self.tracer
            .aggregate("core.sched", id, from, d.sched_ns, d.calls);
        self.tracer
            .aggregate("core.validate", id, from, d.validate_ns, d.calls);
        self.tracer.end(span);
        out
    }
}

/// Runs one replication with a span at every engine call.
///
/// # Errors
///
/// Engine errors, as the program's own replication would return them.
pub fn replication(
    tracer: &Tracer,
    parent: u64,
    spec: RepSpec<'_>,
    work: &Work,
) -> Result<SampleMetrics, CoreError> {
    let rep = tracer.open("exec.rep", parent);
    let (policy, clock) = TimedPolicy::wrap(spec.policy.create());
    let config = spec.config.clone();
    let (build_name, run_name, boundary_name) = match spec.engine {
        Engine::Direct => (
            "core.build.direct",
            "core.direct.run",
            "trace.boundary.direct",
        ),
        Engine::San => ("core.build.san", "core.san.run", "trace.boundary.san"),
    };
    let build = tracer.open(build_name, rep.id());
    let built = match (spec.engine, spec.schedule) {
        (Engine::Direct, _) => Ok(Sim::Direct(Box::new(DirectSim::new(
            config, policy, spec.seed,
        )))),
        (Engine::San, None) => {
            SanSystem::new(config, policy, spec.seed).map(|s| Sim::San(Box::new(s)))
        }
        (Engine::San, Some(_)) => {
            SanSystem::new_dynamic(config, policy, spec.seed).map(|s| Sim::San(Box::new(s)))
        }
    };
    tracer.end(build);
    let mut sim = built?;
    let t = Traced {
        tracer,
        rep: rep.id(),
        clock,
        run_name,
        boundary_name,
    };
    let result = match spec.schedule {
        None => {
            t.run(&mut sim, spec.warmup)?;
            sim.reset_metrics();
            t.run(&mut sim, spec.horizon)?;
            Ok(sim.metrics())
        }
        Some(schedule) => replay(&t, &mut sim, schedule, spec, work),
    };
    let vcpu_ticks = spec.config.total_vcpus() as u64 * (spec.warmup + spec.horizon);
    match &sim {
        Sim::Direct(_) => Work::add(&work.direct_vcpu_ticks, vcpu_ticks),
        Sim::San(sys) => {
            let stats = sys.simulator().stats();
            Work::add(&work.san_vcpu_ticks, vcpu_ticks);
            Work::add(&work.san_completions, stats.completions);
            Work::add(&work.san_aborts, stats.aborts);
        }
    }
    tracer.end(rep);
    result
}

/// The segmented trace replay of `TraceExperiment::run_replication`.
fn replay(
    t: &Traced<'_>,
    sim: &mut Sim,
    schedule: &TraceSchedule,
    spec: RepSpec<'_>,
    work: &Work,
) -> Result<SampleMetrics, CoreError> {
    for (vm, &present) in schedule.initially_present().iter().enumerate() {
        if !present {
            sim.set_admitted(vm, false);
        }
    }
    for (vm, &level) in schedule.initial_levels().iter().enumerate() {
        if level != FULL_LEVEL {
            sim.set_load_level(vm, level);
        }
    }
    let total = spec.warmup + spec.horizon;
    let events = schedule.events();
    let mut boundaries: Vec<u64> = events
        .iter()
        .map(|e| e.time)
        .filter(|&time| time < total)
        .collect();
    if spec.warmup > 0 {
        boundaries.push(spec.warmup);
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    Work::add(&work.boundaries, boundaries.len() as u64);

    let mut now = 0u64;
    let mut next_event = 0usize;
    for b in boundaries {
        t.run(sim, b - now)?;
        now = b;
        let span = t.tracer.open(t.boundary_name, t.rep);
        if b == spec.warmup {
            sim.reset_metrics();
        }
        while next_event < events.len() && events[next_event].time == b {
            let e = events[next_event];
            match e.action {
                TraceAction::Admit => sim.set_admitted(e.vm, true),
                TraceAction::Retire => sim.set_admitted(e.vm, false),
                TraceAction::SetLoad(level) => sim.set_load_level(e.vm, level),
            }
            next_event += 1;
        }
        t.tracer.end(span);
    }
    t.run(sim, total - now)?;
    Ok(sim.metrics())
}

/// Engine, SAN, trace-boundary and replication-pool metrics from the
/// spans [`replication`] records. `jobs` is the width of the `exec.pool`
/// the replications ran on.
pub fn layers(
    l: &mut BTreeMap<&'static str, f64>,
    totals: &BTreeMap<&'static str, SpanTotals>,
    work: &Work,
    jobs: usize,
) {
    // Engine-only cost: the self time of the `run` spans excludes their
    // `core.sched` / `core.validate` aggregates.
    for (run, ticks, metric) in [
        (
            "core.direct.run",
            &work.direct_vcpu_ticks,
            "core.direct.ns_per_vcpu_tick",
        ),
        (
            "core.san.run",
            &work.san_vcpu_ticks,
            "core.san.ns_per_vcpu_tick",
        ),
    ] {
        if let Some(t) = totals.get(run).filter(|_| Work::get(ticks) > 0.0) {
            l.insert(metric, t.self_ns as f64 / Work::get(ticks));
        }
    }
    for (span, metric) in [
        ("core.build.direct", "core.build_ms.direct"),
        ("core.build.san", "core.build_ms.san"),
    ] {
        if let Some(x) = totals.get(span) {
            l.insert(metric, measure::median(&x.durations) / 1e6);
        }
    }
    let completions = Work::get(&work.san_completions);
    let aborts = Work::get(&work.san_aborts);
    l.insert("san.completions", completions);
    l.insert("san.aborts", aborts);
    if completions + aborts > 0.0 {
        l.insert("san.abort_ratio", aborts / (completions + aborts));
    }
    if let Some(run) = totals.get("core.san.run").filter(|_| completions > 0.0) {
        l.insert("san.ns_per_completion", run.self_ns as f64 / completions);
    }
    let Some(rep) = totals.get("exec.rep") else {
        return;
    };
    let mut ms: Vec<f64> = rep.durations.iter().map(|d| d / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    l.insert("exec.rep_ms.p50", measure::percentile(&ms, 0.5));
    l.insert("exec.rep_ms.p90", measure::percentile(&ms, 0.9));
    if let Some(pool) = totals.get("exec.pool") {
        l.insert(
            "exec.pool_efficiency",
            rep.busy_ns as f64 / (pool.busy_ns as f64 * jobs as f64),
        );
    }
    l.insert(
        "trace.boundaries",
        Work::get(&work.boundaries) / rep.count as f64,
    );
    for (span, metric) in [
        ("trace.boundary.direct", "trace.boundary_us.direct"),
        ("trace.boundary.san", "trace.boundary_us.san"),
    ] {
        if let Some(x) = totals.get(span).filter(|x| x.count > 0) {
            l.insert(metric, x.busy_ns as f64 / x.count as f64 / 1e3);
        }
    }
}

/// Policy-callback metrics from the `core.sched` / `core.validate`
/// aggregates; the share is taken of the busy time of the spans named in
/// `runs`, which contain every policy call.
pub fn policy_layers(
    l: &mut BTreeMap<&'static str, f64>,
    totals: &BTreeMap<&'static str, SpanTotals>,
    runs: &[&str],
) {
    let sched = totals.get("core.sched").cloned().unwrap_or_default();
    let validate = totals.get("core.validate").cloned().unwrap_or_default();
    if sched.count == 0 {
        return;
    }
    l.insert(
        "core.sched.ns_per_call",
        sched.busy_ns as f64 / sched.count as f64,
    );
    l.insert(
        "core.validate.ns_per_call",
        validate.busy_ns as f64 / validate.count as f64,
    );
    let run_busy: u64 = runs
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.busy_ns)
        .sum();
    if run_busy > 0 {
        l.insert("core.sched.share", sched.busy_ns as f64 / run_busy as f64);
    }
}
