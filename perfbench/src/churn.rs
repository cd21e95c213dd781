//! `churn_1000vm`: a seeded churn trace with the event mix of
//! `configs/traces/churn_1000vm.jsonl` (1000 VMs on 256 PCPUs: 600 present
//! at tick 0, 400 staggered arrivals, 250 departures, 150 re-admissions,
//! load-level waves; 3880 ticks), replayed on DirectSim and on the SAN
//! engine with one replication per core.
//!
//! The trace goes through the same public reader and compiler as
//! `vsched trace run`: it is written in the standard JSON-lines format,
//! then read with `read_standard` and compiled with
//! `TraceSchedule::compile`.

use std::path::Path;
use std::time::Instant;

use vsched_core::direct::DirectSim;
use vsched_core::san_model::SanSystem;
use vsched_core::{Engine, PolicyKind, SampleMetrics};
use vsched_trace::{
    read_standard, write_standard, RawEvent, TraceExperiment, TraceMeta, TraceReport,
    TraceSchedule, VmShape,
};

use crate::drive::{self, RepSpec, Work};
use crate::measure::{self, nproc, Tracer};
use crate::{secs, Budget, Ctx, Ledger, Size, SplitMix, Traced, Untraced, TICK_SECONDS};

/// The event mix of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Distinct VMs.
    pub vms: usize,
    /// VMs present at tick 0.
    pub initial: usize,
    /// Departures (distinct VMs).
    pub departures: usize,
    /// Departed VMs that arrive again.
    pub readmissions: usize,
    /// Load-level changes.
    pub load_changes: usize,
    /// Physical CPUs.
    pub pcpus: usize,
    /// Latest first arrival of a late VM.
    pub last_arrival: u64,
    /// Departures happen `depart_after` ticks after arrival (inclusive).
    pub depart_after: (u64, u64),
    /// Latest departure.
    pub last_departure: u64,
    /// Re-admissions happen this many ticks after departure.
    pub readmit_after: (u64, u64),
    /// Load changes fall in this window.
    pub load_window: (u64, u64),
    /// Replayed ticks (warm-up 0).
    pub horizon: u64,
}

impl Mix {
    /// The fixture's shape, or a small one for tests.
    #[must_use]
    pub fn for_size(size: Size) -> Mix {
        match size {
            Size::Full => Mix {
                vms: 1000,
                initial: 600,
                departures: 250,
                readmissions: 150,
                load_changes: 668,
                pcpus: 256,
                last_arrival: 1500,
                depart_after: (200, 1000),
                last_departure: 2480,
                readmit_after: (100, 400),
                load_window: (50, 2200),
                horizon: 3880,
            },
            Size::Tiny => Mix {
                vms: 40,
                initial: 24,
                departures: 10,
                readmissions: 6,
                load_changes: 27,
                pcpus: 12,
                last_arrival: 150,
                depart_after: (20, 100),
                last_departure: 250,
                readmit_after: (10, 40),
                load_window: (5, 220),
                horizon: 400,
            },
        }
    }
}

/// Load levels and their weights in the fixture (per mille).
const LEVELS: [(u32, u64); 4] = [(250, 122), (500, 97), (750, 115), (1000, 334)];

/// Generates a churn trace from `seed`; every VM is present exactly on
/// its arrival..departure intervals, and load changes fall strictly
/// inside one of them.
#[must_use]
pub fn generate(mix: Mix, seed: u64) -> (TraceMeta, Vec<RawEvent>) {
    let mut rng = SplitMix::new(seed);
    let name = |i: usize| format!("vm{i:04}");
    let shapes: Vec<VmShape> = (0..mix.vms)
        .map(|_| {
            let mut s = VmShape::new(rng.range(1, 4) as usize);
            s.weight = rng.range(1, 3) as u32;
            s
        })
        .collect();
    let arrival: Vec<u64> = (0..mix.vms)
        .map(|i| {
            if i < mix.initial {
                0
            } else {
                rng.range(1, mix.last_arrival)
            }
        })
        .collect();
    // Pick departing VMs by a seeded partial shuffle.
    let mut order: Vec<usize> = (0..mix.vms).collect();
    for i in 0..mix.departures {
        let j = rng.range(i as u64, (mix.vms - 1) as u64) as usize;
        order.swap(i, j);
    }
    // Presence intervals per VM: [start, end) with end = u64::MAX if open.
    let mut intervals: Vec<Vec<(u64, u64)>> =
        arrival.iter().map(|&a| vec![(a, u64::MAX)]).collect();
    let mut events: Vec<(u64, u8, usize, RawEvent)> = Vec::new();
    for (i, &a) in arrival.iter().enumerate() {
        events.push((a, 1, i, RawEvent::arrive(a, name(i), shapes[i].clone())));
    }
    for (k, &vm) in order[..mix.departures].iter().enumerate() {
        let d = (arrival[vm] + rng.range(mix.depart_after.0, mix.depart_after.1))
            .min(mix.last_departure)
            .max(arrival[vm] + 1);
        intervals[vm][0].1 = d;
        events.push((d, 0, vm, RawEvent::depart(d, name(vm))));
        if k < mix.readmissions {
            let r = d + rng.range(mix.readmit_after.0, mix.readmit_after.1);
            intervals[vm].push((r, u64::MAX));
            events.push((r, 1, vm, RawEvent::arrive(r, name(vm), shapes[vm].clone())));
        }
    }
    let total_weight: u64 = LEVELS.iter().map(|l| l.1).sum();
    let mut placed = std::collections::HashSet::new();
    while placed.len() < mix.load_changes {
        let vm = rng.range(0, (mix.vms - 1) as u64) as usize;
        // Waves: most changes early in the trace, a tail through the window.
        let hi = if rng.chance(0.6) {
            mix.load_window.0 + (mix.load_window.1 - mix.load_window.0) / 3
        } else {
            mix.load_window.1
        };
        let t = rng.range(mix.load_window.0, hi);
        let inside = intervals[vm].iter().any(|&(s, e)| s < t && t < e);
        if !inside || !placed.insert((t, vm)) {
            continue;
        }
        let mut pick = rng.range(0, total_weight - 1);
        let level = LEVELS
            .iter()
            .find(|&&(_, w)| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .map_or(1000, |l| l.0);
        events.push((t, 2, vm, RawEvent::set_load(t, name(vm), level)));
    }
    events.sort_by_key(|e| (e.0, e.1, e.2));
    let meta = TraceMeta::new(mix.pcpus);
    (meta, events.into_iter().map(|e| e.3).collect())
}

/// Writes the seeded trace into the work directory.
///
/// # Errors
///
/// A write failure.
pub fn write_trace(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let (meta, events) = generate(Mix::for_size(ctx.size), ctx.seed);
    let path = ctx.work.join("churn.jsonl");
    std::fs::write(&path, write_standard(&meta, &events))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Reads and compiles the trace, as `vsched trace run` does.
///
/// # Errors
///
/// Reader or compiler errors.
pub fn load(path: &Path) -> Result<TraceSchedule, String> {
    let (meta, events) = read_standard(path).map_err(|e| e.to_string())?;
    TraceSchedule::compile(&meta, &events, &path.display().to_string()).map_err(|e| e.to_string())
}

fn policy() -> PolicyKind {
    PolicyKind::RoundRobin
}

fn experiment(schedule: &TraceSchedule, engine: Engine, ctx: &Ctx) -> TraceExperiment {
    TraceExperiment::new(schedule.clone(), policy())
        .engine(engine)
        .horizon(Mix::for_size(ctx.size).horizon)
        .seed(ctx.seed)
        .replications(nproc())
}

/// Checks a replay report: one sample per replication, every metric a
/// fraction.
fn check_report(ledger: &mut Ledger, report: &TraceReport, what: &str) {
    ledger.ok(report.samples.len() as u64);
    let sane = report.samples.len() == nproc()
        && report.samples.iter().all(|s| {
            s.to_observations()
                .iter()
                .all(|x| x.is_finite() && (0.0..=1.0).contains(x))
        });
    ledger.check(sane, || format!("{what}: malformed replay report"));
}

/// Times `n` set-ups (read + compile the trace, build both engines) into
/// `samples`; returns the compiled trace.
fn setups(
    path: &Path,
    ctx: &Ctx,
    n: usize,
    samples: &mut Vec<f64>,
) -> Result<TraceSchedule, String> {
    let mut schedule = None;
    for _ in 0..n {
        let t = Instant::now();
        let s = load(path)?;
        let config = s.config().clone();
        let direct = DirectSim::new(config.clone(), policy().create(), ctx.seed);
        let san = SanSystem::new_dynamic(config, policy().create(), ctx.seed)
            .map_err(|e| e.to_string())?;
        samples.push(secs(t));
        drop((direct, san));
        schedule = Some(s);
    }
    schedule.ok_or_else(|| "no set-up ran".to_string())
}

/// The untraced run: Direct + SAN replays, with a round of set-up samples
/// before the first iteration and after each one (see [`Untraced::setup_s`]).
///
/// # Errors
///
/// Trace generation or compilation failures.
pub fn untraced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Untraced, String> {
    let path = write_trace(ctx)?;
    let mut u = Untraced::default();
    let schedule = setups(&path, ctx, 10, &mut u.setup_s)?;
    let sim_seconds = Mix::for_size(ctx.size).horizon as f64 * TICK_SECONDS * nproc() as f64;

    let mut fingerprints: [Option<u64>; 2] = [None, None];
    let mut budget = Budget::new(ctx.seconds, 50);
    while budget.another() {
        let cpu0 = measure::cpu_seconds();
        for (k, engine) in [Engine::Direct, Engine::San].into_iter().enumerate() {
            let t = Instant::now();
            match experiment(&schedule, engine, ctx).run() {
                Ok(mut report) => {
                    let wall = secs(t);
                    if k == 0 {
                        u.primary_s.push(wall);
                    } else {
                        u.secondary_s.push(wall);
                    }
                    if ctx.corrupt {
                        report.samples[0].vcpu_availability[0] = f64::NAN;
                    }
                    check_report(ledger, &report, &format!("{engine:?} replay"));
                    let want = *fingerprints[k].get_or_insert(report.fingerprint);
                    ledger.check(want == report.fingerprint, || {
                        format!("{engine:?} replay fingerprint changed between iterations")
                    });
                }
                Err(e) => ledger.error(format!("{engine:?} replay: {e}")),
            }
        }
        u.cpu_s.push(measure::cpu_seconds() - cpu0);
        setups(&path, ctx, 10, &mut u.setup_s)?;
    }
    let rtf = |walls: &[f64]| walls.iter().map(|w| sim_seconds / w).collect::<Vec<_>>();
    u.named = vec![
        ("churn_direct_rtf", "s/s", rtf(&u.primary_s)),
        ("churn_san_rtf", "s/s", rtf(&u.secondary_s)),
    ];
    Ok(u)
}

/// The traced run: one untraced replay per engine as reference, then the
/// traced re-drive of the same replications.
///
/// # Errors
///
/// Trace generation or compilation failures.
pub fn traced(ctx: &Ctx, tracer: &Tracer, ledger: &mut Ledger) -> Result<Traced, String> {
    let path = write_trace(ctx)?;
    let root = tracer.open("trace.load", 0);
    let read = tracer.open("trace.read", root.id());
    let (meta, events) = read_standard(&path).map_err(|e| e.to_string())?;
    let read_ns = tracer.end(read);
    let compile = tracer.open("trace.compile", root.id());
    let schedule = TraceSchedule::compile(&meta, &events, &path.display().to_string())
        .map_err(|e| e.to_string())?;
    let compile_ns = tracer.end(compile);
    tracer.end(root);

    let mix = Mix::for_size(ctx.size);
    let jobs = nproc();
    let work = Work::default();
    let mut untraced_wall = 0.0;
    let mut traced_wall = 0.0;
    for engine in [Engine::Direct, Engine::San] {
        let t = Instant::now();
        let reference = experiment(&schedule, engine, ctx).run();
        untraced_wall += secs(t);
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                ledger.error(format!("{engine:?} replay: {e}"));
                continue;
            }
        };
        check_report(ledger, &reference, &format!("{engine:?} replay"));
        let t = Instant::now();
        let pool = tracer.open("exec.pool", 0);
        let pool_id = pool.id();
        let samples: Result<Vec<SampleMetrics>, _> =
            vsched_exec::run_indexed(jobs, 0, jobs, |rep| {
                drive::replication(
                    tracer,
                    pool_id,
                    RepSpec {
                        config: schedule.config(),
                        policy: &policy(),
                        engine,
                        seed: ctx.seed.wrapping_add(rep),
                        warmup: 0,
                        horizon: mix.horizon,
                        schedule: Some(&schedule),
                    },
                    &work,
                )
            });
        tracer.end(pool);
        traced_wall += secs(t);
        match samples {
            Ok(samples) => {
                ledger.check(samples == reference.samples, || {
                    format!("{engine:?}: traced re-drive differs from run_replication")
                });
            }
            Err(e) => ledger.error(format!("{engine:?} traced re-drive: {e}")),
        }
    }

    let totals = measure::totals(&tracer.spans());
    let mut t = Traced::default();
    let l = &mut t.layers;
    l.insert("trace.read_ms", read_ns as f64 / 1e6);
    l.insert("trace.compile_ms", compile_ns as f64 / 1e6);
    drive::layers(l, &totals, &work, jobs);
    drive::policy_layers(l, &totals, &["core.direct.run", "core.san.run"]);
    l.insert("trace_overhead", traced_wall / untraced_wall);
    t.timings = vec![
        (
            "churn replays (untraced reference)",
            "s",
            vec![untraced_wall],
        ),
        ("churn replays (traced)", "s", vec![traced_wall]),
    ];
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_trace::TraceAction;

    /// Any seed, including one never used while tuning the benchmark,
    /// yields the fixture's event mix through the public compile path.
    #[test]
    fn generated_traces_keep_the_fixture_mix() {
        let mix = Mix::for_size(Size::Full);
        for seed in [1, 0x5eed, 0xdead_beef] {
            let (meta, events) = generate(mix, seed);
            let text = write_standard(&meta, &events);
            let (meta, lines) = vsched_trace::read_standard_str(&text, "gen").unwrap();
            let s = TraceSchedule::compile(&meta, &lines, "gen").unwrap();
            let count =
                |f: fn(&TraceAction) -> bool| s.events().iter().filter(|e| f(&e.action)).count();
            assert_eq!(s.vm_names().len(), mix.vms);
            assert_eq!(s.config().pcpus(), mix.pcpus);
            assert_eq!(
                s.initially_present().iter().filter(|p| **p).count(),
                mix.initial
            );
            assert_eq!(count(|a| matches!(a, TraceAction::Retire)), mix.departures);
            assert_eq!(
                count(|a| matches!(a, TraceAction::Admit)),
                mix.vms - mix.initial + mix.readmissions
            );
            assert_eq!(
                count(|a| matches!(a, TraceAction::SetLoad(_))),
                mix.load_changes
            );
            let vcpus = s.config().total_vcpus();
            assert!((2400..=2600).contains(&vcpus), "seed {seed}: {vcpus} VCPUs");
            assert!(s.end_time() < mix.horizon);
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let mix = Mix::for_size(Size::Tiny);
        assert_eq!(generate(mix, 9).1, generate(mix, 9).1);
        assert_ne!(generate(mix, 9).1, generate(mix, 10).1);
    }
}
