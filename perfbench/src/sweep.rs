//! `paper_sweep`: the paper's campaign (`configs/paper.sweep.json`, 154
//! unique cells) with the workload seed set in every experiment's base.
//!
//! Untraced, it times the program's own front door, `run_sweep`: cold into
//! a fresh store, then warm over the full store. Traced, it re-drives the
//! same campaign through `plan`, `ResultStore::open/put/load`, wrapped
//! replications and `render`, and checks every re-driven cell and figure
//! against the untraced run's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;
use vsched_campaign::orchestrator::dedup_cells;
use vsched_campaign::{
    plan, render, run_sweep, CellConfig, ReplicationSpec, ResultStore, StoredCell, SweepOptions,
    SweepSpec,
};
use vsched_core::{CoreError, MetricsReport, SampleMetrics};
use vsched_stats::{ConfidenceInterval, StoppingRule};

use crate::drive::{self, RepSpec, Work};
use crate::measure::{self, nproc, Tracer};
use crate::{secs, Budget, Ctx, Ledger, Size, Traced, Untraced};

/// The seed `bench_results/*.json` was rendered with.
pub const CANONICAL_SEED: u64 = 0x5eed;

/// Warm passes per iteration: each is tens of milliseconds, so many make
/// a steady median.
const WARM_PASSES: usize = 200;

/// Writes the seeded spec into the work directory and returns its path.
///
/// # Errors
///
/// Unreadable or malformed `configs/paper.sweep.json`, or a write failure.
pub fn write_spec(ctx: &Ctx) -> Result<PathBuf, String> {
    let src = ctx.root.join("configs/paper.sweep.json");
    let text = std::fs::read_to_string(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    let mut spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", src.display()))?;
    let Value::Map(top) = &mut spec else {
        return Err("sweep spec is not an object".into());
    };
    for (key, value) in top.iter_mut() {
        if key != "experiments" {
            continue;
        }
        let Value::Seq(experiments) = value else {
            return Err("`experiments` is not an array".into());
        };
        if ctx.size == Size::Tiny {
            experiments.truncate(2);
        }
        for exp in experiments.iter_mut() {
            let Value::Map(fields) = exp else { continue };
            for (k, base) in fields.iter_mut() {
                if k != "base" {
                    continue;
                }
                let Value::Map(base) = base else { continue };
                base.push(("seed".into(), Value::U64(ctx.seed)));
                if ctx.size == Size::Tiny {
                    base.push(("warmup".into(), Value::U64(50)));
                    base.push(("horizon".into(), Value::U64(400)));
                }
            }
        }
    }
    let path = ctx.work.join("paper.sweep.json");
    let body = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn opts(store: &Path, out: &Path) -> SweepOptions {
    SweepOptions {
        store_dir: Some(store.to_path_buf()),
        out_dir: Some(out.to_path_buf()),
        quiet: true,
        ..SweepOptions::default()
    }
}

fn read(path: &Path) -> Option<Vec<u8>> {
    std::fs::read(path).ok()
}

/// Compares every figure in `got` against the same file in `want`.
fn compare_dirs(ledger: &mut Ledger, names: &[String], got: &Path, want: &Path, what: &str) {
    for name in names {
        let file = format!("{name}.json");
        let (a, b) = (read(&got.join(&file)), read(&want.join(&file)));
        ledger.check(a.is_some() && a == b, || {
            format!("{what}: {file} differs from {}", want.display())
        });
    }
}

/// Runs the cold sweep into a fresh store; returns its figure names.
fn cold(
    spec: &Path,
    store: &Path,
    out: &Path,
    ledger: &mut Ledger,
) -> Result<(f64, Vec<String>), String> {
    let t = Instant::now();
    let outcome = run_sweep(spec, &opts(store, out)).map_err(|e| format!("cold sweep: {e}"))?;
    let wall = secs(t);
    ledger.ok(outcome.simulated as u64);
    ledger.check(
        outcome.cached == 0 && outcome.simulated == outcome.unique_cells,
        || {
            format!(
                "cold sweep: {} cached / {} simulated of {} unique",
                outcome.cached, outcome.simulated, outcome.unique_cells
            )
        },
    );
    Ok((wall, outcome.figures.into_iter().map(|f| f.name).collect()))
}

/// Times `n` set-ups (load + plan the spec, open a fresh store) into
/// `samples`.
fn setups(ctx: &Ctx, spec_path: &Path, n: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let dir = ctx.work.join(format!("setup-store-{}", samples.len()));
        let t = Instant::now();
        let spec = SweepSpec::load(spec_path).map_err(|e| e.to_string())?;
        let p = plan(&spec).map_err(|e| e.to_string())?;
        ResultStore::open(&dir).map_err(|e| e.to_string())?;
        samples.push(secs(t));
        std::hint::black_box(p);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// The untraced run: cold + warm iterations, with a round of set-up
/// samples before the first iteration and after each one (see
/// [`Untraced::setup_s`]).
///
/// # Errors
///
/// Spec or store set-up failures.
pub fn untraced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Untraced, String> {
    let spec_path = write_spec(ctx)?;
    let mut u = Untraced::default();
    setups(ctx, &spec_path, 50, &mut u.setup_s)?;

    let mut budget = Budget::new(ctx.seconds, 50);
    let mut iter = 0;
    while budget.another() {
        let store = ctx.work.join(format!("store-{iter}"));
        let cold_out = ctx.work.join(format!("cold-{iter}"));
        let warm_out = ctx.work.join(format!("warm-{iter}"));
        iter += 1;
        let cpu0 = measure::cpu_seconds();
        let (wall, names) = match cold(&spec_path, &store, &cold_out, ledger) {
            Ok(x) => x,
            Err(e) => {
                ledger.error(e);
                continue;
            }
        };
        u.primary_s.push(wall);
        if ctx.seed == CANONICAL_SEED && ctx.size == Size::Full {
            compare_dirs(
                ledger,
                &names,
                &cold_out,
                &ctx.root.join("bench_results"),
                "golden",
            );
        }
        if ctx.corrupt {
            let victim = cold_out.join(format!("{}.json", names[0]));
            let mut bytes = std::fs::read(&victim).map_err(|e| e.to_string())?;
            bytes.push(b' ');
            std::fs::write(&victim, bytes).map_err(|e| e.to_string())?;
        }
        for _ in 0..WARM_PASSES {
            let t = Instant::now();
            match run_sweep(&spec_path, &opts(&store, &warm_out)) {
                Ok(outcome) => {
                    u.secondary_s.push(secs(t));
                    ledger.check(
                        outcome.simulated == 0 && outcome.cached == outcome.unique_cells,
                        || format!("warm sweep simulated {} cells", outcome.simulated),
                    );
                    compare_dirs(ledger, &names, &warm_out, &cold_out, "warm vs cold");
                }
                Err(e) => ledger.error(format!("warm sweep: {e}")),
            }
        }
        u.cpu_s.push(measure::cpu_seconds() - cpu0);
        for dir in [store, cold_out, warm_out] {
            let _ = std::fs::remove_dir_all(dir);
        }
        setups(ctx, &spec_path, 50, &mut u.setup_s)?;
    }
    u.named = vec![
        ("sweep_cold_s", "s", u.primary_s.clone()),
        ("sweep_warm_s", "s", u.secondary_s.clone()),
    ];
    Ok(u)
}

/// One cell's report through wrapped replications, exactly as
/// `CellConfig::run_report` computes it for a static cell.
fn redrive_cell(
    tracer: &Tracer,
    parent: u64,
    cell: &CellConfig,
    work: &Work,
) -> Result<MetricsReport, CoreError> {
    let config = cell.system()?;
    let policy = cell.policy_kind()?;
    let rep = |r: u64| -> Result<SampleMetrics, CoreError> {
        drive::replication(
            tracer,
            parent,
            RepSpec {
                config: &config,
                policy: &policy,
                engine: cell.engine.to_engine(),
                seed: cell.seed.wrapping_add(r),
                warmup: cell.warmup,
                horizon: cell.horizon,
                schedule: None,
            },
            work,
        )
    };
    let (vcpus, pcpus) = (config.total_vcpus(), config.pcpus());
    match cell.replications {
        ReplicationSpec::Rule { min, max } => {
            let rule = StoppingRule::paper_default()
                .with_min_replications(min)
                .with_max_replications(max);
            let (controller, _) =
                vsched_exec::run_converged(1, rule, rep, SampleMetrics::to_observations)?;
            Ok(MetricsReport::from_intervals(
                controller.intervals()?,
                vcpus,
                pcpus,
                controller.replications(),
            ))
        }
        ReplicationSpec::Exact(n) => {
            let samples = vsched_exec::run_indexed(1, 0, n, rep)?;
            let arity = samples[0].to_observations().len();
            let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n); arity];
            for s in &samples {
                for (c, x) in columns.iter_mut().zip(s.to_observations()) {
                    c.push(x);
                }
            }
            let level = StoppingRule::paper_default().level;
            let intervals = columns
                .iter()
                .map(|c| ConfidenceInterval::from_samples(c, level))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(MetricsReport::from_intervals(intervals, vcpus, pcpus, n))
        }
    }
}

/// The traced run: one untraced cold sweep as reference, then the traced
/// cold re-drive and traced warm passes.
///
/// # Errors
///
/// Spec or store set-up failures.
#[allow(clippy::too_many_lines)]
pub fn traced(ctx: &Ctx, tracer: &Tracer, ledger: &mut Ledger) -> Result<Traced, String> {
    let spec_path = write_spec(ctx)?;
    let ref_store = ctx.work.join("ref-store");
    let ref_out = ctx.work.join("ref-out");
    let (untraced_wall, names) = cold(&spec_path, &ref_store, &ref_out, ledger)?;
    let reference = ResultStore::open(&ref_store).map_err(|e| e.to_string())?;

    let work = Work::default();
    let jobs = nproc();
    let store_dir = ctx.work.join("traced-store");
    let started = Instant::now();
    let root = tracer.open("campaign.sweep.cold", 0);
    let span = tracer.open("campaign.plan", root.id());
    let spec = SweepSpec::load(&spec_path).map_err(|e| e.to_string())?;
    let plan = plan(&spec).map_err(|e| e.to_string())?;
    tracer.end(span);
    let span = tracer.open("campaign.store.open", root.id());
    let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
    tracer.end(span);
    let cells = dedup_cells(plan.experiments.iter().flat_map(|e| e.cells.iter()));
    let missing: Vec<_> = cells.iter().filter(|c| !store.contains(&c.key)).collect();
    let pool = tracer.open("exec.pool", root.id());
    let pool_id = pool.id();
    let reports = vsched_exec::run_indexed(jobs, 0, missing.len(), |i| {
        let cell = missing[usize::try_from(i).expect("cell index fits usize")];
        let span = tracer.open("campaign.cell", pool_id);
        let report = redrive_cell(tracer, span.id(), &cell.config, &work);
        if let Ok(report) = &report {
            let put = tracer.open("campaign.store.put", span.id());
            let entry = ResultStore::entry(cell.key.clone(), cell.config.clone(), report.clone());
            let stored = store.put(&entry);
            tracer.end(put);
            if let Err(e) = stored {
                return Err(e.to_string());
            }
        }
        tracer.end(span);
        report.map_err(|e| e.to_string())
    });
    tracer.end(pool);
    tracer.end(root);
    let traced_wall = secs(started);
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            ledger.error(format!("traced re-drive: {e}"));
            Vec::new()
        }
    };
    let mut reps_per_cell = Vec::new();
    for (cell, report) in missing.iter().zip(&reports) {
        reps_per_cell.push(report.replications as f64);
        let want = reference.load(&cell.key).ok().flatten().map(|s| s.report);
        let same = want
            .is_some_and(|w| serde_json::to_string(&w).ok() == serde_json::to_string(report).ok());
        ledger.check(same, || {
            format!("cell {}: traced re-drive differs from run_sweep", cell.key)
        });
    }

    // Warm passes: load every cell, render every figure, write it.
    let warm_out = ctx.work.join("traced-warm");
    std::fs::create_dir_all(&warm_out).map_err(|e| e.to_string())?;
    let mut render_ms = Vec::new();
    let mut cached = 0usize;
    for _ in 0..WARM_PASSES {
        let root = tracer.open("campaign.sweep.warm", 0);
        let mut render_ns = 0u64;
        let mut seen = std::collections::HashSet::new();
        for exp in &plan.experiments {
            let mut stored: Vec<StoredCell> = Vec::new();
            for cell in &exp.cells {
                let span = tracer.open("campaign.store.load", root.id());
                let got = store.load(&cell.key);
                tracer.end(span);
                match got {
                    Ok(Some(s)) => {
                        seen.insert(cell.key.clone());
                        stored.push(s);
                    }
                    _ => ledger.error(format!("warm load of {} failed", cell.key)),
                }
            }
            if stored.len() != exp.cells.len() {
                continue;
            }
            let span = tracer.open("campaign.render", root.id());
            let figure = render(exp, &stored);
            render_ns += tracer.end(span);
            match figure {
                Ok(figure) => {
                    let body = serde_json::to_string_pretty(&figure.json).unwrap_or_default();
                    let path = warm_out.join(format!("{}.json", figure.name));
                    let _ = std::fs::write(&path, body);
                }
                Err(e) => ledger.error(format!("render {}: {e}", exp.name)),
            }
        }
        tracer.end(root);
        cached = seen.len();
        render_ms.push(render_ns as f64 / 1e6);
        compare_dirs(
            ledger,
            &names,
            &warm_out,
            &ref_out,
            "traced warm vs run_sweep",
        );
    }

    let totals = measure::totals(&tracer.spans());
    let mut t = Traced::default();
    let l = &mut t.layers;
    let mean_us = |name: &str| {
        totals
            .get(name)
            .filter(|x| x.count > 0)
            .map_or(0.0, |x| x.busy_ns as f64 / x.count as f64 / 1e3)
    };
    l.insert("campaign.plan_ms", mean_us("campaign.plan") / 1e3);
    l.insert("campaign.store.put_us", mean_us("campaign.store.put"));
    l.insert("campaign.store.load_us", mean_us("campaign.store.load"));
    l.insert("campaign.cells_simulated", missing.len() as f64);
    l.insert("campaign.cells_cached", cached as f64);
    l.insert("campaign.render_ms", measure::median(&render_ms));
    if !reps_per_cell.is_empty() {
        l.insert(
            "stats.reps_per_cell.mean",
            reps_per_cell.iter().sum::<f64>() / reps_per_cell.len() as f64,
        );
        l.insert(
            "stats.reps_per_cell.max",
            reps_per_cell.iter().copied().fold(0.0, f64::max),
        );
    }
    drive::layers(l, &totals, &work, jobs);
    drive::policy_layers(l, &totals, &["core.direct.run", "core.san.run"]);
    l.insert("trace_overhead", traced_wall / untraced_wall);
    t.timings = vec![
        (
            "sweep_cold_s (untraced reference)",
            "s",
            vec![untraced_wall],
        ),
        ("sweep_cold_s (traced)", "s", vec![traced_wall]),
        ("campaign.render_ms per warm pass", "ms", render_ms),
    ];
    for dir in [ref_store, ref_out, store_dir, warm_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(t)
}
