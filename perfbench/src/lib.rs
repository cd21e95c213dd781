//! # perfbench — the vsched workspace's benchmark
//!
//! Three workloads, each driven from outside the program through its
//! public API, each stressing different layers:
//!
//! * [`sweep`] — the paper's 154-cell campaign, cold into a fresh store,
//!   then warm over the full store: many tiny models, the CI stopping
//!   rule, the replication pool and store I/O.
//! * [`churn`] — a seeded 1000-VM churn trace replayed on both engines:
//!   per-event cost at 300× the model size, trace segment boundaries.
//! * [`envload`] — whole RL episodes on the paper's 2-PCPU machine, in
//!   process and over the JSON-lines transport of `vsched env --agent`.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run (`--trace 1`) re-drives the same work
//! through wrapped public calls, keeps spans in memory, writes them as
//! JSON lines at the end, and reports the per-layer metrics
//! ([`PER_LAYER`]) derived from them. Every run checks the program's
//! outputs; each check is one attempted operation.

#![forbid(unsafe_code)]

pub mod churn;
pub mod drive;
pub mod envload;
pub mod measure;
pub mod policy;
pub mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use measure::{Summary, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_sweep", "churn_1000vm", "env_episodes"];

/// End-to-end metrics `(name, unit)`, reported by every workload.
///
/// `primary_s`/`secondary_s` are the workload's two headline legs; see
/// `perfbench/README.md` for how they map onto the named rates.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.direct.ns_per_vcpu_tick", "ns"),
    ("core.san.ns_per_vcpu_tick", "ns"),
    ("core.build_ms.direct", "ms"),
    ("core.build_ms.san", "ms"),
    ("core.sched.ns_per_call", "ns"),
    ("core.sched.share", "ratio"),
    ("core.validate.ns_per_call", "ns"),
    ("san.completions", "count"),
    ("san.aborts", "count"),
    ("san.abort_ratio", "ratio"),
    ("san.ns_per_completion", "ns"),
    ("trace.read_ms", "ms"),
    ("trace.compile_ms", "ms"),
    ("trace.boundaries", "count"),
    ("trace.boundary_us.direct", "us"),
    ("trace.boundary_us.san", "us"),
    ("stats.reps_per_cell.mean", "count"),
    ("stats.reps_per_cell.max", "count"),
    ("exec.rep_ms.p50", "ms"),
    ("exec.rep_ms.p90", "ms"),
    ("exec.pool_efficiency", "ratio"),
    ("campaign.plan_ms", "ms"),
    ("campaign.store.put_us", "us"),
    ("campaign.cells_simulated", "count"),
    ("campaign.store.load_us", "us"),
    ("campaign.cells_cached", "count"),
    ("campaign.render_ms", "ms"),
    ("env.reset_ms", "ms"),
    ("env.step_us.p50", "us"),
    ("env.step_us.p99", "us"),
    ("env.rendezvous_us", "us"),
    ("env.proto.encode_ns", "ns"),
    ("env.proto.decode_ns", "ns"),
    ("env.remote.rtt_us.p50", "us"),
    ("env.remote.rtt_us.p99", "us"),
    ("cli.env_handshake_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("failed_share", "ratio"),
];

/// Simulated seconds per tick (the paper's 30 ms tick).
pub const TICK_SECONDS: f64 = 0.030;

/// How much work a workload does: the full benchmark, or a tiny version
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale inputs with the same code paths.
    Tiny,
}

/// Everything a workload needs to run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Root of the checkout (holds `configs/` and `bench_results/`).
    pub root: PathBuf,
    /// Scratch directory for generated inputs, stores and outputs.
    pub work: PathBuf,
    /// The `vsched` binary, for the remote-agent leg.
    pub vsched: PathBuf,
    /// This benchmark's own binary, which serves as the remote agent.
    pub agent: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// Corrupt one program output before it is checked (tests only).
    pub corrupt: bool,
}

/// Counts attempted operations and output checks, and the failed ones.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, what: String) {
        self.check(false, || what);
    }
}

/// What an untraced run measured: samples per end-to-end metric, plus the
/// workload's named rates for the human-readable report.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Set-up time samples, s, taken in rounds before the first iteration
    /// and after each one: on a shared host set-up cost moves between
    /// regimes lasting seconds (30 ms and 50 ms for the churn set-up),
    /// and one burst at the start would sample only one of them.
    pub setup_s: Vec<f64>,
    /// Process CPU seconds per iteration.
    pub cpu_s: Vec<f64>,
    /// First headline leg, s per sample.
    pub primary_s: Vec<f64>,
    /// Second headline leg, s per sample.
    pub secondary_s: Vec<f64>,
    /// Named derived metrics `(name, unit, samples)` for the report.
    pub named: Vec<(&'static str, &'static str, Vec<f64>)>,
}

/// What a traced run measured: per-layer values and timings to report.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name (absent means 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Timings to print as summaries `(name, unit, samples)`.
    pub timings: Vec<(&'static str, &'static str, Vec<f64>)>,
}

/// Iteration budget: always one iteration, then more only while the
/// next one (estimated by the slowest so far) fits in the budget.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    seconds: f64,
    slowest: f64,
    iter_start: Option<Instant>,
    done: usize,
    max: usize,
}

impl Budget {
    /// A budget of `seconds`, capped at `max` iterations.
    #[must_use]
    pub fn new(seconds: f64, max: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            slowest: 0.0,
            iter_start: None,
            done: 0,
            max,
        }
    }

    /// Whether to run another iteration; call once per iteration.
    pub fn another(&mut self) -> bool {
        if let Some(t) = self.iter_start.take() {
            self.slowest = self.slowest.max(t.elapsed().as_secs_f64());
            self.done += 1;
        }
        let go = self.done == 0
            || (self.done < self.max
                && self.start.elapsed().as_secs_f64() + self.slowest <= self.seconds);
        if go {
            self.iter_start = Some(Instant::now());
        }
        go
    }
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Deterministic input generator (SplitMix64): the benchmark's inputs
/// depend on the seed alone, never on the program's own RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Summary lines for named samples.
#[must_use]
pub fn summary_lines(named: &[(&'static str, &'static str, Vec<f64>)]) -> Vec<String> {
    named
        .iter()
        .filter(|(_, _, v)| !v.is_empty())
        .map(|(name, unit, v)| Summary::of(v).line(name, unit))
        .collect()
}

/// Runs one workload untraced.
///
/// # Errors
///
/// A set-up failure that leaves nothing to measure.
pub fn run_untraced(workload: &str, ctx: &Ctx, ledger: &mut Ledger) -> Result<Untraced, String> {
    match workload {
        "paper_sweep" => sweep::untraced(ctx, ledger),
        "churn_1000vm" => churn::untraced(ctx, ledger),
        "env_episodes" => envload::untraced(ctx, ledger),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs one workload traced into `tracer`.
///
/// # Errors
///
/// A set-up failure that leaves nothing to measure.
pub fn run_traced(
    workload: &str,
    ctx: &Ctx,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Result<Traced, String> {
    match workload {
        "paper_sweep" => sweep::traced(ctx, tracer, ledger),
        "churn_1000vm" => churn::traced(ctx, tracer, ledger),
        "env_episodes" => envload::traced(ctx, tracer, ledger),
        other => Err(format!("unknown workload `{other}`")),
    }
}
