//! Sample summaries, host probes, and the in-memory span recorder.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{json, Value};

/// Percentile by linear interpolation between closest ranks (`q` in 0..=1).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// A timing reported as median and quartiles, plus the highest of
/// p90/p99/p99.9 that still has at least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// The tail percentile's label and value, when enough samples exist.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarizes unsorted samples.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // Samples beyond the percentile, in per mille of `n`.
        let tail = [("p99.9", 1), ("p99", 10), ("p90", 100)]
            .into_iter()
            .find(|&(_, beyond)| n * beyond / 1000 >= 10)
            .map(|(label, beyond)| (label, percentile(&s, 1.0 - beyond as f64 / 1000.0)));
        Summary {
            n,
            p50: percentile(&s, 0.5),
            p25: percentile(&s, 0.25),
            p75: percentile(&s, 0.75),
            tail,
        }
    }

    /// One human-readable line: `name: median [q1, q3] unit, tail, n`,
    /// or just the value when there is a single sample.
    #[must_use]
    pub fn line(&self, name: &str, unit: &str) -> String {
        if self.n == 1 {
            return format!("  {name}: {:.6} {unit} (one sample)", self.p50);
        }
        let tail = self
            .tail
            .map_or(String::new(), |(label, v)| format!(", {label} {v:.6}"));
        format!(
            "  {name}: median {:.6} {unit} [q1 {:.6}, q3 {:.6}]{tail}, n={}",
            self.p50, self.p25, self.p75, self.n
        )
    }
}

/// Process CPU seconds (user + system) of this process and its reaped
/// children, from `/proc/self/stat` (clock-tick resolution).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime is field 14.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // rest[0] is field 3 (state); utime..cstime are fields 14..17.
    let ticks: u64 = f.get(11..15).map_or(0, |s| s.iter().sum());
    ticks as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the workloads use: one per available core.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host block recorded with every result.
#[must_use]
pub fn host_block(root: &Path, seed: u64, workload: &str, trace: bool) -> Value {
    let commit = command_line(
        "git",
        &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
    )
    .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    json!({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "commit": commit,
        "rustc": rustc,
    })
}

/// One recorded span. Aggregate spans (`count > 1`) fold many short calls
/// into one record whose `busy_ns` is the summed call time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.direct.run`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Time the span was busy: `end - start` for a single call.
    pub busy_ns: u64,
    /// Calls folded into this record.
    pub count: u64,
}

/// Keeps spans in memory until the run ends. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

/// An open span; closed by [`Open::end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, to parent child spans on.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Opens a span under `parent` (0 for a root).
    #[must_use]
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Closes a span and returns its duration in ns.
    pub fn end(&self, open: Open) -> u64 {
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(open.start), self.ns(end));
        let busy = end_ns - start_ns;
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns,
            end_ns,
            busy_ns: busy,
            count: 1,
        });
        busy
    }

    /// Records `count` calls totalling `busy_ns`, made between `from` and
    /// now, as one aggregate child of `parent`.
    pub fn aggregate(
        &self,
        name: &'static str,
        parent: u64,
        from: Instant,
        busy_ns: u64,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        let end = Instant::now();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.ns(from),
            end_ns: self.ns(end),
            busy_ns,
            count,
        });
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors from writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let line = json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "busy_ns": s.busy_ns,
                "count": s.count,
            });
            out.push_str(&serde_json::to_string(&line).expect("span serializes"));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals derived from a span list: busy time, self time (busy
/// minus the busy time of direct children), calls, and every duration.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Summed busy time, ns.
    pub busy_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Calls (aggregates count each folded call).
    pub count: u64,
    /// Busy time of each record, ns.
    pub durations: Vec<f64>,
}

/// Folds spans into per-name totals.
#[must_use]
pub fn totals(spans: &[Span]) -> std::collections::BTreeMap<&'static str, SpanTotals> {
    let mut child_busy: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_busy.entry(s.parent).or_default() += s.busy_ns;
        }
    }
    let mut out: std::collections::BTreeMap<&'static str, SpanTotals> =
        std::collections::BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.busy_ns += s.busy_ns;
        t.self_ns += s
            .busy_ns
            .saturating_sub(child_busy.get(&s.id).copied().unwrap_or(0));
        t.count += s.count;
        t.durations.push(s.busy_ns as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail.map(|t| t.0), Some("p90"));
        assert!((s.p50 - 50.5).abs() < 1e-9);
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&ys).tail.map(|t| t.0), Some("p99"));
        assert!(Summary::of(&[1.0, 2.0]).tail.is_none());
    }

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        let root = tracer.open("root", 0);
        let child = tracer.open("child", root.id());
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(child);
        tracer.end(root);
        let t = totals(&tracer.spans());
        assert!(t["root"].self_ns < t["root"].busy_ns);
        assert_eq!(t["child"].self_ns, t["child"].busy_ns);
    }
}
