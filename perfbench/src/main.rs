//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints a
//! human-readable report followed, as the last line of stdout, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `perfbench agent --stats <path>` is the remote agent
//! the `env_episodes` workload spawns through `vsched env --agent`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::measure::{self, Tracer};
use perfbench::{Ctx, Ledger, Size, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Map, Value};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    corrupt: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       perfbench agent --stats <path>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            // Test-only: seconds-scale inputs, and a deliberately corrupted output.
            "--tiny" => size = Size::Tiny,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        corrupt,
    })
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn run(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for needed in ["configs/paper.sweep.json", "configs/fig8_fairness.json"] {
        if !root.join(needed).is_file() {
            return Err(format!(
                "{needed} not found: run from the root of a checkout"
            ));
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let vsched = exe.with_file_name("vsched");
    if args.workload == "env_episodes" && !vsched.is_file() {
        return Err(format!(
            "{} not found: build vsched-cli first",
            vsched.display()
        ));
    }
    let base = root.join(".perfbench");
    let work = base.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        root: root.clone(),
        work: work.clone(),
        vsched,
        agent: exe,
        seed: args.seed,
        seconds: args.seconds,
        size: args.size,
        corrupt: args.corrupt,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {}",
        measure::host_block(&root, args.seed, &args.workload, args.trace)
    );

    let mut ledger = Ledger::default();
    let mut metrics = Map::new();
    let outcome = if args.trace {
        let tracer = Tracer::default();
        perfbench::run_traced(&args.workload, &ctx, &tracer, &mut ledger).map(|t| {
            let spans_dir = base.join("spans");
            let path = spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match std::fs::create_dir_all(&spans_dir).and_then(|()| tracer.write_jsonl(&path)) {
                Ok(()) => println!(
                    "spans: {} records in {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => ledger.error(format!("writing spans: {e}")),
            }
            for line in perfbench::summary_lines(&t.timings) {
                println!("{line}");
            }
            println!("self time by span (ms):");
            for (name, tot) in measure::totals(&tracer.spans()) {
                println!(
                    "  {name}: self {:.3} busy {:.3} calls {}",
                    tot.self_ns as f64 / 1e6,
                    tot.busy_ns as f64 / 1e6,
                    tot.count
                );
            }
            let mut layers = t.layers;
            layers.insert(
                "failed_share",
                ledger.failed as f64 / ledger.attempted.max(1) as f64,
            );
            for (name, unit) in PER_LAYER {
                let v = layers.get(name).copied().unwrap_or(0.0);
                println!("  {name} = {v} {unit}");
                metrics.insert(name.to_string(), metric(v, unit));
            }
        })
    } else {
        perfbench::run_untraced(&args.workload, &ctx, &mut ledger).map(|u| {
            for line in perfbench::summary_lines(&u.named) {
                println!("{line}");
            }
            let samples = [
                ("setup_s", &u.setup_s),
                ("cpu_s", &u.cpu_s),
                ("primary_s", &u.primary_s),
                ("secondary_s", &u.secondary_s),
            ];
            for line in perfbench::summary_lines(
                &samples
                    .iter()
                    .map(|(n, v)| (*n, "s", (*v).clone()))
                    .collect::<Vec<_>>(),
            ) {
                println!("{line}");
            }
            println!("  peak_rss_mb = {} MB", measure::peak_rss_mb());
            println!(
                "  failed_share = {} ratio",
                ledger.failed as f64 / ledger.attempted.max(1) as f64
            );
            for (name, unit) in END_TO_END {
                let v = match name {
                    "peak_rss_mb" => measure::peak_rss_mb(),
                    _ => samples
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, v)| measure::median(v)),
                };
                metrics.insert(name.to_string(), metric(v, unit));
            }
        })
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome?;
    for f in &ledger.failures {
        println!("FAILED: {f}");
    }
    let result = json!({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted.max(1),
        "failed": ledger.failed,
        "metrics": Value::from(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agent") {
        let stats = match args.get(1..3) {
            Some([flag, path]) if flag == "--stats" => PathBuf::from(path),
            _ => {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            }
        };
        return match perfbench::envload::agent_main(&stats) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench agent: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
