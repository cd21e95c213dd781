//! Runs every workload at a tiny size through the real binary and checks
//! the result line: every metric present with its unit, no failed
//! operation, and a deliberately corrupted output counted as a failure.
//!
//! The remote-agent leg needs the `vsched` binary next to this package's
//! binary; the tests build it there if it is missing.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Once;

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn ensure_vsched() {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let bin = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
        let profile_dir = bin.parent().expect("binary has a directory");
        if profile_dir.join("vsched").is_file() {
            return;
        }
        let target = profile_dir
            .parent()
            .expect("profile directory has a parent");
        let mut cmd = Command::new(option_env!("CARGO").unwrap_or("cargo"));
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "vsched-cli",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target);
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("run cargo");
        assert!(status.success(), "building vsched-cli failed");
    });
}

/// Runs the binary and returns the parsed last line of stdout.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Value {
    ensure_vsched();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn assert_metrics(result: &Value, names: &[(&str, &str)], workload: &str) {
    let metrics = result["metrics"].as_map().expect("metrics object");
    assert_eq!(metrics.len(), names.len(), "{workload}: metric count");
    for (name, unit) in names {
        let m = &result["metrics"][*name];
        assert_eq!(
            m["unit"].as_str(),
            Some(*unit),
            "{workload}: unit of {name}"
        );
        let v = m["value"].as_f64().unwrap_or(f64::NAN);
        assert!(v.is_finite() && v >= 0.0, "{workload}: {name} = {v}");
    }
}

fn assert_clean(result: &Value, workload: &str) {
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {result}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {result}");
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = run(workload, 11 + i as u64, false, &[]);
        assert_clean(&result, workload);
        assert_metrics(&result, &END_TO_END, workload);
        for (name, _) in END_TO_END {
            let v = result["metrics"][name]["value"].as_f64().unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = run(workload, 21 + i as u64, true, &[]);
        assert_clean(&result, workload);
        assert_metrics(&result, &PER_LAYER, workload);
        let value = |name: &str| result["metrics"][name]["value"].as_f64().unwrap_or(0.0);
        assert_eq!(value("failed_share"), 0.0, "{workload}");
        assert!(value("trace_overhead") > 0.0, "{workload}");
        // Every workload runs the SAN engine somewhere.
        assert!(value("san.completions") > 0.0, "{workload}");
        assert!(value("core.san.ns_per_vcpu_tick") > 0.0, "{workload}");
    }
}

#[test]
fn corrupted_output_counts_as_failure() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = run(workload, 31 + i as u64, false, &["--corrupt"]);
        assert_eq!(
            result["correct"].as_bool(),
            Some(false),
            "{workload}: {result}"
        );
        assert!(
            result["failed"].as_u64().unwrap_or(0) >= 1,
            "{workload}: {result}"
        );
    }
}

#[test]
fn san_counts_repeat_exactly_at_a_fixed_seed() {
    let a = run("churn_1000vm", 41, true, &[]);
    let b = run("churn_1000vm", 41, true, &[]);
    for name in ["san.completions", "san.aborts", "trace.boundaries"] {
        assert_eq!(
            a["metrics"][name]["value"].as_f64(),
            b["metrics"][name]["value"].as_f64(),
            "{name}"
        );
    }
}
