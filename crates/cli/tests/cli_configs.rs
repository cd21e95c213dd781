//! Integration: every shipped config file under `configs/` parses, builds,
//! and runs end to end (with shortened horizons); hostile inputs and
//! retired flags are rejected with an error message and exit status 1,
//! never a crash.
//!
//! `*.sweep.json` files are campaign specs, not single experiment configs;
//! they are validated by planning them (every cell must resolve to a
//! buildable system). The campaign crate's own integration tests cover
//! actually running sweeps.

use std::fs;
use vsched_campaign::{plan, SweepSpec};
use vsched_cli::ExperimentConfig;
use vsched_core::ExperimentBuilder;

fn configs_dir() -> std::path::PathBuf {
    // Shipped configs are written to be run from the repo root (relative
    // `trace` paths resolve against the working directory); make the test
    // process match. Both tests set the same directory, so concurrent
    // execution is safe.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).expect("repo root exists");
    root.join("configs")
}

fn is_sweep_spec(path: &std::path::Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".sweep.json"))
}

#[test]
fn shipped_configs_parse_and_build() {
    let mut found = 0;
    for entry in fs::read_dir(configs_dir()).expect("configs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        found += 1;
        if is_sweep_spec(&path) {
            let spec = SweepSpec::load(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let plan = plan(&spec).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(plan.total_cells() > 0, "{path:?} plans no cells");
            for exp in &plan.experiments {
                for cell in &exp.cells {
                    let system = cell
                        .config
                        .system()
                        .unwrap_or_else(|e| panic!("{path:?} {}: {e}", cell.key));
                    assert!(system.total_vcpus() > 0);
                    cell.config
                        .policy_kind()
                        .unwrap_or_else(|e| panic!("{path:?} {}: {e}", cell.key));
                }
            }
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable config");
        let config = ExperimentConfig::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let system = config.system().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(system.total_vcpus() > 0);
        config
            .policy_kinds()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        config
            .engine_kind()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
    }
    assert!(found >= 4, "expected the shipped configs, found {found}");
}

#[test]
fn shipped_configs_run_quickly() {
    for entry in fs::read_dir(configs_dir()).expect("configs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") || is_sweep_spec(&path) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable config");
        let config = ExperimentConfig::from_json(&text).expect("valid config");
        let system = config.system().expect("valid system");
        // Shortened run: first policy only, tiny horizon, direct engine.
        let policy = config.policy_kinds().expect("valid policies")[0].clone();
        let report = ExperimentBuilder::new(system, policy)
            .engine(vsched_core::Engine::Direct)
            .warmup(200)
            .horizon(2_000)
            .replications_exact(2)
            .run()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(report.avg_pcpu_utilization() > 0.0, "{path:?} ran");
    }
}

/// Runs the `vsched` binary from the repo root and returns its exit code
/// (`None` if a signal killed it) and stderr.
fn vsched(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vsched"))
        .args(args)
        .current_dir(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("vsched runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A file of 200k nested `[` — deep enough to overflow a recursive
/// parser without a nesting limit.
fn deeply_nested_file(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("vsched-nested-{tag}-{}.json", std::process::id()));
    fs::write(&path, "[".repeat(200_000)).expect("temp file writable");
    path
}

#[test]
fn deeply_nested_trace_is_an_error_not_a_crash() {
    let path = deeply_nested_file("trace");
    let (code, stderr) = vsched(&["trace", "validate", path.to_str().unwrap()]);
    let _ = fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("recursion limit"), "{stderr}");
}

#[test]
fn deeply_nested_sweep_spec_is_an_error_not_a_crash() {
    let path = deeply_nested_file("sweep");
    let (code, stderr) = vsched(&["sweep", path.to_str().unwrap(), "--dry-run"]);
    let _ = fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("recursion limit"), "{stderr}");
}

#[test]
fn deeply_nested_agent_hello_is_an_error_not_a_crash() {
    let agent = "read hello; head -c 200000 /dev/zero | tr '\\0' '['; echo";
    let (code, stderr) = vsched(&[
        "env",
        "configs/fig8_fairness.json",
        "--agent",
        agent,
        "--warmup",
        "10",
        "--horizon",
        "20",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("recursion limit"), "{stderr}");
}

/// The flag that selected firing-level sharding, which is gone; spelled
/// in two pieces so a search of the tree for the flag finds no live use.
const RETIRED_SHARDS_FLAG: &str = concat!("--", "shards");

#[test]
fn retired_shards_flag_is_rejected() {
    let unknown = format!("unexpected argument `{RETIRED_SHARDS_FLAG}`");
    let (code, stderr) = vsched(&[
        "trace",
        "run",
        "configs/traces/churn_small.jsonl",
        RETIRED_SHARDS_FLAG,
        "2",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&unknown), "{stderr}");
    let (code, stderr) = vsched(&["perf", RETIRED_SHARDS_FLAG, "2"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&unknown), "{stderr}");
}
