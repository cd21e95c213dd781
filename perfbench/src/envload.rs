//! `env_episodes`: whole RL episodes on the paper's 2-PCPU machine
//! (`configs/fig8_fairness.json`, the `Scenario` default SAN engine, 1000
//! warm-up + 20000 measured epochs) with the relaxed co-scheduler (RCS)
//! as the agent.
//!
//! Each iteration plays one episode in process through `drive_policy`,
//! the same episode over the JSON-lines transport (`vsched env --agent`,
//! with this binary's single-threaded `agent` mode on the other end), and
//! the monolithic `ExperimentBuilder::run_replication` of the same seed.
//! The three must agree: the remote fingerprint and printed metrics equal
//! the in-process episode's, whose metrics equal the replication's.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::json;
use vsched_cli::ExperimentConfig;
use vsched_core::{ExperimentBuilder, PolicyKind, SampleMetrics};
use vsched_env::proto::{self, Message};
use vsched_env::{drive_policy, Env, EpisodeEnd, EpisodeRun, Scenario, PROTO_VERSION};

use crate::drive::{self, RepSpec, Work};
use crate::measure::{self, Tracer};
use crate::policy::TimedPolicy;
use crate::{secs, Budget, Ctx, Ledger, Size, Traced, Untraced};

fn rcs() -> PolicyKind {
    PolicyKind::relaxed_co_default()
}

fn config_path(ctx: &Ctx) -> PathBuf {
    ctx.root.join("configs/fig8_fairness.json")
}

/// The scenario `vsched env` builds from the same config and flags.
///
/// # Errors
///
/// Unreadable or invalid config.
pub fn scenario(ctx: &Ctx) -> Result<Scenario, String> {
    let path = config_path(ctx);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let config = ExperimentConfig::from_json(&text).map_err(|e| e.to_string())?;
    let mut s = Scenario::new(config.system().map_err(|e| e.to_string())?)
        .engine(config.engine_kind().map_err(|e| e.to_string())?)
        .warmup(config.warmup)
        .horizon(config.horizon);
    // Tiny episodes still take tens of CPU milliseconds, so the legs'
    // tick-resolution CPU times are never 0.
    if ctx.size == Size::Tiny {
        s = s.warmup(50).horizon(4000);
    }
    Ok(s)
}

fn inproc_episode(scenario: &Scenario, seed: u64) -> Result<EpisodeRun, String> {
    let mut policy = rcs().create();
    let mut env = Env::new(scenario.clone())
        .fields(policy.snapshot_view())
        .agent_name(policy.name());
    drive_policy(&mut env, &mut *policy, seed).map_err(|e| e.to_string())
}

fn replication(scenario: &Scenario, seed: u64) -> Result<SampleMetrics, String> {
    ExperimentBuilder::new(scenario.config.clone(), rcs())
        .engine(scenario.engine)
        .warmup(scenario.warmup)
        .horizon(scenario.horizon)
        .seed(seed)
        .run_replication(0)
        .map_err(|e| e.to_string())
}

/// What `vsched env --agent` printed, plus the agent's own statistics.
#[derive(Debug, Default)]
struct Remote {
    wall: f64,
    fingerprint: Option<u64>,
    metrics_line: Option<String>,
    ticks: Option<u64>,
    stats: Option<serde_json::Value>,
    spawned_unix_ns: u64,
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn quote(p: &Path) -> String {
    format!("'{}'", p.display().to_string().replace('\'', r"'\''"))
}

fn remote_episode(
    ctx: &Ctx,
    scenario: &Scenario,
    seed: u64,
    stats: &Path,
) -> Result<Remote, String> {
    let agent = format!("{} agent --stats {}", quote(&ctx.agent), quote(stats));
    let mut remote = Remote {
        spawned_unix_ns: unix_ns(),
        ..Remote::default()
    };
    let t = Instant::now();
    let out = Command::new(&ctx.vsched)
        .arg("env")
        .arg(config_path(ctx))
        .args(["--agent", &agent])
        .args(["--seed", &seed.to_string()])
        .args(["--warmup", &scenario.warmup.to_string()])
        .args(["--horizon", &scenario.horizon.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", ctx.vsched.display()))?;
    remote.wall = secs(t);
    if !out.status.success() {
        return Err(format!(
            "vsched env exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let line = line.trim();
        if let Some(hex) = line.strip_prefix("fingerprint 0x") {
            remote.fingerprint = u64::from_str_radix(hex, 16).ok();
        } else if line.starts_with("vcpu_utilization") {
            remote.metrics_line = Some(line.to_string());
        } else if let Some(rest) = line.split("finished ").nth(1) {
            remote.ticks = rest.split_whitespace().next().and_then(|n| n.parse().ok());
        }
    }
    remote.stats = std::fs::read_to_string(stats)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    Ok(remote)
}

/// The metrics line `vsched env` prints for an episode.
fn metrics_line(m: &SampleMetrics) -> String {
    format!(
        "vcpu_utilization {:.4}  vcpu_availability {:.4}  pcpu_utilization {:.4}",
        m.avg_vcpu_utilization(),
        m.avg_vcpu_availability(),
        m.avg_pcpu_utilization()
    )
}

fn check_remote(ledger: &mut Ledger, remote: &Remote, inproc: &EpisodeRun, scenario: &Scenario) {
    ledger.check(remote.fingerprint == Some(inproc.end.fingerprint), || {
        format!(
            "remote fingerprint {:?} != in-process {:#018x}",
            remote.fingerprint, inproc.end.fingerprint
        )
    });
    ledger.check(
        remote.metrics_line.as_deref() == Some(metrics_line(&inproc.end.metrics).as_str()),
        || {
            format!(
                "remote metrics {:?} differ from in-process",
                remote.metrics_line
            )
        },
    );
    ledger.check(remote.ticks == Some(scenario.epochs()), || {
        format!("remote episode ran {:?} ticks", remote.ticks)
    });
}

/// Times `n` set-ups (config to scenario to environment to first
/// observation) into `samples`.
fn setups(ctx: &Ctx, n: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let seed = ctx.seed.wrapping_add(samples.len() as u64);
        let t = Instant::now();
        let mut env = Env::new(self::scenario(ctx)?).fields(rcs().create().snapshot_view());
        let first = env.reset(seed);
        samples.push(secs(t));
        first.map_err(|e| format!("env reset: {e}"))?;
    }
    Ok(())
}

/// The untraced run: episode triples, with a round of set-up samples
/// before the first iteration and after each one (see [`Untraced::setup_s`]).
///
/// # Errors
///
/// Config failures.
pub fn untraced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Untraced, String> {
    let scenario = scenario(ctx)?;
    let mut u = Untraced::default();
    setups(ctx, 50, &mut u.setup_s)?;
    let stats = ctx.work.join("agent-stats.json");
    // The legs are timed in CPU seconds: their wall time is mostly
    // cross-thread and cross-process wake-ups, whose latency on a shared
    // virtual machine varied 2.7x across ten runs. Wall time is still
    // reported, as the named step rates.
    let (mut inproc_wall, mut remote_wall) = (Vec::new(), Vec::new());
    let mut budget = Budget::new(ctx.seconds, 200);
    let mut episode = 0u64;
    while budget.another() {
        let seed = ctx.seed.wrapping_add(episode);
        episode += 1;
        let cpu0 = measure::cpu_seconds();
        let t = Instant::now();
        let inproc = match inproc_episode(&scenario, seed) {
            Ok(run) => run,
            Err(e) => {
                ledger.error(format!("in-process episode: {e}"));
                continue;
            }
        };
        inproc_wall.push(secs(t));
        let cpu1 = measure::cpu_seconds();
        u.primary_s.push(cpu1 - cpu0);
        ledger.check(inproc.actions.len() as u64 == scenario.epochs(), || {
            format!("in-process episode took {} steps", inproc.actions.len())
        });
        match remote_episode(ctx, &scenario, seed, &stats) {
            Ok(mut remote) => {
                // Self and reaped children: `vsched env` and the agent it reaps.
                u.secondary_s.push(measure::cpu_seconds() - cpu1);
                remote_wall.push(remote.wall);
                if ctx.corrupt {
                    remote.fingerprint = remote.fingerprint.map(|f| f ^ 1);
                }
                check_remote(ledger, &remote, &inproc, &scenario);
            }
            Err(e) => ledger.error(format!("remote episode: {e}")),
        }
        match replication(&scenario, seed) {
            Ok(m) => ledger.check(m == inproc.end.metrics, || {
                "in-process episode metrics differ from run_replication".into()
            }),
            Err(e) => ledger.error(format!("run_replication: {e}")),
        }
        u.cpu_s.push(measure::cpu_seconds() - cpu0);
        setups(ctx, 50, &mut u.setup_s)?;
    }
    let epochs = scenario.epochs() as f64;
    let rate = |walls: &[f64]| walls.iter().map(|w| epochs / w).collect::<Vec<_>>();
    u.named = vec![
        ("env_steps_per_s", "1/s", rate(&inproc_wall)),
        ("env_remote_steps_per_s", "1/s", rate(&remote_wall)),
    ];
    Ok(u)
}

/// The traced run: three pairs of an untraced in-process episode and the
/// same episode through wrapped `reset`/`step` calls, then the engine
/// alone through a wrapped replication, and one remote episode whose
/// agent reports codec and round-trip times.
///
/// # Errors
///
/// Config failures.
pub fn traced(ctx: &Ctx, tracer: &Tracer, ledger: &mut Ledger) -> Result<Traced, String> {
    let scenario = scenario(ctx)?;
    let seed = ctx.seed;
    // Untraced and traced episodes alternate, so host drift hits both.
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut reference = None;
    for _ in 0..3 {
        let t = Instant::now();
        let run = inproc_episode(&scenario, seed)?;
        untraced_walls.push(secs(t));
        let t = Instant::now();
        let (end, steps) = traced_episode(tracer, &scenario, seed, ledger)?;
        traced_walls.push(secs(t));
        ledger.check(
            end.map(|e| e.fingerprint) == Some(run.end.fingerprint) && steps == scenario.epochs(),
            || "traced episode differs from drive_policy".into(),
        );
        reference = Some(run);
    }
    let reference = reference.expect("three episodes ran");
    let untraced_wall = measure::median(&untraced_walls);
    let traced_wall = measure::median(&traced_walls);

    // The engine alone: the program's replication, then a wrapped one.
    let t = Instant::now();
    let monolithic = replication(&scenario, seed);
    let engine_wall = secs(t);
    let work = Work::default();
    let wrapped = drive::replication(
        tracer,
        0,
        RepSpec {
            config: &scenario.config,
            policy: &rcs(),
            engine: scenario.engine,
            seed,
            warmup: scenario.warmup,
            horizon: scenario.horizon,
            schedule: None,
        },
        &work,
    );
    match (monolithic, wrapped) {
        (Ok(m), Ok(w)) => {
            ledger.check(m == reference.end.metrics, || {
                "in-process episode metrics differ from run_replication".into()
            });
            ledger.check(w == m, || {
                "wrapped replication differs from run_replication".into()
            });
        }
        (m, w) => ledger.error(format!("replication failed: {:?} / {:?}", m.err(), w.err())),
    }

    let stats_path = ctx.work.join("agent-stats.json");
    let remote = remote_episode(ctx, &scenario, seed, &stats_path);

    let totals = measure::totals(&tracer.spans());
    let mut out = Traced::default();
    let l = &mut out.layers;
    drive::layers(l, &totals, &work, 1);
    drive::policy_layers(
        l,
        &totals,
        &["core.direct.run", "core.san.run", "env.episode"],
    );
    if let Some(reset) = totals.get("env.reset") {
        l.insert("env.reset_ms", measure::median(&reset.durations) / 1e6);
    }
    if let Some(step) = totals.get("env.step") {
        let mut us: Vec<f64> = step.durations.iter().map(|d| d / 1e3).collect();
        us.sort_by(f64::total_cmp);
        l.insert("env.step_us.p50", measure::percentile(&us, 0.5));
        l.insert("env.step_us.p99", measure::percentile(&us, 0.99));
        let mean = us.iter().sum::<f64>() / us.len().max(1) as f64;
        let engine_tick_us = engine_wall * 1e6 / scenario.epochs() as f64;
        l.insert("env.rendezvous_us", mean - engine_tick_us);
        out.timings.push(("env.step_us", "us", us));
    }
    match remote {
        Ok(remote) => {
            check_remote(ledger, &remote, &reference, &scenario);
            agent_layers(l, &remote, &mut out.timings);
        }
        Err(e) => ledger.error(format!("remote episode: {e}")),
    }
    l.insert("trace_overhead", traced_wall / untraced_wall);
    out.timings
        .push(("env episode (untraced reference)", "s", untraced_walls));
    out.timings
        .push(("env episode (traced)", "s", traced_walls));
    Ok(out)
}

/// One episode through wrapped `reset`/`step` calls: a span per env call,
/// the policy's calls folded into aggregates. Returns the episode end and
/// the number of steps taken.
fn traced_episode(
    tracer: &Tracer,
    scenario: &Scenario,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<(Option<EpisodeEnd>, u64), String> {
    let (mut policy, clock) = TimedPolicy::wrap(rcs().create());
    let mut env = Env::new(scenario.clone())
        .fields(policy.snapshot_view())
        .agent_name(policy.name());
    let episode = tracer.open("env.episode", 0);
    let ep = episode.id();
    let span = tracer.open("env.reset", ep);
    let mut obs = env.reset(seed).map_err(|e| e.to_string())?;
    tracer.end(span);
    let from = Instant::now();
    let mut steps = 0u64;
    let end = loop {
        let action = policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice);
        let span = tracer.open("env.step", ep);
        let step = env.step(&action);
        tracer.end(span);
        steps += 1;
        match step {
            Ok(s) if s.done => break env.last_end().cloned(),
            Ok(s) => obs = s.obs,
            Err(e) => {
                ledger.error(format!("traced episode: {e}"));
                break None;
            }
        }
    };
    let c = clock.read();
    tracer.aggregate("core.sched", ep, from, c.sched_ns, c.calls);
    tracer.aggregate("core.validate", ep, from, c.validate_ns, c.calls);
    tracer.end(episode);
    Ok((end, steps))
}

fn agent_layers(
    l: &mut std::collections::BTreeMap<&'static str, f64>,
    remote: &Remote,
    timings: &mut Vec<(&'static str, &'static str, Vec<f64>)>,
) {
    let Some(stats) = &remote.stats else { return };
    let num = |k: &str| stats[k].as_f64();
    let per = |sum: &str, n: &str| match (num(sum), num(n)) {
        (Some(s), Some(n)) if n > 0.0 => s / n,
        _ => 0.0,
    };
    l.insert("env.proto.encode_ns", per("encode_ns", "encodes"));
    l.insert("env.proto.decode_ns", per("decode_ns", "decodes"));
    if let Some(first_obs) = num("first_obs_unix_ns") {
        l.insert(
            "cli.env_handshake_ms",
            (first_obs - remote.spawned_unix_ns as f64) / 1e6,
        );
    }
    if let Some(rtt) = stats["rtt_us"].as_array() {
        let mut us: Vec<f64> = rtt.iter().filter_map(serde_json::Value::as_f64).collect();
        us.sort_by(f64::total_cmp);
        l.insert("env.remote.rtt_us.p50", measure::percentile(&us, 0.5));
        l.insert("env.remote.rtt_us.p99", measure::percentile(&us, 0.99));
        timings.push(("env.remote.rtt_us", "us", us));
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The benchmark's remote agent: RCS over the JSON-lines protocol on
/// stdin/stdout, single-threaded. Writes codec and round-trip statistics
/// to `stats` when the env says goodbye or hangs up.
///
/// # Errors
///
/// Protocol or I/O failures.
pub fn agent_main(stats: &Path) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let stdout = std::io::stdout();
    let mut output = std::io::BufWriter::new(stdout.lock());
    let mut policy = rcs().create();
    let (mut encode_ns, mut encodes, mut decode_ns, mut decodes) = (0u64, 0u64, 0u64, 0u64);
    let mut rtt_us: Vec<f64> = Vec::new();
    let mut first_obs_unix_ns = None;
    let mut sent: Option<Instant> = None;
    let mut line = String::new();
    let mut greeted = false;
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        if let Some(t) = sent.take() {
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        let msg = proto::decode(&line)?;
        decode_ns += elapsed_ns(t);
        decodes += 1;
        let reply = match msg {
            Message::Hello { .. } if !greeted => {
                greeted = true;
                Message::Hello {
                    proto: PROTO_VERSION,
                    role: "agent".into(),
                    name: "perfbench-rcs".into(),
                    fields: policy
                        .snapshot_view()
                        .declared()
                        .iter()
                        .map(|s| (*s).to_string())
                        .collect(),
                }
            }
            Message::Obs {
                done: false,
                observation,
                ..
            } => {
                first_obs_unix_ns.get_or_insert_with(unix_ns);
                let d = policy.schedule(
                    &observation.vcpus,
                    &observation.pcpus,
                    observation.timestamp,
                    observation.default_timeslice,
                );
                Message::act(&d)
            }
            Message::Obs { done: true, .. } => continue,
            Message::Bye | Message::Error { .. } => break,
            other => return Err(format!("agent: unexpected message {other:?}")),
        };
        let t = Instant::now();
        let text = proto::encode(&reply);
        encode_ns += elapsed_ns(t);
        encodes += 1;
        output
            .write_all(text.as_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| e.to_string())?;
        sent = Some(Instant::now());
    }
    let body = json!({
        "encode_ns": encode_ns,
        "encodes": encodes,
        "decode_ns": decode_ns,
        "decodes": decodes,
        "first_obs_unix_ns": first_obs_unix_ns.unwrap_or(0),
        "rtt_us": rtt_us,
    });
    std::fs::write(
        stats,
        serde_json::to_string(&body).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", stats.display()))
}
