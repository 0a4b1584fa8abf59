//! `atmbench` — the power-atm benchmark.
//!
//! Four workloads, each a stream of independent jobs (see `jobs.rs`);
//! one run measures one workload for a fixed wall time and at least
//! [`MIN_JOBS`] jobs, in one process with [`WORKERS`] worker threads.
//!
//! ```text
//! atmbench --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! atmbench --test
//! atmbench --compare <parent.jsonl> <change.jsonl> [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints a readable table to stderr and, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). The
//! full record — every metric, the host, and the digest of the
//! simulated results — is appended to `runs.jsonl` in the output
//! directory (`$CARGO_TARGET_DIR/simperf`, else `target/simperf` beside
//! this package); a traced run also writes its spans there as
//! `trace-<workload>-<seed>.json`. The process exits non-zero when any
//! correctness check fails.

mod jobs;
mod probes;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use atm_fleet::FleetConfig;
use atm_recovery::fnv1a64;

use atmbench::compare;
use atmbench::job_seed;
use atmbench::json;
use atmbench::record::{self, Metric, Record};
use atmbench::stats::{median, tail_percentile};
use atmbench::trace::{self, Tracer};

use jobs::{plain_run_digest, Job, Outcome, Workload, COUNT_NAMES};

/// Worker threads per job. The benchmark host has two vCPUs, but with
/// both busy its scheduling stalls land on every fleet epoch barrier: at
/// two workers `fleet_serve`'s `job_s_p90` spread 21–31% between runs,
/// at one worker 8–18%. Reports do not depend on the worker count
/// (checked on every run's warm-up job).
const WORKERS: usize = 1;
/// Jobs measured per run at least, so p90 has ten samples beyond it and
/// the simulated metrics cover a seed-determined prefix.
const MIN_JOBS: u64 = 100;
/// Fresh processes that measure `setup_s` and `peak_rss_mb` (medians are
/// reported).
const SETUP_ROUNDS: usize = 5;
/// Job index of the untimed warm-up job.
const WARMUP: u64 = u64::MAX;
/// Seed of the `--test` smoke run.
const SMOKE_SEED: u64 = 42;

/// The end-to-end metrics, reported by untraced runs.
const END_TO_END: [&str; 4] = ["setup_s", "job_s_p50", "job_s_p90", "peak_rss_mb"];

/// The per-layer metrics, reported by traced runs.
const PER_LAYER: [&str; 45] = [
    "core.charact_share",
    "core.deploy_share",
    "fleet.start_share",
    "fleet.epoch_share",
    "fleet.finish_share",
    "recovery.share",
    "ledger.unattributed_frac",
    "trace.overhead_frac",
    "chip.sim_ns_per_s",
    "chip.exact_sim_ns_per_s",
    "core.charact_s",
    "core.points",
    "core.cache_hit_ratio",
    "core.us_per_point",
    "core.idle_busy_s",
    "core.ubench_busy_s",
    "core.realistic_busy_s",
    "core.deploy_ms_per_chip",
    "serve.posture_ms_per_chip",
    "serve.chip_epoch_us",
    "serve.checkpoint_us",
    "fleet.start_s",
    "fleet.epoch_ms",
    "fleet.chip_epochs_per_s",
    "fleet.traffic_gen_ms",
    "fleet.route_us",
    "fleet.spawn_us",
    "fleet.start_pred_err",
    "fleet.epoch_pred_err",
    "recovery.clone_ms",
    "recovery.seal_ms",
    "recovery.verify_ms",
    "recovery.thaw_ms",
    "recovery.digest_kb",
    COUNT_NAMES[0],
    COUNT_NAMES[1],
    COUNT_NAMES[2],
    COUNT_NAMES[3],
    COUNT_NAMES[4],
    COUNT_NAMES[5],
    COUNT_NAMES[6],
    COUNT_NAMES[7],
    COUNT_NAMES[8],
    COUNT_NAMES[9],
    COUNT_NAMES[10],
];

/// How one run is sized.
struct Plan {
    workload: Workload,
    seed: u64,
    /// Wall time to keep measuring for, once `min_jobs` are done.
    seconds: f64,
    min_jobs: u64,
    trace: bool,
    /// Shrunken fleets and probes for `--test`.
    smoke: bool,
    setup_rounds: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("atmbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).map(String::as_str)
    };
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(parent), Some(change)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs <parent.jsonl> <change.jsonl>".to_owned());
        };
        return compare_files(
            parent,
            change,
            value("--bounds").unwrap_or("BENCHMARK.json"),
        );
    }
    if flag("--test") {
        return smoke_test();
    }
    let workload = value("--workload").ok_or("--workload <name> is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")
        .ok_or("--seed <n> is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let smoke = flag("--smoke");
    if flag("--setup-probe") {
        return setup_once(workload, seed, smoke).map(|()| ExitCode::SUCCESS);
    }
    let seconds = value("--seconds")
        .map_or(Ok(20.0), str::parse::<f64>)
        .map_err(|e| format!("--seconds: {e}"))?;
    // `--trace` alone or `--trace 1` traces; `--trace 0` does not.
    let trace = flag("--trace") && value("--trace") != Some("0");
    let plan = Plan {
        workload,
        seed,
        seconds,
        min_jobs: MIN_JOBS,
        trace,
        smoke,
        setup_rounds: SETUP_ROUNDS,
    };
    let record = measure(&plan)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir()?.join("runs.jsonl"))
        .and_then(|mut f| {
            std::io::Write::write_all(&mut f, format!("{}\n", record.to_json()).as_bytes())
        })
        .map_err(|e| format!("appending runs.jsonl: {e}"))?;
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", record.summary_json(names));
    Ok(if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Where traces and run records go.
fn out_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    let dir = target.join("simperf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One set-up: generate the warm-up job's inputs, run it, and print the
/// process's peak RSS.
fn setup_once(workload: Workload, seed: u64, smoke: bool) -> Result<(), String> {
    let job = workload.job(job_seed(seed, WARMUP), smoke);
    job.run(WORKERS, &mut Tracer::new(false))?;
    println!("{}", peak_rss_mb()?);
    Ok(())
}

/// Set-up time and memory, measured on `setup_rounds` fresh processes
/// that each start, generate the warm-up job's inputs and run it. Returns
/// the medians of their wall times and of their peak RSS.
fn fresh_processes(plan: &Plan) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..plan.setup_rounds {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--setup-probe",
            "--workload",
            plan.workload.name(),
            "--seed",
        ])
        .arg(plan.seed.to_string())
        .stdin(Stdio::null());
        if plan.smoke {
            cmd.arg("--smoke");
        }
        let t = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        walls.push(t.elapsed().as_secs_f64());
        if !out.status.success() {
            return Err(format!("a set-up process failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        rss.push(
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up process RSS `{text}`: {e}"))?,
        );
    }
    let med = |xs: &[f64]| median(xs).expect("at least one set-up round");
    Ok((med(&walls), med(&rss)))
}

/// Runs one workload as `plan` says and returns its record.
fn measure(plan: &Plan) -> Result<Record, String> {
    let w = plan.workload;
    let (setup_s, peak_rss_mb) = fresh_processes(plan)?;
    let mut problems = Vec::new();

    // Warm-up: fill lazy state, and check that the report does not depend
    // on the worker count (nor, for recovery, on sealing every epoch).
    let warm = w.job(job_seed(plan.seed, WARMUP), plan.smoke);
    let mut tr = Tracer::new(false);
    let one = warm.clone().run(WORKERS, &mut tr)?.1.outcome();
    let two = warm.clone().run(2, &mut tr)?.1.outcome();
    if one.digest != two.digest {
        problems.push("the warm-up report differs between 1 and 2 workers".to_owned());
    }
    if w == Workload::FleetRecover && plain_run_digest(&warm, WORKERS)? != Some(one.digest) {
        problems.push("the sealed-and-thawed run differs from a plain run".to_owned());
    }

    // The measured jobs. A traced run traces every other job, so the
    // untraced ones price the tracing.
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut prefix: Vec<Outcome> = Vec::new();
    let mut failed = 0;
    let mut i = 0;
    while i < plan.min_jobs || Instant::now() < deadline {
        let job = w.job(job_seed(plan.seed, i), plan.smoke);
        let traced = plan.trace && i % 2 == 1;
        tr.set_enabled(traced);
        tr.set_job(i);
        match job.run(WORKERS, &mut tr) {
            Ok((wall, out)) => {
                if traced {
                    &mut traced_walls
                } else {
                    &mut walls
                }
                .push(wall);
                let outcome = out.outcome();
                if !outcome.problems.is_empty() {
                    failed += 1;
                    problems.extend(outcome.problems.iter().cloned());
                }
                if i < plan.min_jobs {
                    prefix.push(outcome);
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("job {i}: {e}"));
            }
        }
        i += 1;
    }
    tr.set_enabled(false);
    if w == Workload::FleetRecover
        && prefix
            .iter()
            .all(|o| o.count("fleet.hard_failed_chips") == 0)
    {
        problems.push("no chip hard-failed, so failover never ran".to_owned());
    }

    let mut metrics = Vec::new();
    if plan.trace {
        metrics.extend(ledger(tr.spans(), &walls, &traced_walls));
        match run_probes(plan, &warm) {
            Ok(m) => metrics.extend(m),
            Err(e) => problems.push(format!("probe: {e}")),
        }
        for (k, name) in COUNT_NAMES.iter().enumerate() {
            let total: u64 = prefix.iter().map(|o| o.counts[k]).sum();
            metrics.push(Metric::new(
                name,
                total as f64 / prefix.len().max(1) as f64,
                "count",
            ));
        }
        let path = out_dir()?.join(format!("trace-{}-{}.json", w.name(), plan.seed));
        std::fs::write(&path, trace::chrome_json(tr.spans()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        metrics.push(Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new(
            "job_s_p50",
            median(&walls).ok_or("no job completed")?,
            "s",
        ));
        match tail_percentile(&walls, 90) {
            Some(p90) => metrics.push(Metric::new("job_s_p90", p90, "s")),
            None => problems.push(format!("p90 needs 100 completed jobs, got {}", walls.len())),
        }
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    }
    metrics.extend(simulated(&prefix));

    let record = Record {
        workload: w.name().to_owned(),
        seed: plan.seed,
        traced: plan.trace,
        correct: problems.is_empty() && failed == 0,
        attempted: i,
        failed,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        git_rev: git_rev(),
        sim_digest: format!(
            "{:016x}",
            fnv1a64(
                &prefix
                    .iter()
                    .flat_map(|o| o.digest.to_le_bytes())
                    .collect::<Vec<u8>>()
            )
        ),
        metrics,
    };
    print_table(&record, &problems);
    Ok(record)
}

/// Runs the probes on the warm-up job's chip seed and fleet; a
/// characterization workload has no fleet, so it probes a small standard
/// one from the same seed.
fn run_probes(plan: &Plan, warm: &Job) -> Result<Vec<Metric>, String> {
    let seed = job_seed(plan.seed, WARMUP);
    let (chips, size) = if plan.smoke {
        (
            4,
            probes::Size {
                chip_sim_ns: 50_000.0,
                epochs: 2,
            },
        )
    } else {
        (
            16,
            probes::Size {
                chip_sim_ns: 1_000_000.0,
                epochs: 8,
            },
        )
    };
    let fleet = match warm {
        Job::Fleet { cfg, .. } => cfg.clone(),
        Job::Characterize { .. } => FleetConfig::standard(seed)
            .with_chips(chips)
            .with_epochs(size.epochs),
    };
    probes::run(seed, &fleet, WORKERS, &size)
}

/// The span ledger of the traced jobs: each layer's share of job wall
/// time, the share no span covers, and the tracing overhead.
fn ledger(spans: &[trace::Span], untraced: &[f64], traced: &[f64]) -> Vec<Metric> {
    let job = trace::total_ns(spans, "job").max(1) as f64;
    let share =
        |names: &[&str]| names.iter().map(|n| trace::total_ns(spans, n)).sum::<u64>() as f64 / job;
    let overhead = match (median(traced), median(untraced)) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => 0.0,
    };
    vec![
        Metric::new("core.charact_share", share(&["core.charact"]), "ratio"),
        Metric::new("core.deploy_share", share(&["core.deploy"]), "ratio"),
        Metric::new("fleet.start_share", share(&["fleet.start"]), "ratio"),
        Metric::new("fleet.epoch_share", share(&["fleet.epoch"]), "ratio"),
        Metric::new("fleet.finish_share", share(&["fleet.finish"]), "ratio"),
        Metric::new(
            "recovery.share",
            share(&[
                "recovery.clone",
                "recovery.seal",
                "recovery.verify",
                "recovery.thaw",
            ]),
            "ratio",
        ),
        Metric::new(
            "ledger.unattributed_frac",
            trace::unattributed_frac(spans, "job").unwrap_or(0.0),
            "ratio",
        ),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// The simulated results over the seed-determined job prefix, identical
/// for equal seeds whatever the host: refused requests over generated,
/// and the median over jobs of each simulated quantity the workload has.
fn simulated(prefix: &[Outcome]) -> Vec<Metric> {
    let generated: u64 = prefix.iter().map(|o| o.generated).sum();
    let refused: u64 = prefix.iter().map(|o| o.refused).sum();
    let mut out = vec![Metric::new(
        "failed_frac",
        refused as f64 / generated.max(1) as f64,
        "ratio",
    )];
    let median_of = |xs: Vec<f64>| median(&xs);
    let medians = [
        (
            "sim_mean_mhz",
            "MHz",
            median_of(prefix.iter().filter_map(|o| o.mean_mhz).collect()),
        ),
        (
            "sim_p99_ms",
            "ms",
            median_of(
                prefix
                    .iter()
                    .filter_map(|o| o.p99_ns)
                    .map(|ns| ns as f64 / 1e6)
                    .collect(),
            ),
        ),
        (
            "sim_nj_per_req",
            "nJ",
            median_of(
                prefix
                    .iter()
                    .filter_map(|o| o.nj_per_req)
                    .map(|nj| nj as f64)
                    .collect(),
            ),
        ),
    ];
    for (name, unit, m) in medians {
        if let Some(m) = m {
            out.push(Metric::new(name, m, unit));
        }
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The checked-out revision, read from `./.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_table(r: &Record, problems: &[String]) {
    eprintln!(
        "atmbench {} seed {} ({}): {} jobs, {} failed, {} CPUs, rev {}, sim digest {}",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        r.nproc,
        r.git_rev,
        r.sim_digest
    );
    for m in &r.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in problems {
        eprintln!("  CHECK FAILED: {p}");
    }
}

/// `--test`: every workload at smoke size — shrunken fleets, three jobs
/// of which one is traced, every correctness check on.
fn smoke_test() -> Result<ExitCode, String> {
    let t = Instant::now();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let record = measure(&Plan {
            workload,
            seed: SMOKE_SEED,
            seconds: 0.0,
            min_jobs: 3,
            trace: true,
            smoke: true,
            setup_rounds: 1,
        })?;
        all_correct &= record.correct;
        println!("{}", record.to_json());
    }
    eprintln!(
        "atmbench --test: {} in {:.1} s",
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        },
        t.elapsed().as_secs_f64()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--compare`: prints the comparison table of two record files.
fn compare_files(parent: &str, change: &str, bounds: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let specs = compare::specs(&json::parse(&read(bounds)?)?)?;
    let parent = record::parse_lines(&read(parent)?)?;
    let change = record::parse_lines(&read(change)?)?;
    print!(
        "{}",
        compare::render(&compare::compare(&parent, &change, &specs))
    );
    for w in Workload::ALL.map(Workload::name) {
        let digests = |runs: &[Record]| -> Vec<(u64, String)> {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| (r.seed, r.sim_digest.clone()))
                .collect()
        };
        let (p, c) = (digests(&parent), digests(&change));
        let same = p.iter().filter(|d| c.contains(d)).count();
        let paired = p
            .iter()
            .filter(|(s, _)| c.iter().any(|(t, _)| t == s))
            .count();
        if paired > 0 {
            println!("{w}: simulated results identical on {same} of {paired} seed-paired runs");
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_metrics_are_the_ones_benchmark_json_declares() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let names = |list: &str| -> Vec<String> {
            doc.get(list)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
