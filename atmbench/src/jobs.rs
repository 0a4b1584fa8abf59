//! The four workloads: how a job's inputs are generated from its seed,
//! how a job runs (with a span around every call into the stack), and
//! what its output is checked against.

use std::time::Instant;

use atm_adapt::AdaptConfig;
use atm_capping::{CapConfig, PowerBudget};
use atm_chip::{ChipConfig, System};
use atm_core::{AtmManager, CharactConfig, CharactEngine, EngineResult, Governor};
use atm_faults::{chip_killer, droop_storm, FleetFaultPlan};
use atm_fleet::{FailoverConfig, FleetConfig, FleetReport, FleetSim};
use atm_recovery::{state_digest, Snapshot};
use atm_silicon::DriftModel;
use atm_workloads::{realistic_set, Workload as App};

use atmbench::trace::{SpanId, Tracer};

/// A benchmark workload: a stream of independent jobs of one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full quick characterization of one chip, then its stress-test
    /// deploy: the paper's own pipeline.
    Characterize,
    /// A wide, short fleet: 128 chips × 2 epochs, dominated by per-chip
    /// deploy.
    FleetDeploy,
    /// A long horizon: 16 chips × 400 epochs with faults, drift,
    /// adaptation, failover and a binding power cap.
    FleetServe,
    /// 8 chips × 12 epochs with chips hard-failing, sealed, verified and
    /// thawed after every epoch.
    FleetRecover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Characterize,
        Workload::FleetDeploy,
        Workload::FleetServe,
        Workload::FleetRecover,
    ];

    /// The workload's name on the command line and in records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::FleetDeploy => "fleet_deploy",
            Workload::FleetServe => "fleet_serve",
            Workload::FleetRecover => "fleet_recover",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The inputs of the job with seed `s`. `smoke` shrinks the fleets
    /// for the `--test` run.
    #[must_use]
    pub fn job(self, s: u64, smoke: bool) -> Job {
        let (chips, epochs) = match (self, smoke) {
            (Workload::Characterize, _) => {
                return Job::Characterize {
                    chip: ChipConfig::power7_plus(s),
                    charact: CharactConfig::quick(),
                    apps: realistic_set(),
                }
            }
            (Workload::FleetDeploy, false) => (128, 2),
            (Workload::FleetDeploy, true) => (8, 2),
            (Workload::FleetServe, false) => (16, 400),
            (Workload::FleetServe, true) => (4, 20),
            (Workload::FleetRecover, false) => (8, 12),
            (Workload::FleetRecover, true) => (4, 6),
        };
        let mut cfg = FleetConfig::standard(s)
            .with_chips(chips)
            .with_epochs(epochs);
        match self {
            Workload::FleetServe => {
                cfg = cfg
                    .with_faults(FleetFaultPlan::new(droop_storm(), 4))
                    .with_drift(DriftModel::standard(s))
                    .with_adapt(AdaptConfig::standard())
                    .with_failover(FailoverConfig::default());
                cfg.chip.capping = Some(CapConfig::standard(PowerBudget::steady(100_000)));
            }
            Workload::FleetRecover => {
                cfg = cfg
                    .with_faults(FleetFaultPlan::new(chip_killer(25), 2))
                    .with_failover(FailoverConfig::default());
            }
            Workload::Characterize | Workload::FleetDeploy => {}
        }
        Job::Fleet {
            cfg,
            seal_every_epoch: self == Workload::FleetRecover,
        }
    }
}

/// One job's inputs. Jobs are built one at a time, so the variants'
/// size difference costs nothing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Job {
    /// Characterize `chip` over `apps`, then stress-test deploy it.
    Characterize {
        /// The chip (its silicon lot is the job seed).
        chip: ChipConfig,
        /// Campaign and stress-test parameters.
        charact: CharactConfig,
        /// Realistic applications of the campaign's third phase.
        apps: Vec<&'static App>,
    },
    /// Run a fleet to completion.
    Fleet {
        /// The fleet.
        cfg: FleetConfig,
        /// Continue from a sealed, verified, thawed checkpoint after
        /// every epoch.
        seal_every_epoch: bool,
    },
}

/// What a job produced.
pub enum Output {
    /// The campaign's result and the deployed manager.
    Characterize {
        /// Table I, per-phase detail and engine statistics.
        result: Box<EngineResult>,
        /// The deployed chip.
        mgr: Box<AtmManager>,
    },
    /// The fleet report.
    Fleet(Box<FleetReport>),
}

impl Job {
    /// Runs the job on `workers` threads and returns its wall time in
    /// seconds with its output. Every call into the stack gets a span
    /// under one `job` span when `tr` records.
    ///
    /// # Errors
    ///
    /// Returns the stack's error message if the fleet config is refused
    /// or a sealed checkpoint fails verification.
    pub fn run(self, workers: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        match self {
            Job::Characterize {
                chip,
                charact,
                apps,
            } => {
                let engine_chip = chip.clone();
                timed(tr, |tr, root| {
                    let result = tr.span("core.charact", root, || {
                        CharactEngine::new(engine_chip, charact).run_parallel(&apps, workers)
                    });
                    let mgr = tr.span("core.deploy", root, || {
                        AtmManager::deploy(System::new(chip), Governor::Default, &charact)
                    });
                    Ok(Output::Characterize {
                        result: Box::new(result),
                        mgr: Box::new(mgr),
                    })
                })
            }
            Job::Fleet {
                cfg,
                seal_every_epoch,
            } => timed(tr, |tr, root| {
                run_fleet(cfg, seal_every_epoch, workers, tr, root)
            }),
        }
    }
}

/// Times `body` under one `job` span and returns its wall seconds.
fn timed(
    tr: &mut Tracer,
    body: impl FnOnce(&mut Tracer, Option<SpanId>) -> Result<Output, String>,
) -> Result<(f64, Output), String> {
    let t0 = Instant::now();
    let root = tr.open("job", None);
    let out = body(tr, root);
    tr.close(root);
    let wall = t0.elapsed().as_secs_f64();
    out.map(|o| (wall, o))
}

fn run_fleet(
    cfg: FleetConfig,
    seal_every_epoch: bool,
    workers: usize,
    tr: &mut Tracer,
    root: Option<SpanId>,
) -> Result<Output, String> {
    let sim = FleetSim::new(cfg).map_err(|e| e.to_string())?;
    let mut run = tr.span("fleet.start", root, || sim.start(workers));
    while !run.done() {
        tr.span("fleet.epoch", root, || run.step_epoch(workers));
        if seal_every_epoch {
            let cp = tr.span("recovery.clone", root, || run.checkpoint());
            let sealed = tr.span("recovery.seal", root, || Snapshot::seal(cp));
            let cp = tr
                .span("recovery.verify", root, || sealed.into_state())
                .map_err(|e| e.to_string())?;
            // The replaced run and the spent checkpoint drop inside the
            // span, so their teardown is attributed too.
            tr.span("recovery.thaw", root, || {
                run = cp.thaw();
                drop(cp);
            });
        }
    }
    let report = tr.span("fleet.finish", root, || run.finish());
    Ok(Output::Fleet(Box::new(report)))
}

/// Names of the per-job report counters, in [`Outcome::counts`] order.
pub const COUNT_NAMES: [&str; 11] = [
    "fleet.generated",
    "fleet.deferred",
    "fleet.retried",
    "fleet.hard_failed_chips",
    "fleet.resurrected_chips",
    "fleet.critical_reroutes",
    "capping.over_budget_epochs",
    "capping.throttle_steps",
    "adapt.retightens",
    "adapt.probes_run",
    "supervisor.transitions",
];

/// A job's simulated results, reduced for the run's metrics and checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a 64 digest of the job's deterministic results.
    pub digest: u64,
    /// Failed correctness checks (empty when the job is correct).
    pub problems: Vec<String>,
    /// Mean deployed idle ATM frequency (characterization jobs).
    pub mean_mhz: Option<f64>,
    /// Fleet critical p99 latency, ns (fleet jobs).
    pub p99_ns: Option<u64>,
    /// Fleet energy per completed request, nJ (fleet jobs).
    pub nj_per_req: Option<u64>,
    /// Requests generated.
    pub generated: u64,
    /// Requests refused: shed by routing, shed by the retry ladder, or
    /// stranded on a chip.
    pub refused: u64,
    /// Report counters, named by [`COUNT_NAMES`].
    pub counts: [u64; COUNT_NAMES.len()],
}

impl Outcome {
    /// The report counter called `name` (one of [`COUNT_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a counter name.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        let k = COUNT_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("a known counter name");
        self.counts[k]
    }
}

impl Output {
    /// Digests and checks the output (outside the timed region).
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        match self {
            Output::Characterize { result, mgr } => {
                let mut problems = Vec::new();
                let t = &result.table;
                for i in 0..16 {
                    if !(t.thread_worst[i] <= t.thread_normal[i]
                        && t.thread_normal[i] <= t.ubench[i]
                        && t.ubench[i] <= t.idle[i])
                    {
                        problems.push(format!("core {i}: Table I limits are not monotone"));
                    }
                }
                let freqs = &mgr.deployed().idle_frequencies;
                if freqs.iter().any(|f| !f.get().is_finite() || f.get() <= 0.0) {
                    problems.push("a deployed idle frequency is not positive".to_owned());
                }
                let mean = freqs.iter().map(|f| f.get()).sum::<f64>() / freqs.len() as f64;
                Outcome {
                    digest: state_digest(&(
                        &result.table,
                        &result.idle,
                        &result.ubench,
                        &result.realistic,
                        mgr.deployed(),
                    )),
                    problems,
                    mean_mhz: Some(mean),
                    p99_ns: None,
                    nj_per_req: None,
                    generated: 0,
                    refused: 0,
                    counts: [0; COUNT_NAMES.len()],
                }
            }
            Output::Fleet(report) => {
                let mut problems = Vec::new();
                for (ok, law) in [
                    (report.conservation_holds(), "exactly-once conservation"),
                    (report.energy_conserved(), "energy conservation"),
                    (
                        report.drained_respected(),
                        "drained chips receive no critical work",
                    ),
                    (report.completed() > 0, "the fleet serves"),
                ] {
                    if !ok {
                        problems.push(format!("fleet seed {}: {law} violated", report.seed));
                    }
                }
                let r = &report.routing;
                let sum_caps = |f: fn(&atm_capping::CapReport) -> u32| {
                    report.caps.iter().map(|c| u64::from(f(c))).sum::<u64>()
                };
                let sum_adapt =
                    |f: fn(&atm_adapt::AdaptReport) -> u64| report.adapt.iter().map(f).sum::<u64>();
                Outcome {
                    digest: state_digest(report),
                    problems,
                    mean_mhz: None,
                    p99_ns: Some(report.critical.p99_ns),
                    nj_per_req: Some(report.energy_per_request_nj()),
                    generated: r.generated,
                    refused: r.shed
                        + r.retry_shed
                        + report.rows.iter().map(|row| row.shed).sum::<u64>(),
                    counts: [
                        r.generated,
                        r.deferred,
                        r.retried,
                        u64::from(r.hard_failed_chips),
                        u64::from(r.resurrected_chips),
                        r.critical_reroutes,
                        sum_caps(|c| c.over_budget_epochs),
                        sum_caps(|c| c.throttle_steps),
                        sum_adapt(|a| a.retightens),
                        sum_adapt(|a| a.probes_run),
                        report.rows.iter().map(|row| row.transitions).sum(),
                    ],
                }
            }
        }
    }
}

/// The digest of the same fleet run straight through by
/// [`FleetSim::run`], for checking that a sealed-and-thawed run resumed
/// byte-identically. `None` for characterization jobs.
///
/// # Errors
///
/// Returns the stack's error message if the fleet config is refused.
pub fn plain_run_digest(job: &Job, workers: usize) -> Result<Option<u64>, String> {
    match job {
        Job::Characterize { .. } => Ok(None),
        Job::Fleet { cfg, .. } => {
            let report = FleetSim::new(cfg.clone())
                .map_err(|e| e.to_string())?
                .run(workers);
            Ok(Some(state_digest(&report)))
        }
    }
}
