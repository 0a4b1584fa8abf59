//! Per-epoch chip stepping for fleet-scale simulation.
//!
//! [`ServeSim`](crate::ServeSim) owns its whole timeline: it generates
//! arrivals, loops over epochs, and returns one report. A *fleet* of
//! chips cannot work that way — a fleet-level router decides, at every
//! epoch barrier, which chip each request lands on, so the per-chip
//! serving machinery has to be steppable from the outside.
//!
//! [`ChipServer`] is that seam. Both front ends run the same chip-side
//! epoch body (drift → harvest → supervisor ladder → droop step-downs →
//! re-posture → adapter → regulator, in `epoch.rs`); what `ChipServer`
//! adds is dispatch of externally routed requests, the chip's account,
//! and checkpoint/resurrection. The fleet loop calls
//! [`ChipServer::step_epoch`] once per epoch with the requests routed to
//! this chip, reads a [`ChipSnapshot`] at the barrier to drive
//! placement, and finally folds the [`ChipSummary`] into the fleet
//! report. Every piece of state is integer-valued or deterministic, so a
//! chip stepped by any worker thread produces the same bytes.

use atm_adapt::{AdaptReport, Adapter};
use atm_capping::{CapConfig, CapReport, EnergyMeter, EnergyModel, EnergyReport};
use atm_chip::FaultHook;
use atm_core::{AtmManager, MarginSupervisor, QosTarget, SupervisorConfig};
use atm_silicon::DriftModel;
use atm_telemetry::NullRecorder;
use atm_units::{AtmError, MegaHz, Nanos};
use atm_workloads::{ServiceProfile, Workload};

use crate::epoch::{ChipEpoch, EpochAction, EpochInput};
use crate::histogram::LatencyHistogram;

/// Per-chip serving knobs — the subset of [`ServeConfig`](crate::ServeConfig)
/// that applies to one chip of a fleet (the fleet owns the timeline, the
/// seeds, and the traffic shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipServeConfig {
    /// The latency-critical workload each chip hosts.
    pub critical: Workload,
    /// Background workloads backfilling the remaining cores (round-robin).
    pub backgrounds: Vec<Workload>,
    /// QoS target for the critical stream (drives posture and budget).
    pub qos: QosTarget,
    /// Droop-alarm threshold armed on the chip; `None` disables alarms.
    pub droop_alarm: Option<MegaHz>,
    /// Chip-simulation time per epoch used to harvest chip events.
    pub chip_trial: Nanos,
    /// p99 SLO for critical requests, in nanoseconds (0 = no SLO).
    pub critical_slo_ns: u64,
    /// Epochs between periodic service-rate refreshes when nothing
    /// degraded.
    pub refresh_every: u32,
    /// Supervisor thresholds for this chip's margin-safety ladder.
    pub supervisor: SupervisorConfig,
    /// Optional power cap: budget schedule plus regulator knobs. Under a
    /// fleet budget the per-epoch split pushed in through
    /// [`ChipServer::set_epoch_cap_mw`] overrides the local schedule.
    pub capping: Option<CapConfig>,
    /// Optional integer picojoule energy accounting; when set, the chip's
    /// [`ChipSummary`] carries an [`EnergyReport`].
    pub energy: Option<EnergyModel>,
}

impl ChipServeConfig {
    /// Standard per-chip knobs over the given critical/background pair:
    /// 1 µs harvest trials, 25 MHz droop alarms, 10% QoS, 250 ms SLO.
    #[must_use]
    pub fn standard(critical: Workload, backgrounds: Vec<Workload>) -> Self {
        ChipServeConfig {
            critical,
            backgrounds,
            qos: QosTarget::improvement_pct(10.0),
            droop_alarm: Some(MegaHz::new(25.0)),
            chip_trial: Nanos::new(1_000.0),
            critical_slo_ns: 250_000_000,
            refresh_every: 4,
            supervisor: SupervisorConfig::default(),
            capping: None,
            energy: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `backgrounds` is empty,
    /// `chip_trial` is not positive and finite, or `refresh_every` is
    /// zero.
    pub fn check(&self) -> Result<(), AtmError> {
        if self.backgrounds.is_empty() {
            return Err(AtmError::invalid_config(
                "backgrounds",
                "need at least one background workload",
            ));
        }
        if !self.chip_trial.get().is_finite() || self.chip_trial.get() <= 0.0 {
            return Err(AtmError::invalid_config(
                "chip_trial",
                "must be positive and finite",
            ));
        }
        if self.refresh_every == 0 {
            return Err(AtmError::invalid_config(
                "refresh_every",
                "must be at least 1",
            ));
        }
        if let Some(capping) = &self.capping {
            capping.check()?;
        }
        if let Some(energy) = &self.energy {
            energy.check()?;
        }
        Ok(())
    }
}

/// One request routed to a chip for an epoch: arrival time on the global
/// fleet timeline, class, and the pre-drawn service jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipRequest {
    /// Arrival time (virtual ns from fleet-trace start).
    pub at: u64,
    /// Whether this is a critical-stream request.
    pub critical: bool,
    /// Uniform draw in `[0, 1)` for the request's service-time jitter.
    pub draw: f64,
}

/// The per-chip state the fleet router reads at each epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipSnapshot {
    /// Whether the chip is still running. A hard-failed chip stays in the
    /// fleet (its account survives for the final report) but must receive
    /// no traffic until the failover machinery resurrects it.
    pub alive: bool,
    /// Settled frequency of the fastest core still eligible for placement
    /// (not quarantined, not safe-moded), in whole MHz. Zero when every
    /// core is excluded.
    pub fastest_healthy_mhz: u64,
    /// Total queued-work backlog across serving cores, in ns past `now`.
    pub backlog_ns: u64,
    /// Cores quarantined by the supervisor (terminal).
    pub quarantined: u32,
    /// Cores held at the static-margin baseline by the supervisor.
    pub safe_mode: u32,
    /// The least healthy core's supervisor health score (0–100).
    pub min_health: u32,
}

/// The chip's final integer account, folded into the fleet report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipSummary {
    /// Requests served to completion.
    pub completed: u64,
    /// Requests stranded on this chip (background tier fully gated).
    pub shed: u64,
    /// Critical completions.
    pub critical_completed: u64,
    /// Critical completions that violated the SLO.
    pub critical_slo_violations: u64,
    /// p99 latency over every completion (ns).
    pub p99_ns: u64,
    /// Supervisor/degradation actions applied over the chip's lifetime.
    pub transitions: u64,
    /// Final quarantined-core count.
    pub quarantined: u32,
    /// Final safe-mode-core count.
    pub safe_mode: u32,
    /// Final fastest healthy core frequency (whole MHz).
    pub fastest_healthy_mhz: u64,
    /// The power regulator's account (absent unless the chip was capped).
    pub cap: Option<CapReport>,
    /// The energy meter's account (absent unless energy accounting ran).
    pub energy: Option<EnergyReport>,
}

/// What one [`ChipServer::step_epoch`] call could not absorb.
///
/// A live chip absorbs every request routed to it (dispatch is a
/// commitment), so `rejected` is empty. A chip that is dead — or died
/// during this epoch's harvest, before anything was dispatched — bounces
/// the whole batch back; the fleet's failover ladder owns their fate.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "rejected requests must be retried or shed, never dropped"]
pub struct EpochOutcome {
    /// Requests the chip could not serve because it is hard-failed.
    pub rejected: Vec<ChipRequest>,
}

/// One managed chip, steppable epoch by epoch (see the module docs).
///
/// The `Debug` rendering is exhaustive on purpose: it is the canonical
/// byte-identity witness the checkpoint machinery checksums, so every
/// field — all of them integer-valued, ordered maps, or
/// shortest-roundtrip floats — must appear in it.
#[derive(Debug, Clone)]
pub struct ChipServer {
    cfg: ChipServeConfig,
    /// The shared epoch body (manager, posture, queues, regulator, …).
    chip: ChipEpoch,
    supervisor: MarginSupervisor,
    /// Service profiles of the critical, then each background, workload.
    profiles: Vec<ServiceProfile>,
    crit_hist: LatencyHistogram,
    bg_hist: LatencyHistogram,
    completed: u64,
    shed: u64,
    critical_completed: u64,
    critical_slo_violations: u64,
    transitions: u64,
    epoch: u32,
    /// The epoch this chip hard-failed (`None` = alive). A dead chip
    /// rejects every routed request and skips its harvest until
    /// resurrected.
    dead_since: Option<u32>,
}

/// A sealed deep copy of a [`ChipServer`] taken at an epoch barrier.
///
/// Restoring one and stepping forward is byte-identical to having never
/// left: the copy carries the manager, the supervisor ladder, the queues,
/// the histograms, the regulator integral and the adapter's learned
/// state. [`ChipServer::resurrect_from`] uses the same capsule but keeps
/// the cumulative account (see its docs).
#[derive(Debug, Clone)]
pub struct ChipServerCheckpoint {
    state: ChipServer,
}

impl ChipServerCheckpoint {
    /// Materializes a fresh server from the checkpoint — equivalent to
    /// [`ChipServer::restore`] without needing a server to restore into.
    #[must_use]
    pub fn thaw(&self) -> ChipServer {
        self.state.clone()
    }
}

impl ChipServer {
    /// Postures a deployed manager for incremental serving.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if the config fails
    /// [`ChipServeConfig::check`].
    pub fn new(mgr: AtmManager, cfg: ChipServeConfig) -> Result<Self, AtmError> {
        cfg.check()?;
        let mut supervisor = MarginSupervisor::new(cfg.supervisor);
        let chip = ChipEpoch::new(mgr, &cfg, Some(&mut supervisor), &mut NullRecorder)?;
        let profiles = std::iter::once(&cfg.critical)
            .chain(&cfg.backgrounds)
            .map(Workload::service_profile)
            .collect();
        Ok(ChipServer {
            cfg,
            chip,
            supervisor,
            profiles,
            crit_hist: LatencyHistogram::new(),
            bg_hist: LatencyHistogram::new(),
            completed: 0,
            shed: 0,
            critical_completed: 0,
            critical_slo_violations: 0,
            transitions: 0,
            epoch: 0,
            dead_since: None,
        })
    }

    /// Installs an online adapter (replacing the default
    /// [`NullAdapter`](atm_adapt::NullAdapter)).
    pub fn set_adapter(&mut self, adapter: Box<dyn Adapter>) {
        self.chip.adapter = adapter;
    }

    /// Arms epoch-by-epoch silicon drift (aging + seasonal temperature).
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.chip.drift = Some(drift);
    }

    /// The adapter's account, if one is running.
    #[must_use]
    pub fn adapt_report(&self) -> Option<AdaptReport> {
        self.chip.adapter.report()
    }

    /// Overrides the cap in force for subsequent epochs, in milliwatts —
    /// the fleet budget's per-epoch split seam. `None` reverts to the
    /// chip's own schedule. Ignored on an uncapped chip.
    pub fn set_epoch_cap_mw(&mut self, cap_mw: Option<u64>) {
        if let Some(cap) = self.chip.cap.as_mut() {
            cap.override_mw = cap_mw;
        }
    }

    /// The power regulator's account so far, if the chip is capped.
    #[must_use]
    pub fn cap_report(&self) -> Option<&CapReport> {
        self.chip.cap.as_ref().map(|c| &c.report)
    }

    /// The energy meter's account so far, if energy accounting is on.
    #[must_use]
    pub fn energy_report(&self) -> Option<EnergyReport> {
        self.chip.meter.as_ref().map(EnergyMeter::report)
    }

    /// Steps one serving epoch: runs the shared chip-side epoch body
    /// (harvest through `faults` when armed, supervisor ladder, droop
    /// step-downs, adapter, regulator) and dispatches `requests` — which
    /// must be sorted by arrival time — onto the per-core queues.
    ///
    /// The caller (the fleet loop) owns the timeline: requests carry
    /// global timestamps and this chip only ever sees the ones routed to
    /// it.
    ///
    /// A dead chip — hard-failed in a previous epoch, or during this
    /// epoch's harvest trial, before anything was dispatched — rejects
    /// the whole batch through the returned [`EpochOutcome`] and performs
    /// no work beyond advancing its epoch counter.
    pub fn step_epoch(
        &mut self,
        requests: &[ChipRequest],
        faults: Option<&mut dyn FaultHook>,
    ) -> EpochOutcome {
        let epoch = self.epoch;
        self.epoch += 1;
        // The epoch boundary on the fleet timeline: the first routed
        // arrival. An empty epoch means every queue has drained relative
        // to any later boundary, so the backlog reads zero either way.
        let now = requests.first().map_or(u64::MAX, |r| r.at);
        let actions = self.dead_since.is_none().then(|| {
            self.chip.step(
                &self.cfg,
                EpochInput {
                    epoch,
                    now,
                    supervisor: Some(&mut self.supervisor),
                    faults,
                    injected: &[],
                },
                &mut NullRecorder,
            )
        });
        let Some(Some(actions)) = actions else {
            // Dead, or hard-failed in this epoch's harvest: the machine
            // stays frozen where the abort left it (the account survives
            // for the final report), the batch was never dispatched so it
            // bounces intact, and the fleet's failover ladder takes over.
            self.dead_since.get_or_insert(epoch);
            return EpochOutcome {
                rejected: requests.to_vec(),
            };
        };
        // Transitions count supervisor actions and droop step-downs.
        use EpochAction as A;
        self.transitions += actions
            .iter()
            .filter(|a| matches!(a, A::Supervisor(_) | A::ThrottleDown { .. }))
            .count() as u64;
        let (mut busy_ns, mut completed) = (0, 0);
        for req in requests {
            if let Some(service) = self.dispatch(req) {
                busy_ns += service;
                completed += 1;
            }
        }
        self.chip.close(busy_ns, completed);
        EpochOutcome::default()
    }

    /// Serves one request on the posture's queues; returns its service
    /// time, or `None` when it was shed.
    fn dispatch(&mut self, req: &ChipRequest) -> Option<u64> {
        let Some(core) = self.chip.route(req.critical, usize::MAX) else {
            // Whole background tier gated: nothing can serve it.
            self.shed += 1;
            return None;
        };
        // The critical core hosts the critical workload; the background
        // cores host the background workloads round-robin in placement
        // order.
        let background = &self.chip.posture.placement.background_cores;
        let (workload, profile) = match background.iter().position(|c| *c == core) {
            Some(i) => {
                let i = i % self.cfg.backgrounds.len();
                (&self.cfg.backgrounds[i], &self.profiles[1 + i])
            }
            None => (&self.cfg.critical, &self.profiles[0]),
        };
        let (service, finish) = self.chip.serve(core, req, workload, profile);
        let latency = finish - req.at;
        self.completed += 1;
        if req.critical {
            self.crit_hist.record(latency);
            self.critical_completed += 1;
            if self.cfg.critical_slo_ns > 0 && latency > self.cfg.critical_slo_ns {
                self.critical_slo_violations += 1;
            }
        } else {
            self.bg_hist.record(latency);
        }
        Some(service)
    }

    /// The barrier-time view the fleet router places traffic with.
    #[must_use]
    pub fn snapshot(&self, now: u64) -> ChipSnapshot {
        let excluded = self.chip.mgr.supervisor_excluded();
        let fastest = self
            .chip
            .posture
            .core_freqs
            .iter()
            .filter(|(c, _)| !excluded.contains(c))
            .map(|(_, f)| f.get().round() as u64)
            .max()
            .unwrap_or(0);

        let mut min_health = 100;
        for (core, _) in &self.chip.posture.core_freqs {
            min_health = min_health.min(self.supervisor.health(*core));
        }
        ChipSnapshot {
            alive: self.dead_since.is_none(),
            fastest_healthy_mhz: fastest,
            backlog_ns: self.chip.backlog_ns(now),
            quarantined: self.chip.mgr.quarantined_cores().len() as u32,
            safe_mode: self.chip.mgr.safe_mode_cores().len() as u32,
            min_health,
        }
    }

    /// Whether the chip has hard-failed and not been resurrected.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead_since.is_some()
    }

    /// The epoch the chip hard-failed, if it is dead.
    #[must_use]
    pub fn dead_since(&self) -> Option<u32> {
        self.dead_since
    }

    /// The chip's current epoch counter (epochs stepped so far).
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Seals a deep copy of the whole serving state. Restoring it and
    /// stepping forward is byte-identical to never having stopped.
    #[must_use]
    pub fn checkpoint(&self) -> ChipServerCheckpoint {
        ChipServerCheckpoint {
            state: self.clone(),
        }
    }

    /// Rewinds the chip to `cp`, exactly — machine, queues, histograms
    /// and counters all return to the sealed instant.
    pub fn restore(&mut self, cp: &ChipServerCheckpoint) {
        *self = cp.state.clone();
    }

    /// Brings a hard-failed chip back from `cp` with failover semantics:
    /// the *machine* rewinds (manager, supervisor ladder, posture,
    /// degradation policy, adapter's learned state, regulator control
    /// state), but the *account* does not — completions, sheds, latency
    /// histograms, the energy meter and the regulator's report keep their
    /// cumulative values so exactly-once accounting survives the
    /// resurrection. Queues come back cold (`free_at` cleared) and the
    /// epoch counter keeps the fleet's current position on the timeline.
    ///
    /// The fleet layer is expected to follow this with a supervisor-style
    /// probation window before trusting the chip with critical traffic.
    pub fn resurrect_from(&mut self, cp: &ChipServerCheckpoint) {
        let machine = cp.state.clone();
        self.cfg = machine.cfg;
        self.chip.resurrect_from(machine.chip);
        self.supervisor = machine.supervisor;
        self.dead_since = None;
    }

    /// The critical- and background-latency histograms (for fleet-level
    /// merging).
    #[must_use]
    pub fn histograms(&self) -> (&LatencyHistogram, &LatencyHistogram) {
        (&self.crit_hist, &self.bg_hist)
    }

    /// The supervisor watching this chip.
    #[must_use]
    pub fn supervisor(&self) -> &MarginSupervisor {
        &self.supervisor
    }

    /// Closes the chip's account.
    #[must_use]
    pub fn summary(&self) -> ChipSummary {
        let mut all = self.crit_hist.clone();
        all.merge(&self.bg_hist);
        let snap = self.snapshot(u64::MAX);
        ChipSummary {
            completed: self.completed,
            shed: self.shed,
            critical_completed: self.critical_completed,
            critical_slo_violations: self.critical_slo_violations,
            p99_ns: all.quantile(0.99),
            transitions: self.transitions,
            quarantined: snap.quarantined,
            safe_mode: snap.safe_mode,
            fastest_healthy_mhz: snap.fastest_healthy_mhz,
            cap: self.cap_report().cloned(),
            energy: self.energy_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_capping::PowerBudget;
    use atm_chip::{ChipConfig, FailureKind, FaultAction, System};
    use atm_core::charact::CharactConfig;
    use atm_core::Governor;
    use atm_units::CoreId;
    use atm_workloads::by_name;

    fn server(seed: u64) -> ChipServer {
        capped_server(seed, None)
    }

    fn capped_server(seed: u64, capping: Option<CapConfig>) -> ChipServer {
        let sys = System::new(ChipConfig::power7_plus(seed));
        let mgr = AtmManager::deploy(
            sys,
            Governor::Default,
            &CharactConfig::builder()
                .trial(Nanos::new(2_000.0))
                .repeats(1)
                .build()
                .unwrap(),
        );
        let cfg = ChipServeConfig {
            capping,
            ..ChipServeConfig::standard(
                by_name("squeezenet").unwrap().clone(),
                vec![by_name("x264").unwrap().clone()],
            )
        };
        ChipServer::new(mgr, cfg).unwrap()
    }

    fn traffic(epoch: u64, epoch_ns: u64) -> Vec<ChipRequest> {
        (0..20)
            .map(|i| ChipRequest {
                at: epoch * epoch_ns + i * (epoch_ns / 20),
                critical: i.is_multiple_of(5),
                draw: f64::from(u32::try_from(i).unwrap()) / 20.0,
            })
            .collect()
    }

    #[test]
    fn stepping_is_deterministic() {
        let run = || {
            let mut srv = server(42);
            for e in 0..3u64 {
                let out = srv.step_epoch(&traffic(e, 1_000_000), None);
                assert!(out.rejected.is_empty(), "live chip absorbed everything");
            }
            (format!("{:?}", srv.summary()), srv.snapshot(3_000_000))
        };
        let (a, snap_a) = run();
        let (b, snap_b) = run();
        assert_eq!(a, b);
        assert_eq!(snap_a, snap_b);
    }

    #[test]
    fn served_requests_land_in_the_account() {
        let mut srv = server(7);
        let out = srv.step_epoch(&traffic(0, 1_000_000), None);
        assert!(out.rejected.is_empty());
        let summary = srv.summary();
        assert_eq!(summary.completed + summary.shed, 20);
        assert!(summary.critical_completed >= 1);
        let snap = srv.snapshot(1_000_000);
        assert!(snap.fastest_healthy_mhz > 4_000, "{snap:?}");
        assert_eq!(snap.quarantined, 0);
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut srv = server(42);
        let _ = srv.step_epoch(&traffic(0, 1_000_000), None);
        let cp = srv.checkpoint();
        for e in 1..3u64 {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        let gold = format!("{srv:#?}");
        srv.restore(&cp);
        for e in 1..3u64 {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        assert_eq!(format!("{srv:#?}"), gold);
    }

    #[test]
    fn hard_fail_bounces_batches_and_resurrection_keeps_the_account() {
        struct Killer;
        impl FaultHook for Killer {
            fn armed(&self) -> bool {
                true
            }
            fn on_tick(&mut self, _now: Nanos, tick: u64, out: &mut Vec<FaultAction>) {
                if tick == 0 {
                    out.push(FaultAction::ChipHardFail {
                        core: CoreId::new(0, 0),
                    });
                }
            }
        }

        let mut srv = server(42);
        let _ = srv.step_epoch(&traffic(0, 1_000_000), None);
        let cp = srv.checkpoint();
        let completed_before = srv.summary().completed;

        let batch = traffic(1, 1_000_000);
        let mut killer = Killer;
        let out = srv.step_epoch(&batch, Some(&mut killer));
        assert!(srv.is_dead());
        assert_eq!(srv.dead_since(), Some(1));
        assert_eq!(out.rejected, batch, "nothing dispatched on the death epoch");
        assert!(!srv.snapshot(2_000_000).alive);
        // Dead chips keep bouncing until resurrected.
        let out = srv.step_epoch(&batch, None);
        assert_eq!(out.rejected.len(), batch.len());
        assert_eq!(srv.summary().completed, completed_before);

        srv.resurrect_from(&cp);
        assert!(!srv.is_dead());
        assert_eq!(
            srv.summary().completed,
            completed_before,
            "the cumulative account survives resurrection"
        );
        let out = srv.step_epoch(&traffic(3, 1_000_000), None);
        assert!(out.rejected.is_empty());
        assert!(srv.summary().completed > completed_before);
    }

    /// Forces a timing failure on `core` at the first tick of the trial.
    struct FailOnce(CoreId);

    impl FaultHook for FailOnce {
        fn armed(&self) -> bool {
            true
        }
        fn on_tick(&mut self, _now: Nanos, tick: u64, out: &mut Vec<FaultAction>) {
            if tick == 0 {
                out.push(FaultAction::ForceFailure {
                    core: self.0,
                    kind: FailureKind::SystemCrash,
                });
            }
        }
    }

    /// Supervisor rollbacks outrank the regulator on the fleet path too:
    /// the cap loosens in exactly the epoch a rollback fires, so the
    /// regulator proposes a release there — which is suppressed, and the
    /// depth does not drop in that epoch.
    #[test]
    fn cap_release_in_a_supervisor_rollback_epoch_is_suppressed() {
        const FAIL_EPOCH: u64 = 6;
        let capped = |budget| capped_server(42, Some(CapConfig::standard(budget)));
        let mut probe = capped(PowerBudget::unlimited());
        let _ = probe.step_epoch(&traffic(0, 1_000_000), None);
        let base_mw = probe.cap_report().unwrap().power_mw[0];

        let mut srv = capped(PowerBudget::steady(base_mw * 7 / 10));
        for e in 0..FAIL_EPOCH {
            let _ = srv.step_epoch(&traffic(e, 1_000_000), None);
        }
        let before = srv.cap_report().unwrap().clone();
        assert!(
            before.final_depth > 0,
            "the tight cap never wound up depth: {before}"
        );
        let transitions = srv.summary().transitions;
        srv.set_epoch_cap_mw(Some(base_mw * 2));
        let critical = srv.chip.posture.placement.critical_core;
        let _ = srv.step_epoch(
            &traffic(FAIL_EPOCH, 1_000_000),
            Some(&mut FailOnce(critical)),
        );
        let after = srv.cap_report().unwrap();
        assert!(
            srv.summary().transitions > transitions,
            "the forced failure must fire the supervisor"
        );
        assert!(
            after.releases_suppressed > before.releases_suppressed,
            "the loosened cap must have proposed a release to suppress: {after}"
        );
        assert!(
            after.final_depth >= before.final_depth,
            "the regulator released in the rollback epoch: {:?}",
            after.depth
        );
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let cfg = ChipServeConfig {
            backgrounds: Vec::new(),
            ..ChipServeConfig::standard(
                by_name("squeezenet").unwrap().clone(),
                vec![by_name("x264").unwrap().clone()],
            )
        };
        assert!(cfg.check().is_err());
        let cfg = ChipServeConfig {
            refresh_every: 0,
            ..ChipServeConfig::standard(
                by_name("squeezenet").unwrap().clone(),
                vec![by_name("x264").unwrap().clone()],
            )
        };
        assert!(cfg.check().is_err());
    }
}
