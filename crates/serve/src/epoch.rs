//! The chip side of one serving epoch, shared by [`ServeSim`] and
//! [`ChipServer`].
//!
//! The paper's management policy is one control loop per chip, run once
//! per epoch: silicon drift → a short hardware trial harvesting CPM
//! failures and droop alarms → the supervisor ladder (or, without one,
//! the plain policy's per-failure rollback) plus droop step-downs of the
//! background tier → re-posture, re-throttle or refresh → the online
//! adapter → the power regulator. Both front ends run exactly this body;
//! they differ only in where requests come from and how they are
//! accounted.
//!
//! [`ServeSim`]: crate::ServeSim
//! [`ChipServer`]: crate::ChipServer

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use atm_adapt::{AdaptContext, Adapter, NullAdapter};
use atm_capping::{CapAction, CapConfig, CapReport, EnergyMeter, PowerRegulator};
use atm_chip::{ChipEvent, FailureEvent, FailureKind, FaultHook, PStateTable, SystemReport};
use atm_core::{AtmManager, MarginSupervisor, ServePosture, SupervisorAction};
use atm_silicon::DriftModel;
use atm_telemetry::Recorder;
use atm_units::{AtmError, CoreId, MegaHz, ProcId};
use atm_workloads::{ServiceProfile, Workload};

use crate::chipstep::{ChipRequest, ChipServeConfig};
use crate::degrade::{DegradationPolicy, DegradeAction};

/// The per-epoch inputs of [`ChipEpoch::step`].
pub(crate) struct EpochInput<'a, 'h> {
    pub epoch: u32,
    /// The serving-timeline instant queues are measured against.
    pub now: u64,
    /// The margin-safety supervisor, when one owns the failure response.
    pub supervisor: Option<&'a mut MarginSupervisor>,
    /// The fault hook the harvest trial runs through, when armed.
    pub faults: Option<&'a mut (dyn FaultHook + 'h)>,
    /// Synthetic failures delivered with this epoch's chip events.
    pub injected: &'a [FailureEvent],
}

/// One management action an epoch applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EpochAction {
    /// A rung of the supervisor's strike ladder.
    Supervisor(SupervisorAction),
    /// The plain policy rolled `core` back to CPM reduction `reduction`.
    Rollback {
        core: CoreId,
        reduction: usize,
        cause: String,
    },
    /// Droop alarms on `core` stepped the background throttle down.
    ThrottleDown { core: CoreId },
    /// The online adapter re-tightened at least one core.
    Retighten,
    /// The regulator throttled `rungs` deeper, to `depth`.
    CapThrottle { rungs: u32, depth: u32 },
    /// The regulator released `rungs`, back up to `depth`.
    CapRelease { rungs: u32, depth: u32 },
}

impl EpochAction {
    /// Whether the action rolled a margin back (and so re-placed the
    /// posture).
    pub(crate) fn is_rollback(&self) -> bool {
        matches!(
            self,
            EpochAction::Supervisor(_) | EpochAction::Rollback { .. }
        )
    }
}

impl fmt::Display for EpochAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SupervisorAction as S;
        match self {
            EpochAction::Supervisor(action) => match *action {
                S::Rollback { core, steps } => write!(f, "supervisor rollback {core} by {steps}"),
                S::Reprobe { core, steps } => write!(f, "supervisor re-probe {core} by {steps}"),
                S::SafeMode { core } => write!(f, "supervisor safe mode {core}"),
                S::Quarantine { core } => write!(f, "supervisor quarantine {core}"),
            },
            EpochAction::Rollback {
                core,
                reduction,
                cause,
            } => write!(f, "rollback {core} to reduction {reduction} ({cause})"),
            EpochAction::ThrottleDown { core } => {
                write!(f, "background throttle step-down (droop alarms on {core})")
            }
            EpochAction::Retighten => f.write_str("adapter re-tighten"),
            EpochAction::CapThrottle { rungs, depth } => {
                write!(f, "cap throttle {rungs} to depth {depth}")
            }
            EpochAction::CapRelease { rungs, depth } => {
                write!(f, "cap release {rungs} to depth {depth}")
            }
        }
    }
}

/// The power-capping state: the regulator, its run report, and the
/// fleet's per-epoch cap override (when one is pushed in).
#[derive(Debug, Clone)]
pub(crate) struct CapState {
    cfg: CapConfig,
    regulator: PowerRegulator,
    pub report: CapReport,
    pub override_mw: Option<u64>,
}

/// One managed chip's epoch machinery (see the module docs). Its `Debug`
/// rendering is exhaustive: it is part of [`ChipServer`]'s checkpoint
/// digest.
///
/// [`ChipServer`]: crate::ChipServer
#[derive(Debug, Clone)]
pub(crate) struct ChipEpoch {
    pub mgr: AtmManager,
    pub policy: DegradationPolicy,
    pub posture: ServePosture,
    pstates: PStateTable,
    /// Background throttle rungs added by droop step-downs so far.
    throttle_extra: usize,
    /// The online recharacterization seam ([`NullAdapter`] = off).
    pub adapter: Box<dyn Adapter>,
    /// Silicon aging/seasonal drift applied each epoch (`None` = pristine).
    pub drift: Option<DriftModel>,
    /// The power regulator (`None` = uncapped).
    pub cap: Option<CapState>,
    /// The energy integrator (`None` = no energy accounting).
    pub meter: Option<EnergyMeter>,
    /// When each serving core's queue drains, on the serving timeline.
    pub free_at: BTreeMap<CoreId, u64>,
    /// Chip power measured at this epoch's harvest, integer milliwatts.
    measured_mw: u64,
}

impl ChipEpoch {
    /// Arms the droop alarm, postures the chip for `cfg` and attaches the
    /// supervisor. The adapter starts off, the policy at its default and
    /// the silicon pristine.
    pub(crate) fn new<R: Recorder>(
        mut mgr: AtmManager,
        cfg: &ChipServeConfig,
        supervisor: Option<&mut MarginSupervisor>,
        rec: &mut R,
    ) -> Result<Self, AtmError> {
        mgr.system_mut().set_droop_alarm(cfg.droop_alarm);
        let posture = mgr.serve_posture(&cfg.critical, &cfg.backgrounds, cfg.qos, rec)?;
        // Posturing settles and trains predictors; the alarms those runs
        // raise are calibration noise, not serving-time events.
        mgr.system_mut().drain_events();
        if let Some(sup) = supervisor {
            sup.attach(mgr.system());
        }
        Ok(ChipEpoch {
            pstates: mgr.system().config().pstates.clone(),
            mgr,
            policy: DegradationPolicy::default(),
            posture,
            throttle_extra: 0,
            adapter: Box::new(NullAdapter),
            drift: None,
            cap: cfg.capping.clone().map(|cfg| CapState {
                regulator: PowerRegulator::new(cfg.regulator),
                cfg,
                report: CapReport::new(),
                override_mw: None,
            }),
            meter: cfg.energy.map(EnergyMeter::new),
            free_at: BTreeMap::new(),
            measured_mw: 0,
        })
    }

    /// Runs the chip side of one epoch and returns the applied actions in
    /// order (supervisor, policy, adapter, cap) — or `None` when the
    /// harvest hard-failed the whole chip, in which case nothing else ran
    /// and the chip must not be stepped again.
    pub(crate) fn step<R: Recorder>(
        &mut self,
        cfg: &ChipServeConfig,
        mut input: EpochInput<'_, '_>,
        rec: &mut R,
    ) -> Option<Vec<EpochAction>> {
        let epoch = input.epoch;
        if let Some(drift) = self.drift {
            self.mgr.system_mut().apply_drift(&drift, u64::from(epoch));
        }
        let harvest = match input.faults {
            Some(mut hook) => self
                .mgr
                .system_mut()
                .run_faulted(cfg.chip_trial, &mut hook, rec),
            None => self.mgr.system_mut().run(cfg.chip_trial, rec),
        };
        if harvest
            .failure
            .iter()
            .chain(input.injected)
            .any(|f| f.kind == FailureKind::ChipHardFail)
        {
            // Whole-chip outage: freeze the machine where the abort left
            // it and hand the chip's fate to the front end.
            self.mgr.system_mut().drain_events();
            return None;
        }
        self.measured_mw = (harvest.procs[0].mean_power.get() * 1_000.0).round() as u64;
        let mut events = self.mgr.system_mut().drain_events();
        events.extend(input.injected.iter().map(|f| ChipEvent::Failure(*f)));

        let mut actions = self.degrade(cfg, epoch, &events, input.supervisor.as_deref_mut(), rec);
        let rollback_fired = actions.iter().any(EpochAction::is_rollback);
        if self.adapter.enabled()
            && self.run_adapter(&harvest, epoch, input.now, input.supervisor.as_deref())
        {
            actions.push(EpochAction::Retighten);
        }
        actions.extend(self.regulate(epoch, rollback_fired, rec));
        Some(actions)
    }

    /// Answers the harvested events — the supervisor (when attached) owns
    /// the failure ladder, the plain policy keeps the droop-alarm throttle
    /// response — then re-postures, re-throttles or refreshes.
    fn degrade<R: Recorder>(
        &mut self,
        cfg: &ChipServeConfig,
        epoch: u32,
        events: &[ChipEvent],
        supervisor: Option<&mut MarginSupervisor>,
        rec: &mut R,
    ) -> Vec<EpochAction> {
        let mut actions = Vec::new();
        let mut policy = self
            .policy
            .react(events, self.posture.placement.critical_core);
        if let Some(sup) = supervisor {
            policy.retain(|a| matches!(a, DegradeAction::ThrottleDown { .. }));
            let sup_actions = sup.observe_window(self.mgr.system(), events);
            let _ = self.mgr.apply_supervisor_actions(&sup_actions, rec);
            actions.extend(sup_actions.into_iter().map(EpochAction::Supervisor));
        }
        let mut throttled = false;
        for action in policy {
            actions.push(match action {
                DegradeAction::Rollback { core, cause } => EpochAction::Rollback {
                    core,
                    reduction: self.mgr.rollback_core(core, 1, rec),
                    cause,
                },
                DegradeAction::ThrottleDown { core } => {
                    self.throttle_extra += 1;
                    throttled = true;
                    rec.incr("serve.throttle_stepdowns", 1);
                    EpochAction::ThrottleDown { core }
                }
            });
        }

        if actions.iter().any(EpochAction::is_rollback) {
            self.posture = self
                .mgr
                .serve_posture(&cfg.critical, &cfg.backgrounds, cfg.qos, rec)
                .expect("the config postured the chip at construction");
            if self.throttle_extra > 0 {
                self.apply_extra_throttle();
            }
            self.mgr.system_mut().drain_events();
        } else if throttled {
            self.apply_extra_throttle();
            self.mgr.system_mut().drain_events();
        } else if epoch > 0 && epoch.is_multiple_of(cfg.refresh_every) {
            self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
            self.mgr.system_mut().drain_events();
        }
        actions
    }

    /// Runs one epoch of online recharacterization against the harvest
    /// the degradation ladder just consumed. Re-measures the posture and
    /// returns `true` when the adapter re-tightened anything.
    fn run_adapter(
        &mut self,
        harvest: &SystemReport,
        epoch: u32,
        now: u64,
        supervisor: Option<&MarginSupervisor>,
    ) -> bool {
        let serving: Vec<CoreId> = self.posture.core_freqs.iter().map(|(c, _)| *c).collect();
        let idle: Vec<CoreId> = self
            .posture
            .placement
            .background_cores
            .iter()
            .filter(|c| self.free_at.get(c).copied().unwrap_or(0) <= now)
            .copied()
            .collect();
        let blocked: BTreeSet<CoreId> = serving
            .iter()
            .filter(|c| {
                supervisor.is_some_and(|s| s.on_probation(**c))
                    || self.mgr.safe_mode_cores().contains(c)
                    || self.mgr.quarantined_cores().contains(c)
            })
            .copied()
            .collect();
        let backlog_ns = self.backlog_ns(now);
        let changed = self.adapter.on_epoch(AdaptContext {
            mgr: &mut self.mgr,
            harvest,
            epoch: u64::from(epoch),
            backlog_ns,
            serving: &serving,
            idle: &idle,
            critical_core: self.posture.placement.critical_core,
            blocked: &blocked,
        });
        if changed {
            self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
        }
        self.mgr.system_mut().drain_events();
        changed
    }

    /// The regulator's epoch hook: integrate measured power against the
    /// cap in force, commit or suppress the proposal, and actuate through
    /// [`AtmManager::apply_cap_levels`] relative to the posture's own
    /// throttle plan (droop escalations and cap depth compose).
    ///
    /// Two suppression rules keep the regulator subordinate: a release
    /// proposed in the same epoch as a rollback is vetoed (rollbacks
    /// outrank the regulator, so a rolled-back core is never re-raised by
    /// a cap release), and releases are deferred while measured power
    /// still exceeds the cap.
    fn regulate<R: Recorder>(
        &mut self,
        epoch: u32,
        rollback_fired: bool,
        rec: &mut R,
    ) -> Option<EpochAction> {
        let measured_mw = self.measured_mw;
        let cap = self.cap.as_mut()?;
        let cap_mw = cap
            .override_mw
            .unwrap_or_else(|| cap.cfg.budget.cap_at(epoch));
        let (committed, suppressed) = match cap.regulator.propose(measured_mw, cap_mw, rec) {
            CapAction::Release(_) if rollback_fired || measured_mw > cap_mw => {
                (CapAction::Hold, true)
            }
            a => (a, false),
        };
        cap.regulator.commit(committed);
        cap.report.count_action(committed, suppressed);
        let depth = cap.regulator.depth();
        cap.report
            .push_epoch(cap_mw, measured_mw, depth, cap.regulator.integral_mwe());
        // Re-apply every epoch the cap binds: re-postures and droop
        // step-downs reset margin modes, so the depth must be restated on
        // top of whatever plan is now current.
        if depth > 0 || committed != CapAction::Hold {
            if let Some(base) = self.posture.placement.plan.clone() {
                let bg_depth = depth.min(base.setting.rungs_below(&self.pstates));
                let critical = self.posture.placement.critical_core;
                let _ = self
                    .mgr
                    .apply_cap_levels(&base, critical, bg_depth, depth - bg_depth, rec);
                self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
                self.mgr.system_mut().drain_events();
            }
        }
        match committed {
            CapAction::Throttle(rungs) => Some(EpochAction::CapThrottle { rungs, depth }),
            CapAction::Release(rungs) => Some(EpochAction::CapRelease { rungs, depth }),
            CapAction::Hold => None,
        }
    }

    /// Steps the posture's background throttle `throttle_extra` rungs
    /// down the ladder, applies it, and re-measures the settled
    /// frequencies.
    fn apply_extra_throttle(&mut self) {
        let Some(mut plan) = self.posture.placement.plan.clone() else {
            return;
        };
        for _ in 0..self.throttle_extra {
            match plan.step_down(&self.pstates) {
                Some(next) => plan = next,
                None => break,
            }
        }
        plan.apply(self.mgr.system_mut());
        self.posture.placement.plan = Some(plan);
        self.posture.core_freqs = self.mgr.measure_core_freqs(ProcId::new(0));
    }

    /// When `core`'s queue drains (0 if it never queued anything).
    pub(crate) fn drains_at(&self, core: CoreId) -> u64 {
        self.free_at.get(&core).copied().unwrap_or(0)
    }

    /// Total queued work past `now` across every serving core, in ns.
    pub(crate) fn backlog_ns(&self, now: u64) -> u64 {
        self.free_at.values().map(|f| f.saturating_sub(now)).sum()
    }

    /// The core a request lands on: the critical core, or else the live
    /// background core with the least backlog (ties to the lowest id)
    /// among the first `limit`. `None` when those are all gated.
    pub(crate) fn route(&self, critical: bool, limit: usize) -> Option<CoreId> {
        if critical {
            return Some(self.posture.placement.critical_core);
        }
        self.posture
            .placement
            .background_cores
            .iter()
            .take(limit)
            .filter(|c| self.posture.freq_of(**c).get() > 0.0)
            .min_by_key(|c| (self.drains_at(**c), c.flat_index()))
            .copied()
    }

    /// Serves `req` on `core`: samples its service time at the core's
    /// settled frequency, queues it behind the core's backlog, feeds
    /// critical service times to the adapter, and returns
    /// `(service_ns, finish)`.
    pub(crate) fn serve(
        &mut self,
        core: CoreId,
        req: &ChipRequest,
        workload: &Workload,
        profile: &ServiceProfile,
    ) -> (u64, u64) {
        let freq = self.posture.freq_of(core);
        let baseline = self.pstates.nominal().frequency;
        let service = profile
            .sample(workload, freq, baseline, req.draw)
            .get()
            .round()
            .max(1.0) as u64;
        let finish = req.at.max(self.drains_at(core)) + service;
        self.free_at.insert(core, finish);
        if req.critical && self.adapter.enabled() {
            let khz = |f: MegaHz| (f.get() * 1_000.0).round() as u64;
            self.adapter
                .on_service(workload.name(), khz(freq), khz(baseline), service);
        }
        (service, finish)
    }

    /// Closes the epoch's energy account over the work dispatched since
    /// [`ChipEpoch::step`].
    pub(crate) fn close(&mut self, busy_ns: u64, completed: u64) {
        if let Some(meter) = self.meter.as_mut() {
            let powered = self
                .posture
                .core_freqs
                .iter()
                .filter(|(_, f)| f.get() > 0.0)
                .count() as u32;
            meter.observe_epoch(self.measured_mw, powered, busy_ns);
            meter.add_requests(completed);
        }
    }

    /// Rewinds to `machine` for a resurrection: the energy meter, the
    /// regulator's report and any cap override stay cumulative, and the
    /// queues come back cold.
    pub(crate) fn resurrect_from(&mut self, machine: ChipEpoch) {
        let account = std::mem::replace(self, machine);
        self.meter = account.meter;
        if let (Some(cap), Some(old)) = (self.cap.as_mut(), account.cap) {
            cap.report = old.report;
            cap.override_mw = old.override_mw;
        }
        self.free_at.clear();
        self.measured_mw = 0;
    }
}
