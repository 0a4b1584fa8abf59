//! The deterministic serving simulator.
//!
//! [`ServeSim`] drives the managed ATM stack with open-loop request
//! traffic: the [`AtmManager`] postures the chip (critical stream on the
//! fastest core, backgrounds backfilled and throttled to the QoS power
//! budget), and a discrete-event loop dispatches seeded arrivals onto
//! per-core FIFO queues whose service rates follow the cores' settled
//! frequencies. Each epoch runs the chip-side serving epoch it shares
//! with [`ChipServer`](crate::ChipServer): the chip simulation runs
//! briefly to harvest [`ChipEvent`](atm_chip::ChipEvent)s, and the
//! [`DegradationPolicy`] (or an attached supervisor) turns failures and
//! droop alarms into CPM rollbacks, critical re-placement, and background
//! throttling, all recorded in the final [`ServeReport`].
//!
//! Everything is a pure function of the seeds: arrivals are pre-generated
//! per stream (in parallel when asked — the merge is worker-count
//! independent), the event loop is serial in virtual time, and the report
//! carries only integers, so a fixed seed yields a byte-identical
//! [`ServeReport`] on every run.

use std::collections::BTreeMap;
use std::fmt;

use atm_adapt::{Adapter, NullAdapter};
use atm_capping::{CapConfig, EnergyModel};
use atm_chip::{FailureEvent, FailureKind, FaultHook};
use atm_core::{AtmManager, MarginSupervisor, SupervisorConfig};
use atm_silicon::DriftModel;
use atm_telemetry::{AdmissionDecision, AdmissionVerdict, Recorder, SimTime, TelemetryEvent};
use atm_units::{AtmError, CoreId, Nanos};
use atm_workloads::{ServiceProfile, Workload};

use crate::admission::Admission;
use crate::arrival;
use crate::chipstep::{ChipRequest, ChipServeConfig};
use crate::config::ServeConfig;
use crate::degrade::DegradationPolicy;
use crate::epoch::{ChipEpoch, EpochInput};
use crate::histogram::LatencyHistogram;
use crate::report::{ServeReport, StreamStats, Transition};
use crate::stream::{StreamClass, StreamSpec};

/// A request awaiting dispatch (fresh or deferred), keyed in the pending
/// queue by `(time, stream, seq)` so it pops deterministically.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: u64,
    stream: usize,
    seq: u32,
    defers: u32,
    orig: u64,
    draw: f64,
}

impl Pending {
    fn key(&self) -> (u64, usize, u32) {
        (self.time, self.stream, self.seq)
    }
}

/// Running per-stream accounting.
#[derive(Debug, Default)]
struct StreamState {
    offered: u64,
    completed: u64,
    shed: u64,
    deferred: u64,
    slo_violations: u64,
    max_queue_depth: u64,
    hist: LatencyHistogram,
    epoch_hist: LatencyHistogram,
    epoch_p99: Vec<u64>,
}

/// The serving simulator. Consumed by [`ServeSim::run`].
pub struct ServeSim {
    mgr: AtmManager,
    cfg: ServeConfig,
    streams: Vec<StreamSpec>,
    /// The chip-side config derived from `cfg` and `streams`.
    chip: ChipServeConfig,
    policy: DegradationPolicy,
    supervisor: Option<MarginSupervisor>,
    faults: Option<Box<dyn FaultHook>>,
    injected: BTreeMap<u32, Vec<FailureEvent>>,
    adapter: Box<dyn Adapter>,
    drift: Option<DriftModel>,
}

impl fmt::Debug for ServeSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeSim")
            .field("mgr", &self.mgr)
            .field("cfg", &self.cfg)
            .field("streams", &self.streams)
            .field("chip", &self.chip)
            .field("policy", &self.policy)
            .field("supervisor", &self.supervisor)
            .field("faults_armed", &self.faults.as_ref().map(|h| h.armed()))
            .field("injected", &self.injected)
            .field("adapter", &self.adapter)
            .field("drift", &self.drift)
            .finish()
    }
}

impl ServeSim {
    /// Builds a simulator over a deployed manager.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] unless `streams` holds exactly
    /// one critical stream and at least one background stream, or if the
    /// config fails [`ServeConfig::check`].
    pub fn new(
        mgr: AtmManager,
        cfg: ServeConfig,
        streams: Vec<StreamSpec>,
    ) -> Result<Self, AtmError> {
        cfg.check()?;
        let mut criticals = streams.iter().filter(|s| s.class == StreamClass::Critical);
        let (Some(critical), None) = (criticals.next(), criticals.next()) else {
            return Err(AtmError::invalid_config(
                "streams",
                "need exactly one critical stream",
            ));
        };
        let backgrounds: Vec<Workload> = streams
            .iter()
            .filter(|s| s.class == StreamClass::Background)
            .map(|s| s.workload.clone())
            .collect();
        if backgrounds.is_empty() {
            return Err(AtmError::invalid_config(
                "streams",
                "need at least one background stream",
            ));
        }
        // The chip side of the run. `ServeSim` brings its own (optional)
        // supervisor, so the config's supervisor thresholds go unused.
        let chip = ChipServeConfig {
            critical: critical.workload.clone(),
            backgrounds,
            qos: cfg.qos,
            droop_alarm: cfg.droop_alarm,
            chip_trial: cfg.chip_trial,
            critical_slo_ns: critical.slo_ns,
            refresh_every: cfg.refresh_every,
            supervisor: SupervisorConfig::default(),
            capping: None,
            energy: Some(EnergyModel::standard(cfg.epoch_ns)),
        };
        Ok(ServeSim {
            mgr,
            cfg,
            streams,
            chip,
            policy: DegradationPolicy::default(),
            supervisor: None,
            faults: None,
            injected: BTreeMap::new(),
            adapter: Box::new(NullAdapter),
            drift: None,
        })
    }

    /// Arms a power cap: each epoch the regulator integrates the chip's
    /// measured power against the budget schedule and throttles (or
    /// releases) through the posture's throttle ladder — background cores
    /// first, the critical core only after the background tier bottoms
    /// out, and never past the slowest p-state. Supervisor actions
    /// outrank the regulator; releases are deferred while over budget.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `cap` fails
    /// [`CapConfig::check`].
    pub fn set_cap(&mut self, cap: CapConfig) -> Result<(), AtmError> {
        cap.check()?;
        self.chip.capping = Some(cap);
        Ok(())
    }

    /// Replaces the energy model the run integrates with (the default is
    /// [`EnergyModel::standard`] over the config's epoch span).
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::InvalidConfig`] if `model` fails
    /// [`EnergyModel::check`].
    pub fn set_energy_model(&mut self, model: EnergyModel) -> Result<(), AtmError> {
        model.check()?;
        self.chip.energy = Some(model);
        Ok(())
    }

    /// Installs an online recharacterization adapter (replacing the
    /// default no-op [`NullAdapter`]). The adapter observes each epoch's
    /// chip harvest, may run micro-probe bursts on queue-idle cores, and
    /// may re-tighten margins through the manager — always below the
    /// supervisor's strike ladder.
    pub fn set_adapter(&mut self, adapter: Box<dyn Adapter>) {
        self.adapter = adapter;
    }

    /// Arms epoch-by-epoch silicon drift (per-core aging plus seasonal
    /// temperature offsets): before each epoch's harvest, every core's
    /// true path delay is re-derived from the pristine silicon at the
    /// model's ppm schedule.
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.drift = Some(drift);
    }

    /// Overrides the degradation policy.
    pub fn set_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
    }

    /// Attaches a margin-safety supervisor. Once attached, the supervisor
    /// owns the failure response — its strike ladder (rollback →
    /// backed-off re-probe → safe mode → quarantine) replaces the plain
    /// policy's per-failure rollback, while the policy keeps handling
    /// droop-alarm throttle step-downs. Quarantined and safe-moded cores
    /// drop out of every subsequent placement, so critical streams are
    /// re-placed automatically.
    pub fn set_supervisor(&mut self, supervisor: MarginSupervisor) {
        self.supervisor = Some(supervisor);
    }

    /// Arms a chip-level fault hook (e.g. a resolved `atm-faults`
    /// campaign plan) for the per-epoch chip harvests: each epoch's
    /// hardware trial runs through
    /// [`System::run_faulted`](atm_chip::System::run_faulted) with this
    /// hook instead of a clean run. The hook's tick clock spans the whole
    /// serving trace, so one plan unfolds across epochs deterministically.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Schedules a synthetic timing failure on `core`, delivered with the
    /// chip events of epoch `epoch` — the test hook for exercising the
    /// degradation path on demand. A [`FailureKind::ChipHardFail`] kills
    /// the chip, as one raised by the harvest trial does (see
    /// [`ServeSim::run`]).
    pub fn inject_failure(&mut self, epoch: u32, core: CoreId, kind: FailureKind) {
        self.injected.entry(epoch).or_default().push(FailureEvent {
            core,
            kind,
            at: Nanos::ZERO,
        });
    }

    /// Runs the full serving trace, pre-generating arrivals on up to
    /// `workers` threads, and returns the deterministic report.
    ///
    /// Chip harvests, admission verdicts, latencies, rollbacks and
    /// throttle step-downs record through `rec`, with the recorder clock
    /// tracking the virtual serving timeline; pass
    /// [`&mut NullRecorder`](atm_telemetry::NullRecorder) for the zero-overhead
    /// unrecorded path — the report is identical either way.
    ///
    /// A whole-chip hard fail ends service: from the epoch it strikes,
    /// nothing is dispatched and every request counts as shed.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn run<R: Recorder>(self, workers: usize, rec: &mut R) -> ServeReport {
        // Disassemble the simulator up front: the manager needs exclusive
        // mutable access through the whole trace, so the configs and
        // stream specs move into locals and are borrowed from there.
        let ServeSim {
            mgr,
            cfg,
            streams,
            chip: chip_cfg,
            policy,
            mut supervisor,
            mut faults,
            injected,
            adapter,
            drift,
        } = self;
        let horizon = u64::from(cfg.epochs) * cfg.epoch_ns;

        let crit_idx = streams
            .iter()
            .position(|s| s.class == StreamClass::Critical)
            .expect("checked in new");
        let profiles: Vec<ServiceProfile> = streams
            .iter()
            .map(|s| s.workload.service_profile())
            .collect();
        let crit_slo = chip_cfg.critical_slo_ns;
        let mut chip = ChipEpoch::new(mgr, &chip_cfg, supervisor.as_mut(), rec)
            .expect("streams validated in new");
        chip.policy = policy;
        chip.adapter = adapter;
        chip.drift = drift;
        let bg_cap = cfg
            .serving_cores
            .map_or(usize::MAX, |n| (n as usize).saturating_sub(1));

        let arrivals = arrival::generate_all(&streams, cfg.seed, horizon, workers);
        let mut next_arrival = 0usize;
        let mut pending: BTreeMap<(u64, usize, u32), Pending> = BTreeMap::new();

        let mut states: Vec<StreamState> = streams.iter().map(|_| StreamState::default()).collect();
        let mut finishes: BTreeMap<CoreId, Vec<u64>> = BTreeMap::new();
        let mut transitions: Vec<Transition> = Vec::new();
        // A chip hard-fail ends service: from that epoch on every request
        // is shed.
        let mut dead = false;

        for epoch in 0..cfg.epochs {
            let epoch_start = u64::from(epoch) * cfg.epoch_ns;
            let epoch_end = u64::from(epoch + 1) * cfg.epoch_ns;

            if !dead {
                let actions = chip.step(
                    &chip_cfg,
                    EpochInput {
                        epoch,
                        now: epoch_start,
                        supervisor: supervisor.as_mut(),
                        faults: faults.as_deref_mut(),
                        injected: injected.get(&epoch).map_or(&[], Vec::as_slice),
                    },
                    rec,
                );
                dead = actions.is_none();
                let critical_core = chip.posture.placement.critical_core;
                let critical_freq_mhz = chip.posture.freq_of(critical_core).get().round() as u64;
                transitions.extend(actions.iter().flatten().map(|a| Transition {
                    epoch,
                    action: a.to_string(),
                    critical_core,
                    critical_freq_mhz,
                }));
            }
            let (mut epoch_busy_ns, mut epoch_completed) = (0, 0);

            let critical_at_risk = crit_slo > 0
                && states[crit_idx].hist.count() >= 20
                && states[crit_idx].hist.quantile(0.99) as f64
                    > cfg.admission.slo_risk * crit_slo as f64;

            // Dispatch this epoch's arrivals and readmissions in
            // (time, stream, seq) order.
            loop {
                let arr_key = arrivals
                    .get(next_arrival)
                    .map(|a| (a.time, a.stream, a.seq));
                let use_pending = match (arr_key, pending.keys().next().copied()) {
                    (Some(a), Some(p)) => p < a,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => break,
                };
                // If the earlier of the two is past the epoch, both are.
                let req = if use_pending {
                    if pending.first_key_value().expect("peeked").1.time >= epoch_end {
                        break;
                    }
                    pending.pop_first().expect("peeked").1
                } else {
                    let a = arrivals[next_arrival];
                    if a.time >= epoch_end {
                        break;
                    }
                    next_arrival += 1;
                    Pending {
                        time: a.time,
                        stream: a.stream,
                        seq: a.seq,
                        defers: 0,
                        orig: a.time,
                        draw: a.draw,
                    }
                };

                let spec = &streams[req.stream];
                let state = &mut states[req.stream];
                if req.defers == 0 {
                    state.offered += 1;
                }
                let now = req.time;
                rec.advance_to(SimTime::from_nanos(now));
                // A dead chip, or a fully gated background tier, cannot
                // serve the request.
                let critical = spec.class == StreamClass::Critical;
                let Some(core) = chip.route(critical, bg_cap).filter(|_| !dead) else {
                    state.shed += 1;
                    rec.incr("serve.shed", 1);
                    continue;
                };
                let backlog = chip.drains_at(core).saturating_sub(now);
                let verdict =
                    cfg.admission
                        .decide(spec.class, backlog, req.defers, critical_at_risk);
                if rec.enabled() {
                    rec.record(TelemetryEvent::Admission(AdmissionDecision {
                        t: rec.now(),
                        stream: req.stream as u32,
                        critical,
                        verdict: match verdict {
                            Admission::Accept => AdmissionVerdict::Accept,
                            Admission::Defer => AdmissionVerdict::Defer,
                            Admission::Shed => AdmissionVerdict::Shed,
                        },
                        backlog_ns: backlog,
                    }));
                }
                match verdict {
                    Admission::Shed => {
                        state.shed += 1;
                        rec.incr("serve.shed", 1);
                        continue;
                    }
                    Admission::Defer => {
                        state.deferred += 1;
                        rec.incr("serve.deferred", 1);
                        let mut d = req;
                        d.time = now + cfg.admission.defer_by;
                        d.defers += 1;
                        if d.time >= horizon {
                            state.shed += 1;
                            rec.incr("serve.shed", 1);
                        } else {
                            pending.insert(d.key(), d);
                        }
                        continue;
                    }
                    Admission::Accept => {
                        rec.incr("serve.accepted", 1);
                    }
                }

                let (service, finish) = chip.serve(
                    core,
                    &ChipRequest {
                        at: now,
                        critical,
                        draw: req.draw,
                    },
                    &spec.workload,
                    &profiles[req.stream],
                );
                let fin = finishes.entry(core).or_default();
                fin.retain(|&f| f > now);
                fin.push(finish);
                state.max_queue_depth = state.max_queue_depth.max(fin.len() as u64);
                let latency = finish - req.orig;
                rec.observe("serve.latency_ns", latency);
                state.hist.record(latency);
                state.epoch_hist.record(latency);
                state.completed += 1;
                epoch_busy_ns += service;
                epoch_completed += 1;
                if spec.slo_ns > 0 && latency > spec.slo_ns {
                    state.slo_violations += 1;
                }
            }

            if !dead {
                chip.close(epoch_busy_ns, epoch_completed);
            }

            for state in &mut states {
                state.epoch_p99.push(state.epoch_hist.quantile(0.99));
                state.epoch_hist.reset();
            }
        }

        // Anything still deferred past the horizon was never served.
        for p in pending.into_values() {
            states[p.stream].shed += 1;
            rec.incr("serve.shed", 1);
        }

        let streams: Vec<StreamStats> = streams
            .iter()
            .zip(states)
            .map(|(spec, st)| StreamStats {
                name: spec.name.clone(),
                class: spec.class,
                offered: st.offered,
                completed: st.completed,
                shed: st.shed,
                deferred: st.deferred,
                slo_ns: spec.slo_ns,
                slo_violations: st.slo_violations,
                p50_ns: st.hist.quantile(0.5),
                p95_ns: st.hist.quantile(0.95),
                p99_ns: st.hist.quantile(0.99),
                max_ns: st.hist.max(),
                mean_ns: st.hist.mean(),
                max_queue_depth: st.max_queue_depth,
                epoch_p99_ns: st.epoch_p99,
            })
            .collect();
        ServeReport {
            seed: cfg.seed,
            epochs: cfg.epochs,
            epoch_ns: cfg.epoch_ns,
            completed: streams.iter().map(|s| s.completed).sum(),
            shed: streams.iter().map(|s| s.shed).sum(),
            deferred: streams.iter().map(|s| s.deferred).sum(),
            critical_core: chip.posture.placement.critical_core,
            transitions,
            streams,
            adapt: chip.adapter.report(),
            energy: chip.meter.expect("the run always meters energy").report(),
            cap: chip.cap.map(|c| c.report),
        }
    }
}
