//! Probes: isolated calls to finer public functions of each layer, run
//! after the traced jobs, so the coarse job spans can be decomposed and
//! predicted from unit costs.
//!
//! Every probe runs on every workload, so every per-layer metric is
//! measured everywhere. The chip and core probes use the workload's own
//! chip seed; the serve, fleet and recovery probes use the workload's
//! warm-up fleet (for `characterize`, which has none, a small standard
//! fleet from the same seed).

use std::hint::black_box;
use std::time::Instant;

use atm_adapt::OnlineAdapter;
use atm_capping::{CapConfig, EnergyModel};
use atm_chip::{ChipConfig, FaultHook, MarginMode, System};
use atm_core::{AtmManager, CharactConfig, CharactEngine, Governor};
use atm_fleet::{generate_fleet, generate_lane, route, FleetConfig, FleetSim};
use atm_recovery::Snapshot;
use atm_serve::{ChipRequest, ChipServer};
use atm_telemetry::NullRecorder;
use atm_units::Nanos;
use atm_workloads::{by_name, realistic_set};

use atmbench::record::Metric;
use atmbench::splitmix64;
use atmbench::stats::median;

/// Repeats of each short probe (the median is reported).
const REPS: usize = 3;
/// Chips deployed, postured and stepped by the per-chip probes.
const PROBE_CHIPS: u32 = 4;
/// Route calls timed together.
const ROUTE_CALLS: u32 = 200;
/// Thread fan-outs timed together.
const SPAWN_ROUNDS: u32 = 100;

/// The probe sizes.
pub struct Size {
    /// Simulated span of each chip tick-loop probe, ns.
    pub chip_sim_ns: f64,
    /// Serving epochs stepped per probed chip and per probed fleet.
    pub epochs: u32,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn med(xs: &[f64]) -> f64 {
    median(xs).expect("probes take at least one sample")
}

/// Runs every probe and returns the per-layer unit costs.
///
/// # Errors
///
/// Returns a message when a probe's inputs are refused or a probe run
/// fails (a tick-loop timing failure, a sealed checkpoint that does not
/// verify).
pub fn run(
    chip_seed: u64,
    fleet: &FleetConfig,
    workers: usize,
    size: &Size,
) -> Result<Vec<Metric>, String> {
    let mut out = chip(chip_seed, size)?;
    out.extend(core(chip_seed, workers));
    out.extend(fleet_layers(fleet, workers, size)?);
    Ok(out)
}

/// The tick loop: simulated ns per wall second of an all-ATM x264 chip,
/// with the stride fast path on and off.
fn chip(seed: u64, size: &Size) -> Result<Vec<Metric>, String> {
    let x264 = by_name("x264").map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (name, stride) in [
        ("chip.sim_ns_per_s", true),
        ("chip.exact_sim_ns_per_s", false),
    ] {
        let mut sys = System::new(ChipConfig::power7_plus(seed));
        sys.assign_all(x264);
        sys.set_mode_all(MarginMode::Atm);
        sys.set_stride(stride);
        let _ = sys.run(Nanos::new(size.chip_sim_ns / 10.0), &mut NullRecorder);
        let mut walls = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let report = sys.run(Nanos::new(size.chip_sim_ns), &mut NullRecorder);
            walls.push(secs(t));
            if !report.is_ok() {
                return Err(format!("{name}: the probe chip failed at preset margins"));
            }
        }
        out.push(Metric::new(name, size.chip_sim_ns / med(&walls), "ns/s"));
    }
    Ok(out)
}

/// One quick characterization campaign on the chip, with its engine
/// statistics.
fn core(seed: u64, workers: usize) -> Vec<Metric> {
    let t = Instant::now();
    let result = CharactEngine::new(ChipConfig::power7_plus(seed), CharactConfig::quick())
        .run_parallel(&realistic_set(), workers);
    let wall = secs(t);
    let st = result.stats;
    let points = st.points_simulated.max(1) as f64;
    vec![
        Metric::new("core.charact_s", wall, "s"),
        Metric::new("core.points", st.points_simulated as f64, "count"),
        Metric::new("core.cache_hit_ratio", st.hit_rate(), "ratio"),
        Metric::new(
            "core.us_per_point",
            st.total_wall_ns() as f64 / points / 1e3,
            "us",
        ),
        Metric::new("core.idle_busy_s", st.idle_wall_ns as f64 / 1e9, "s"),
        Metric::new("core.ubench_busy_s", st.ubench_wall_ns as f64 / 1e9, "s"),
        Metric::new(
            "core.realistic_busy_s",
            st.realistic_wall_ns as f64 / 1e9,
            "s",
        ),
    ]
}

/// Per-chip deploy, posture and serving epoch, then the fleet's traffic
/// generation, start, epochs, router and checkpoint machinery — with the
/// start and epoch predicted from the unit costs and checked against
/// their measurement.
fn fleet_layers(cfg: &FleetConfig, workers: usize, size: &Size) -> Result<Vec<Metric>, String> {
    let (mut deploy, mut posture) = (Vec::new(), Vec::new());
    let (mut chip_epoch, mut chip_checkpoint) = (Vec::new(), Vec::new());
    let horizon = u64::from(size.epochs) * cfg.epoch_ns;
    for chip in 0..PROBE_CHIPS.min(cfg.chips) {
        let t = Instant::now();
        let mut sys = System::new(ChipConfig::power7_plus(splitmix64(
            cfg.seed ^ u64::from(chip),
        )));
        sys.set_stride(cfg.stride);
        let mgr = AtmManager::deploy(sys, Governor::Default, &cfg.charact);
        deploy.push(secs(t));

        // The per-chip recipe the fleet deploys with.
        let mut chip_cfg = cfg.chip.clone();
        chip_cfg
            .energy
            .get_or_insert(EnergyModel::standard(cfg.epoch_ns));
        if cfg.budget.is_some() && chip_cfg.capping.is_none() {
            chip_cfg.capping = Some(CapConfig::fleet_driven());
        }
        let t = Instant::now();
        let mut server = ChipServer::new(mgr, chip_cfg).map_err(|e| e.to_string())?;
        posture.push(secs(t));
        if let Some(drift) = cfg.drift {
            server.set_drift(drift.with_seed(splitmix64(drift.seed() ^ u64::from(chip))));
        }
        if let Some(adapt) = cfg.adapt {
            server.set_adapter(Box::new(OnlineAdapter::new(adapt)));
        }
        let mut hook = cfg
            .faults
            .as_ref()
            .and_then(|f| f.hook_for_chip(cfg.seed, chip));

        // One lane of every stream lands on this chip, as under routing.
        let mut requests: Vec<ChipRequest> = cfg
            .traffic
            .iter()
            .enumerate()
            .flat_map(|(stream, spec)| {
                generate_lane(spec, cfg.seed, stream as u32, chip, horizon)
                    .into_iter()
                    .map(|r| ChipRequest {
                        at: r.time,
                        critical: spec.critical,
                        draw: r.draw,
                    })
            })
            .collect();
        requests.sort_by_key(|r| r.at);
        let mut rest = requests.as_slice();
        for epoch in 1..=u64::from(size.epochs) {
            let n = rest.partition_point(|r| r.at < epoch * cfg.epoch_ns);
            let (batch, later) = rest.split_at(n);
            rest = later;
            let t = Instant::now();
            // Bounced requests only matter to the fleet's retry ladder.
            let _ = server.step_epoch(batch, hook.as_mut().map(|h| h as &mut dyn FaultHook));
            chip_epoch.push(secs(t));
        }
        // The machine checkpoint the failover barrier takes of every chip.
        let t = Instant::now();
        black_box(server.checkpoint());
        chip_checkpoint.push(secs(t));
    }

    // Every epoch fans the chips out over freshly spawned scoped threads.
    let threads = workers.min(cfg.chips as usize);
    let t = Instant::now();
    for _ in 0..SPAWN_ROUNDS {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| ());
            }
        });
    }
    let spawn = secs(t) / f64::from(SPAWN_ROUNDS);

    let fleet_horizon = u64::from(cfg.epochs) * cfg.epoch_ns;
    let mut traffic = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(generate_fleet(
            &cfg.traffic,
            cfg.chips,
            cfg.seed,
            fleet_horizon,
            workers,
        ));
        traffic.push(secs(t));
    }

    let sim = FleetSim::new(cfg.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut run = sim.start(workers);
    let start = secs(t);

    let mut epoch_walls = Vec::new();
    for _ in 0..size.epochs.min(cfg.epochs) {
        let t = Instant::now();
        run.step_epoch(workers);
        epoch_walls.push(secs(t));
    }

    // The router and the checkpoint round trip, on the stepped run.
    let t = Instant::now();
    for _ in 0..ROUTE_CALLS {
        black_box(route(run.snapshots(), &cfg.placement, cfg.chips, &[]));
    }
    let route_s = secs(t) / f64::from(ROUTE_CALLS);
    let (mut clone, mut seal, mut verify, mut thaw) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let cp = run.checkpoint();
        clone.push(secs(t));
        let copy = cp.clone();
        let t = Instant::now();
        let sealed = Snapshot::seal(copy);
        seal.push(secs(t));
        let t = Instant::now();
        sealed.verify().map_err(|e| e.to_string())?;
        verify.push(secs(t));
        let t = Instant::now();
        let thawed = cp.thaw();
        thaw.push(secs(t));
        black_box(thawed);
    }
    let digest_kb = format!("{:?}", run.checkpoint()).len() as f64 / 1024.0;

    // Deploy and chip epochs spread over the worker threads; routing,
    // thread spawns and the failover machine checkpoints are serial.
    let chips = f64::from(cfg.chips);
    let lanes = chips / threads.max(1) as f64;
    let (deploy, posture) = (mean(&deploy), mean(&posture));
    let (chip_epoch, chip_checkpoint) = (mean(&chip_epoch), mean(&chip_checkpoint));
    let checkpoints_per_epoch = match cfg.failover {
        Some(f) if f.checkpoint_every > 0 => chips / f64::from(f.checkpoint_every),
        _ => 0.0,
    };
    let traffic = med(&traffic);
    let epoch = mean(&epoch_walls);
    let start_pred = lanes * (deploy + posture) + traffic;
    let epoch_pred = lanes * chip_epoch + route_s + spawn + checkpoints_per_epoch * chip_checkpoint;
    Ok(vec![
        Metric::new("core.deploy_ms_per_chip", deploy * 1e3, "ms"),
        Metric::new("serve.posture_ms_per_chip", posture * 1e3, "ms"),
        Metric::new("serve.chip_epoch_us", chip_epoch * 1e6, "us"),
        Metric::new("serve.checkpoint_us", chip_checkpoint * 1e6, "us"),
        Metric::new("fleet.start_s", start, "s"),
        Metric::new("fleet.epoch_ms", epoch * 1e3, "ms"),
        Metric::new("fleet.chip_epochs_per_s", chips / epoch, "1/s"),
        Metric::new("fleet.traffic_gen_ms", traffic * 1e3, "ms"),
        Metric::new("fleet.route_us", route_s * 1e6, "us"),
        Metric::new("fleet.spawn_us", spawn * 1e6, "us"),
        Metric::new(
            "fleet.start_pred_err",
            (start_pred / start - 1.0).abs(),
            "ratio",
        ),
        Metric::new(
            "fleet.epoch_pred_err",
            (epoch_pred / epoch - 1.0).abs(),
            "ratio",
        ),
        Metric::new("recovery.clone_ms", med(&clone) * 1e3, "ms"),
        Metric::new("recovery.seal_ms", med(&seal) * 1e3, "ms"),
        Metric::new("recovery.verify_ms", med(&verify) * 1e3, "ms"),
        Metric::new("recovery.thaw_ms", med(&thaw) * 1e3, "ms"),
        Metric::new("recovery.digest_kb", digest_kb, "KB"),
    ])
}
