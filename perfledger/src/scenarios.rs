//! The two workloads, each run two ways from one body.
//!
//! *Timed* runs build their substrates only through the program's public
//! entry points (`StandardCapture::run`, `FleetData::run_with`,
//! `supervised::{run_capture, resume_capture, run_fleet}`). *Traced* runs
//! build the same substrates from the public pieces those entry points
//! compose (`Topology::build`, `Workload::new`/`generate`,
//! `Simulator::new`/`run_until`/`checkpoint`/`restore`/`finish`,
//! `HostTrace::from_mirror`, `FleetModel`, `Tagger`), with a span around
//! each call. Reports, export and import are entry points in both modes;
//! their spans are no-ops when the ledger is off.

use crate::check;
use crate::ledger::Ledger;
use crate::report::Report;
use sonet_analysis::HostTrace;
use sonet_core::capture::MONITORED_ROLES;
use sonet_core::reports::{self, Fig15Config};
use sonet_core::supervised::FleetCheckpoint;
use sonet_core::{
    fleet_spec, isolate, packet_tier_spec, resume_capture, run_capture, run_fleet,
    CaptureCheckpoint, CaptureConfig, FleetData, FleetRunConfig, LabConfig, RunStatus,
    ScenarioScale, StandardCapture, SuperviseOptions,
};
use sonet_netsim::{FaultEvent, FaultKind, FaultPlan, FidelityConfig, FidelityMode, SimConfig};
use sonet_netsim::{SimOutputs, Simulator};
use sonet_telemetry::export::{read_flows, write_flows};
use sonet_telemetry::{FlowRecord, PortMirror, Tagger, TraceSpool};
use sonet_topology::{HostId, HostRole, Node, SwitchId, SwitchKind, Topology};
use sonet_util::{par, SimDuration, SimTime};
use sonet_workload::{DiurnalPattern, FleetConfig, FleetModel, ServiceProfiles, Workload};
use std::collections::HashMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, Write};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The experiments `sonet all` renders, in its order.
pub const EXPERIMENTS: [&str; 19] = [
    "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "util", "te",
];

/// Generation-window stride of every capture run (the engine advances
/// in these steps and supervised checkpoints land on their boundaries).
const CAPTURE_WINDOW: SimDuration = SimDuration::from_millis(250);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    PaperAll,
    Supervised,
}

impl Scenario {
    pub const ALL: [Scenario; 2] = [Scenario::PaperAll, Scenario::Supervised];

    pub fn name(self) -> &'static str {
        match self {
            Scenario::PaperAll => "paper_all",
            Scenario::Supervised => "supervised",
        }
    }

    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The ops one run attempts. An op is a substrate build, a render, a
    /// supervised run or resume, or an export or import.
    pub fn ops(self) -> Vec<&'static str> {
        match self {
            Scenario::PaperAll => ["capture", "fleet"]
                .into_iter()
                .chain(EXPERIMENTS)
                .collect(),
            Scenario::Supervised => vec![
                "run", "resume", "fleet", "table3", "fig5", "export", "import",
            ],
        }
    }

    /// Typical seconds one timed run of this workload takes on a 2-core
    /// box, with its output checks; sizes how many inputs a timed run
    /// measures.
    pub fn nominal_s(self) -> f64 {
        match self {
            Scenario::PaperAll => 11.4,
            Scenario::Supervised => 2.95,
        }
    }
}

/// Pins the process-wide worker width to 1, as the CLI's `--threads 1`
/// would, and returns the engine width the run resolves to. Every
/// workload runs at width 1: on a shared host a second worker's time
/// follows the neighbours' load.
fn pin_width() -> usize {
    par::set_threads(1);
    par::resolve_threads(None)
}

/// Where runs keep their checkpoints and exports: inside the benchmark's
/// own directory.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// One child's scratch directory under [`work_root`].
fn work_dir(tag: &str) -> PathBuf {
    work_root().join(format!("{tag}-{}", std::process::id()))
}

/// The supervised workload's capture: the fast capture under the hybrid engine
/// with a fixed fault plan — a gray fabric link from 0.5 s, a CSW down at
/// 1.5 s (after the first checkpoint, so the resumed leg crosses it), and
/// 25 % mirror loss from 2 s.
pub fn resume_config(seed: u64) -> CaptureConfig {
    let topo = Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("tiny plant builds");
    let csws: Vec<SwitchId> = (0..topo.switches().len())
        .filter(|&i| topo.switches()[i].kind == SwitchKind::Csw)
        .map(|i| SwitchId(i as u32))
        .collect();
    let gray = topo
        .links()
        .iter()
        .position(|l| l.to == Node::Switch(csws[1]) && matches!(l.from, Node::Switch(_)))
        .map(|i| sonet_topology::LinkId(i as u32))
        .expect("every CSW has fabric uplinks");
    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(500),
            FaultKind::GrayLink {
                link: gray,
                drop_fraction: 0.02,
            },
        )
        .at(SimTime::from_millis(1500), FaultKind::SwitchDown(csws[0]))
        .at(
            SimTime::from_millis(2000),
            FaultKind::MirrorLoss { fraction: 0.25 },
        );
    CaptureConfig::fast(seed)
        .with_faults(plan)
        .with_fidelity(FidelityMode::Hybrid)
}

fn supervise(dir: &Path, threads: usize) -> SuperviseOptions {
    let mut opts = SuperviseOptions::new(dir);
    opts.every = SimDuration::from_secs(1);
    opts.threads = Some(threads);
    opts.audit = Some(false);
    opts
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn flatten<T>(r: Result<Result<T, String>, String>) -> Result<T, String> {
    r.and_then(|r| r)
}

/// The capture's output records: every packet the engine emitted.
fn packets(cap: &StandardCapture) -> u64 {
    cap.outputs.emitted_packets
}

// ---------------------------------------------------------------------
// Set-up: plant, workload and engine construction on each workload's
// configs.
// ---------------------------------------------------------------------

/// Mean seconds of one set-up of `w`, on the configs its run uses (built
/// before the clock starts), over back-to-back set-ups lasting at least
/// `min_s` in all.
pub fn setup_sample(w: Scenario, seed: u64, min_s: f64) -> f64 {
    let off = Ledger::off();
    let lab = LabConfig::fast(seed);
    let capture = match w {
        Scenario::Supervised => resume_config(seed),
        Scenario::PaperAll => lab.capture.clone(),
    };
    let t = Instant::now();
    let mut n = 0u32;
    while n == 0 || secs(t) < min_s {
        match w {
            Scenario::PaperAll => {
                black_box(Capture::build(&off, &capture).expect("capture set-up"));
                black_box(fleet_model(&off, &lab.fleet, Some(1)).expect("fleet set-up"));
                black_box(fig15_setup(&lab.fig15));
            }
            Scenario::Supervised => {
                black_box(Capture::build(&off, &capture).expect("capture set-up"));
                black_box(fleet_model(&off, &lab.fleet, Some(1)).expect("fleet set-up"));
            }
        }
        n += 1;
    }
    secs(t) / f64::from(n)
}

/// The construction half of `reports::fig15`: its plant, diurnal
/// workload and buffer-sampled engine.
fn fig15_setup(cfg: &Fig15Config) -> (Workload, Simulator<PortMirror>) {
    let topo = Arc::new(Topology::build(packet_tier_spec(cfg.scale)).expect("fig15 plant builds"));
    let mut profiles = ServiceProfiles::default();
    profiles.rate_scale = cfg.rate_scale;
    profiles.diurnal = DiurnalPattern::compressed(cfg.duration);
    let workload = Workload::new(Arc::clone(&topo), profiles, cfg.seed).expect("fig15 workload");
    let mut sim_cfg = SimConfig::default();
    sim_cfg.rsw_buffer = cfg.rsw_buffer;
    let mut sim =
        Simulator::new(Arc::clone(&topo), sim_cfg, PortMirror::new(1)).expect("fig15 engine");
    let rack = |role| {
        topo.racks()
            .iter()
            .position(|r| r.role == role)
            .expect("fast plant has web and cache racks")
    };
    let racks = [rack(HostRole::Web), rack(HostRole::CacheFollower)];
    sim.sample_buffers(
        cfg.sample_interval,
        SimDuration::from_secs(1),
        racks.iter().map(|&r| topo.racks()[r].rsw).collect(),
    )
    .expect("fig15 buffer sampling");
    let links: Vec<_> = racks
        .iter()
        .flat_map(|&r| topo.racks()[r].hosts.iter())
        .flat_map(|&h| [topo.host_uplink(h), topo.host_downlink(h)])
        .collect();
    sim.track_utilization(SimDuration::from_secs(1), &links)
        .expect("fig15 utilization tracking");
    (workload, sim)
}

// ---------------------------------------------------------------------
// The capture, decomposed into its public pieces.
// ---------------------------------------------------------------------

/// A capture run's live pieces, built and advanced the way
/// `StandardCapture::run` and `supervised::run_capture` build and advance
/// them.
pub struct Capture {
    topo: Arc<Topology>,
    workload: Workload,
    sim: Simulator<PortMirror>,
    monitored: HashMap<HostRole, HostId>,
    telemetry: Vec<FaultEvent>,
    tel_next: usize,
    t: SimTime,
    /// Engine counters at the start of this leg (non-zero after restore).
    events0: u64,
    pstats0: sonet_netsim::ParallelStats,
}

/// What a capture rebuilds from its config alone: plant, fresh workload,
/// monitored host per role.
type Statics = (Arc<Topology>, Workload, HashMap<HostRole, HostId>);

fn statics(led: &Ledger, cfg: &CaptureConfig) -> Result<Statics, String> {
    let topo = led.span("topology.build", || {
        Topology::build(packet_tier_spec(cfg.scale)).map_err(|e| e.to_string())
    })?;
    let topo = Arc::new(topo);
    let workload = led.span("workload.new", || {
        let mut profiles = ServiceProfiles::default();
        profiles.rate_scale = cfg.rate_scale;
        Workload::new(Arc::clone(&topo), profiles, cfg.seed).map_err(|e| e.to_string())
    })?;
    let monitored = MONITORED_ROLES
        .iter()
        .filter_map(|&r| workload.monitored_host(r).map(|h| (r, h)))
        .collect();
    Ok((topo, workload, monitored))
}

impl Capture {
    pub fn build(led: &Ledger, cfg: &CaptureConfig) -> Result<Capture, String> {
        let (topo, mut workload, monitored) = statics(led, cfg)?;
        let sim = led.span("netsim.new", || {
            let mut sim = Simulator::new(
                Arc::clone(&topo),
                SimConfig::default(),
                PortMirror::new(cfg.mirror_capacity),
            )
            .map_err(|e| e.to_string())?;
            if cfg.fidelity == FidelityMode::Hybrid {
                sim.set_fidelity(FidelityConfig::hybrid())
                    .map_err(|e| e.to_string())?;
            }
            for role in MONITORED_ROLES {
                if let Some(&h) = monitored.get(&role) {
                    sim.watch_link(topo.host_uplink(h));
                    sim.watch_link(topo.host_downlink(h));
                }
            }
            if let Some(&h) = monitored.get(&HostRole::Hadoop) {
                workload.ensure_busy_start(h, cfg.duration.as_secs_f64());
            }
            cfg.faults.validate(&topo)?;
            sim.inject_faults(&cfg.faults).map_err(|e| e.to_string())?;
            Ok::<_, String>(sim)
        })?;
        let mut c = Capture {
            topo,
            workload,
            sim,
            monitored,
            telemetry: cfg.faults.telemetry_events().copied().collect(),
            tel_next: 0,
            t: SimTime::ZERO,
            events0: 0,
            pstats0: Default::default(),
        };
        c.apply_telemetry();
        Ok(c)
    }

    /// Rebuilds a capture from a checkpoint file, as `resume_capture`
    /// does.
    fn resume(led: &Ledger, path: &Path) -> Result<(Capture, CaptureConfig), String> {
        let ckpt: CaptureCheckpoint = led.span("ckpt.decode", || {
            let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
            serde_json::from_str(&text).map_err(|e| e.to_string())
        })?;
        let cfg = ckpt.config.clone();
        let (topo, mut workload, monitored) = statics(led, &cfg)?;
        let sim = led.span("ckpt.restore", || {
            workload.restore(ckpt.workload).map_err(|e| e.to_string())?;
            Simulator::restore(Arc::clone(&topo), ckpt.mirror, ckpt.engine)
                .map_err(|e| e.to_string())
        })?;
        let c = Capture {
            topo,
            workload,
            events0: sim.processed_events(),
            pstats0: sim.parallel_stats(),
            sim,
            monitored,
            telemetry: cfg.faults.telemetry_events().copied().collect(),
            tel_next: ckpt.tel_next as usize,
            t: ckpt.at,
        };
        Ok((c, cfg))
    }

    fn apply_telemetry(&mut self) {
        while self.tel_next < self.telemetry.len() && self.telemetry[self.tel_next].at <= self.t {
            if let FaultKind::MirrorLoss { fraction } = self.telemetry[self.tel_next].kind {
                self.sim.tap_mut().set_fault_loss(fraction);
            }
            self.tel_next += 1;
        }
    }

    /// One generation window: generate calls, run the engine to the
    /// window's end, apply due telemetry faults.
    fn advance(&mut self, led: &Ledger, horizon: SimTime) -> Result<(), String> {
        self.t = (self.t + CAPTURE_WINDOW).min(horizon);
        let (workload, sim, t) = (&mut self.workload, &mut self.sim, self.t);
        led.span("workload.generate", || workload.generate(sim, t))
            .map_err(|e| e.to_string())?;
        led.span("netsim.run", || sim.run_until(t));
        self.apply_telemetry();
        led.max("netsim.pending_peak", self.sim.pending_events() as f64);
        Ok(())
    }

    /// Snapshots the run the way `supervised::run_capture` does and writes
    /// it atomically to `path`.
    fn checkpoint(&self, led: &Ledger, cfg: &CaptureConfig, path: &Path) -> Result<(), String> {
        let text = led.span("ckpt.encode", || {
            serde_json::to_string(&CaptureCheckpoint {
                config: cfg.clone(),
                at: self.t,
                tel_next: self.tel_next as u64,
                engine: self.sim.checkpoint(),
                workload: self.workload.checkpoint(),
                mirror: self.sim.tap().clone(),
            })
            .map_err(|e| e.to_string())
        })?;
        led.span("ckpt.write", || atomic_write(path, text.as_bytes()))
            .map_err(|e| e.to_string())?;
        led.add("ckpt.count", 1.0);
        led.add("ckpt.bytes", text.len() as f64);
        Ok(())
    }

    /// Adds this leg's engine and workload counters to the ledger.
    fn count_leg(&self, led: &Ledger) {
        let ps = self.sim.parallel_stats();
        led.add(
            "netsim.events",
            (self.sim.processed_events() - self.events0) as f64,
        );
        led.max("netsim.partitions", self.sim.partitions() as f64);
        led.add(
            "netsim.barriers",
            (ps.barriers - self.pstats0.barriers) as f64,
        );
        led.add(
            "netsim.busy_s",
            (ps.busy_ns - self.pstats0.busy_ns) as f64 / 1e9,
        );
        led.add(
            "netsim.idle_s",
            (ps.idle_ns - self.pstats0.idle_ns) as f64 / 1e9,
        );
        led.add("netsim.steals", (ps.steals - self.pstats0.steals) as f64);
        led.add(
            "netsim.bottleneck_events",
            (ps.bottleneck_events - self.pstats0.bottleneck_events) as f64,
        );
        led.add(
            "netsim.partitioned_events",
            (ps.events - self.pstats0.events) as f64,
        );
    }

    /// Turns the engine state into a `StandardCapture`, as
    /// `StandardCapture::run` does.
    fn finish(self, led: &Ledger, cfg: &CaptureConfig) -> StandardCapture {
        self.count_leg(led);
        let issued_calls = self.workload.issued_calls();
        led.add("workload.calls", issued_calls as f64);
        let (outputs, mirror) = led.span("netsim.finish", || self.sim.finish());
        count_outputs(led, &outputs);
        let (truncated, fault_dropped, overflow, offered, records) =
            led.span("telemetry.finish", || {
                (
                    mirror.truncated(),
                    mirror.fault_dropped(),
                    mirror.overflow(),
                    mirror.offered(),
                    mirror.into_records(),
                )
            });
        led.add("telemetry.mirror_offered", offered as f64);
        let monitored: Vec<(HostRole, HostId)> =
            self.monitored.iter().map(|(&r, &h)| (r, h)).collect();
        let traces = led.span("telemetry.trace_build", || {
            par::map_indexed(par::resolve_threads(None), monitored.len(), |i| {
                let (role, host) = monitored[i];
                (role, HostTrace::from_mirror(&records, host))
            })
        });
        StandardCapture {
            topo: self.topo,
            monitored: self.monitored,
            traces: traces.into_iter().collect(),
            outputs,
            duration: cfg.duration,
            truncated,
            issued_calls,
            mirror_fault_dropped: fault_dropped,
            mirror_overflow: overflow,
            mirror_offered: offered,
        }
    }
}

fn count_outputs(led: &Ledger, o: &SimOutputs) {
    let drops: u64 = o.link_counters.iter().map(|c| c.drop_packets).sum();
    let fault_drops: u64 = o.link_counters.iter().map(|c| c.fault_drop_packets).sum();
    for (name, v) in [
        ("netsim.emitted_packets", o.emitted_packets),
        ("netsim.drops", drops + fault_drops),
        ("netsim.flows_fast", o.flows_fast),
        ("netsim.flows_packet", o.flows_packet),
        ("netsim.demotions", o.fast_path_demotions),
        ("netsim.faults_applied", o.faults_applied),
        ("netsim.reroutes", o.reroutes),
        ("netsim.fault_drops", fault_drops),
        ("netsim.aborted_conns", o.aborted_connections),
    ] {
        led.add(name, v as f64);
    }
}

/// `StandardCapture::run`, decomposed.
fn traced_capture(led: &Ledger, cfg: &CaptureConfig) -> Result<StandardCapture, String> {
    let mut c = Capture::build(led, cfg)?;
    let horizon = SimTime::ZERO + cfg.duration;
    while c.t < horizon {
        c.advance(led, horizon)?;
    }
    Ok(c.finish(led, cfg))
}

/// The supervised capture loop: checkpoint every `every` of simulated
/// time; with `stop_after_first`, stop at the first checkpoint short of
/// the horizon (an event budget of one). Returns the finished capture,
/// or `None` when stopped.
fn traced_drive(
    led: &Ledger,
    mut c: Capture,
    cfg: &CaptureConfig,
    opts: &SuperviseOptions,
    stop_after_first: bool,
) -> Result<Option<StandardCapture>, String> {
    fs::create_dir_all(&opts.checkpoint_dir).map_err(|e| e.to_string())?;
    c.sim.set_parallel_width(opts.threads);
    let path = opts.capture_checkpoint_path();
    let horizon = SimTime::ZERO + cfg.duration;
    let mut next = c.t + opts.every;
    while c.t < horizon {
        c.advance(led, horizon)?;
        if c.t < next && c.t < horizon {
            continue;
        }
        c.checkpoint(led, cfg, &path)?;
        next = c.t + opts.every;
        if stop_after_first && c.t < horizon {
            c.count_leg(led);
            return Ok(None);
        }
    }
    Ok(Some(c.finish(led, cfg)))
}

fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The fleet tier, decomposed.
// ---------------------------------------------------------------------

fn fleet_model(
    led: &Ledger,
    cfg: &FleetRunConfig,
    threads: Option<usize>,
) -> Result<(Arc<Topology>, FleetModel), String> {
    let topo = led.span("topology.build", || {
        Topology::build(fleet_spec(cfg.scale)).map_err(|e| e.to_string())
    })?;
    let topo = Arc::new(topo);
    let mut model = led.span("fleet.new", || {
        FleetModel::new(
            Arc::clone(&topo),
            FleetConfig {
                samples_per_host: cfg.samples_per_host,
                ..FleetConfig::default()
            },
            cfg.seed,
        )
    });
    model.set_parallelism(threads);
    Ok((topo, model))
}

/// Tags a time-sorted sample stream into the fleet table (no agent loss
/// is configured, so no sample is thinned).
fn tag(
    led: &Ledger,
    topo: Arc<Topology>,
    samples: &[FlowRecord],
    relaxed_picks: u64,
    threads: Option<usize>,
) -> FleetData {
    led.add("fleet.records", samples.len() as f64);
    let table = led.span("telemetry.tag", || {
        Tagger::new(&topo).ingest_sharded(samples, par::resolve_threads(threads))
    });
    led.add("telemetry.rows", table.len() as f64);
    FleetData {
        topo,
        table,
        relaxed_picks,
        agent_dropped: 0,
    }
}

/// `FleetData::run_with`, decomposed.
fn traced_fleet(
    led: &Ledger,
    cfg: &FleetRunConfig,
    threads: Option<usize>,
) -> Result<FleetData, String> {
    let (topo, mut model) = fleet_model(led, cfg, threads)?;
    let samples = led.span("fleet.generate", || model.generate());
    Ok(tag(led, topo, &samples, model.relaxed_picks(), threads))
}

/// `supervised::run_fleet`, decomposed: chunked generation into the
/// crash-safe spool with a checkpoint after every chunk.
fn traced_supervised_fleet(
    led: &Ledger,
    cfg: &FleetRunConfig,
    opts: &SuperviseOptions,
) -> Result<FleetData, String> {
    let err = |e: io::Error| e.to_string();
    let (topo, mut model) = fleet_model(led, cfg, opts.threads)?;
    fs::create_dir_all(&opts.checkpoint_dir).map_err(err)?;
    let mut spool = TraceSpool::create(opts.fleet_spool_path()).map_err(err)?;
    let mut samples = Vec::new();
    while !model.exhausted() {
        let chunk = led.span("fleet.generate", || {
            model.generate_chunk(opts.hosts_per_chunk.max(1))
        });
        let durable = led
            .span("telemetry.spool", || {
                for r in &chunk {
                    spool.append(r)?;
                }
                spool.sync()
            })
            .map_err(err)?;
        samples.extend(chunk);
        let text = led.span("ckpt.encode", || {
            serde_json::to_string(&FleetCheckpoint {
                config: cfg.clone(),
                model: model.state(),
                spool_lines: durable,
            })
            .map_err(|e| e.to_string())
        })?;
        led.span("ckpt.write", || {
            atomic_write(&opts.fleet_checkpoint_path(), text.as_bytes())
        })
        .map_err(err)?;
        led.add("ckpt.count", 1.0);
        led.add("ckpt.bytes", text.len() as f64);
    }
    led.span("fleet.sort", || samples.sort_by_key(|r| r.at));
    Ok(tag(
        led,
        topo,
        &samples,
        model.relaxed_picks(),
        opts.threads,
    ))
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

/// Computes one experiment, then renders it, each in its own span.
fn rendered<R, O>(
    led: &Ledger,
    id: &str,
    compute: impl FnOnce() -> R,
    render: impl FnOnce(R) -> O,
) -> O {
    let r = led.span(&format!("analysis.{id}"), compute);
    led.span("analysis.render", || render(r))
}

/// Renders experiment `id` from pre-built substrates, as `sonet all`
/// does.
fn render_report(
    led: &Ledger,
    id: &str,
    capture: Option<&StandardCapture>,
    fleet: Option<&FleetData>,
    fig15: &Fig15Config,
) -> Result<String, String> {
    let cap = || capture.ok_or_else(|| format!("{id}: capture unavailable"));
    let flt = || fleet.ok_or_else(|| format!("{id}: fleet data unavailable"));
    let missing = |what: &str| format!("{id}: {what} missing");
    // `plain!(substrate, report)` computes and renders an infallible
    // report; `optional!` one that may lack its trace.
    macro_rules! plain {
        ($src:expr, $f:path) => {{
            let s = $src?;
            rendered(led, id, || $f(s), |r| r.render())
        }};
    }
    macro_rules! optional {
        ($f:path, $what:expr) => {{
            let s = cap()?;
            rendered(
                led,
                id,
                || $f(s),
                |r| r.map_or_else(|| missing($what), |r| r.render()),
            )
        }};
    }
    Ok(match id {
        "table2" => plain!(cap(), reports::table2),
        "table3" => plain!(flt(), reports::table3),
        "table4" => plain!(cap(), reports::table4),
        "fig4" => plain!(cap(), reports::fig4),
        "fig5" => {
            let f = flt()?;
            rendered(led, id, || reports::fig5(f), |r| r.map(|r| r.render()))
                .map_err(|e| e.to_string())?
        }
        "fig6" => plain!(cap(), reports::fig6),
        "fig7" => plain!(cap(), reports::fig7),
        "fig8" => optional!(reports::fig8, "traces"),
        "fig9" => optional!(reports::fig9, "cache trace"),
        "fig10" => plain!(cap(), reports::fig10),
        "fig11" => plain!(cap(), reports::fig11),
        "fig12" => plain!(cap(), reports::fig12),
        "fig13" => optional!(reports::fig13, "hadoop trace"),
        "fig14" => plain!(cap(), reports::fig14),
        "fig15" => rendered(led, id, || reports::fig15(fig15), |r| r.map(|r| r.render()))
            .map_err(|e| e.to_string())?,
        "fig16" => plain!(cap(), reports::fig16),
        "fig17" => plain!(cap(), reports::fig17),
        "util" => plain!(cap(), reports::utilization),
        "te" => plain!(cap(), reports::te_predictability),
        other => return Err(format!("unknown experiment '{other}'")),
    })
}

/// Records an op's outcome and, when it succeeded, its fingerprint.
fn record<T>(out: &mut Report, op: &str, r: &Result<T, String>, hash: impl FnOnce(&T) -> String) {
    match r {
        Ok(v) => {
            out.hashes.insert(op.to_owned(), hash(v));
            out.ops.push((op.to_owned(), None));
        }
        Err(e) => out.ops.push((op.to_owned(), Some(e.clone()))),
    }
}

// ---------------------------------------------------------------------
// The workloads.
// ---------------------------------------------------------------------

/// Runs workload `w` once. With `led` on, substrates are built from
/// their decomposed pieces under spans; otherwise through the entry
/// points. Fills `out` with the run's timings, counts, op outcomes and
/// output fingerprints; the peak RSS is read before fingerprinting.
pub fn run(w: Scenario, seed: u64, led: &Ledger, out: &mut Report) {
    let width = pin_width();
    out.nums.insert("width".into(), width as f64);
    match w {
        Scenario::PaperAll => paper_all(seed, led, out),
        Scenario::Supervised => supervised(seed, led, out),
    }
}

fn peak_rss(out: &mut Report) {
    let mb = sonet_core::supervisor::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64;
    out.nums.insert("peak_rss_mb".into(), mb);
}

fn build_capture(led: &Ledger, cfg: &CaptureConfig) -> Result<StandardCapture, String> {
    flatten(isolate(AssertUnwindSafe(|| {
        if led.is_on() {
            traced_capture(led, cfg)
        } else {
            Ok(StandardCapture::run(cfg))
        }
    })))
}

fn paper_all(seed: u64, led: &Ledger, out: &mut Report) {
    let mut cfg = LabConfig::fast(seed);
    cfg.threads = Some(1);
    let t0 = Instant::now();
    // As `sonet all`: the two substrates build concurrently.
    let ((capture, capture_s), fleet) = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let t = Instant::now();
            let c = build_capture(led, &cfg.capture);
            (c, secs(t))
        });
        let fleet = flatten(isolate(AssertUnwindSafe(|| {
            if led.is_on() {
                traced_fleet(led, &cfg.fleet, cfg.threads)
            } else {
                FleetData::run_with(&cfg.fleet, cfg.threads).map_err(|e| e.to_string())
            }
        })));
        (handle.join().expect("capture thread joins"), fleet)
    });
    let substrate_s = secs(t0);
    let mut renders = Vec::new();
    let mut fig15_s = 0.0;
    for id in EXPERIMENTS {
        let t = Instant::now();
        let r = flatten(isolate(AssertUnwindSafe(|| {
            render_report(
                led,
                id,
                capture.as_ref().ok(),
                fleet.as_ref().ok(),
                &cfg.fig15,
            )
        })));
        if id == "fig15" {
            fig15_s = secs(t);
        }
        renders.push((id, r));
    }
    let wall = secs(t0);
    peak_rss(out);
    let sim_s = (cfg.capture.duration + cfg.fig15.duration).as_secs_f64();
    let records =
        capture.as_ref().map_or(0, packets) + fleet.as_ref().map_or(0, |f| f.table.len() as u64);
    for (k, v) in [
        ("wall_s", wall),
        ("sim_s", sim_s),
        ("engine_s", capture_s + fig15_s),
        ("records", records as f64),
        ("records_s", substrate_s),
    ] {
        out.nums.insert(k.into(), v);
    }
    record(out, "capture", &capture, check::capture);
    record(out, "fleet", &fleet, check::fleet);
    for (id, r) in &renders {
        record(out, id, r, |s| check::text(s));
    }
}

/// The supervised runner's two paths, back to back: the capture stopped at
/// its first checkpoint and resumed, then the fast fleet day with its spool
/// and checkpoints, exported and read back. `ckpt_bytes` stays the
/// capture's stop-point checkpoint; wall time and records add up.
fn supervised(seed: u64, led: &Ledger, out: &mut Report) {
    capture_resume(seed, led, out);
    let mut fleet = Report::default();
    fleet_day(seed, led, &mut fleet);
    let num = |r: &Report, k: &str| r.nums.get(k).copied().unwrap_or(0.0);
    for k in ["wall_s", "records", "records_s"] {
        let v = num(out, k) + num(&fleet, k);
        out.nums.insert(k.into(), v);
    }
    // The process's high-water mark after both legs (the capture's
    // fingerprinting included).
    out.nums
        .insert("peak_rss_mb".into(), num(&fleet, "peak_rss_mb"));
    out.ops.extend(fleet.ops);
    out.hashes.extend(fleet.hashes);
}

fn capture_resume(seed: u64, led: &Ledger, out: &mut Report) {
    let cfg = resume_config(seed);
    let dir = work_dir("capture_resume");
    let mut opts = supervise(&dir, 1);
    let ckpt = opts.capture_checkpoint_path();
    // Leg 1: an event budget of one stops the run at its first
    // checkpoint (the CLI's exit-2 path).
    opts.budget.max_events = Some(1);
    let t = Instant::now();
    let stopped = flatten(isolate(AssertUnwindSafe(|| {
        let finished = if led.is_on() {
            let c = Capture::build(led, &cfg)?;
            traced_drive(led, c, &cfg, &opts, true)?.is_some()
        } else {
            !matches!(
                run_capture(&cfg, &opts).map_err(|e| e.to_string())?,
                (RunStatus::Stopped(_), None)
            )
        };
        if finished {
            Err("expected a budget stop at the first checkpoint".to_owned())
        } else {
            Ok(())
        }
    })));
    let run_s = secs(t);
    let ckpt_bytes = fs::metadata(&ckpt).map_or(0, |m| m.len());
    let stop_hash = check::file(&ckpt).map_err(|e| e.to_string());
    let stopped = stopped.and(stop_hash);
    // Leg 2: resume to completion.
    opts.budget.max_events = None;
    let t = Instant::now();
    let resumed = flatten(isolate(AssertUnwindSafe(|| {
        if led.is_on() {
            let (c, cfg) = Capture::resume(led, &ckpt)?;
            traced_drive(led, c, &cfg, &opts, false)?
                .ok_or_else(|| "resumed run stopped early".to_owned())
        } else {
            match resume_capture(&ckpt, &opts).map_err(|e| e.to_string())? {
                (RunStatus::Completed, Some(cap)) => Ok(cap),
                (status, _) => Err(format!("resume ended {status:?}")),
            }
        }
    })));
    let resume_s = secs(t);
    peak_rss(out);
    let _ = fs::remove_dir_all(&dir);
    for (k, v) in [
        ("wall_s", run_s + resume_s),
        ("resume_s", resume_s),
        ("ckpt_bytes", ckpt_bytes as f64),
        ("sim_s", cfg.duration.as_secs_f64()),
        ("engine_s", run_s + resume_s),
        ("records", resumed.as_ref().map_or(0, packets) as f64),
        ("records_s", run_s + resume_s),
    ] {
        out.nums.insert(k.into(), v);
    }
    record(out, "run", &stopped, |h| h.clone());
    record(out, "resume", &resumed, check::capture);
}

fn fleet_day(seed: u64, led: &Ledger, out: &mut Report) {
    let cfg = FleetRunConfig::fast(seed);
    let dir = work_dir("fleet_day");
    let threads = 1;
    let opts = supervise(&dir, threads);
    let t0 = Instant::now();
    let fleet = flatten(isolate(AssertUnwindSafe(|| {
        if led.is_on() {
            traced_supervised_fleet(led, &cfg, &opts)
        } else {
            match run_fleet(&cfg, &opts).map_err(|e| e.to_string())? {
                (RunStatus::Completed, Some(data)) => Ok(data),
                (status, _) => Err(format!("fleet run ended {status:?}")),
            }
        }
    })));
    let fleet_s = secs(t0);
    let size = |p: PathBuf| fs::metadata(p).map_or(0, |m| m.len());
    led.add(
        "telemetry.spool_bytes",
        size(opts.fleet_spool_path()) as f64,
    );
    let fig15 = Fig15Config::fast(seed);
    let renders: Vec<_> = ["table3", "fig5"]
        .into_iter()
        .map(|id| {
            let r = flatten(isolate(AssertUnwindSafe(|| {
                render_report(led, id, None, fleet.as_ref().ok(), &fig15)
            })));
            (id, r)
        })
        .collect();
    let day = dir.join("day.jsonl");
    let exported = match &fleet {
        Ok(data) => flatten(isolate(AssertUnwindSafe(|| {
            led.span("telemetry.export", || {
                let recs: Vec<FlowRecord> = data.table.rows().iter().map(|r| r.rec).collect();
                write_flows(File::create(&day)?, &recs)
            })
            .map_err(|e| e.to_string())
        }))),
        Err(_) => Err("fleet data unavailable".to_owned()),
    };
    let imported = match (&fleet, &exported) {
        (Ok(data), Ok(())) => flatten(isolate(AssertUnwindSafe(|| {
            led.span("telemetry.import", || {
                let (recs, stats) = read_flows(File::open(&day)?)?;
                let table = Tagger::new(&data.topo).ingest_sharded(&recs, threads);
                Ok::<_, io::Error>((table, stats))
            })
            .map_err(|e| e.to_string())
        }))),
        _ => Err("nothing exported".to_owned()),
    };
    let wall = secs(t0);
    peak_rss(out);
    let rows = fleet.as_ref().map_or(0, |f| f.table.len());
    for (k, v) in [
        ("wall_s", wall),
        ("records", rows as f64),
        ("records_s", fleet_s),
    ] {
        out.nums.insert(k.into(), v);
    }
    record(out, "fleet", &fleet, check::fleet);
    for (id, r) in &renders {
        record(out, id, r, |s| check::text(s));
    }
    let exported = exported.and_then(|()| check::file(&day).map_err(|e| e.to_string()));
    record(out, "export", &exported, |h| h.clone());
    // The round trip must rebuild the same table.
    let imported = imported.and_then(|(table, stats)| {
        let same = fleet.as_ref().is_ok_and(|f| f.table.rows() == table.rows());
        if stats.skipped > 0 || stats.ok != rows as u64 || !same {
            Err(format!(
                "round trip rebuilt a different table ({} ok, {} skipped, {} rows, same: {same})",
                stats.ok, stats.skipped, rows
            ))
        } else {
            Ok(table)
        }
    });
    record(out, "import", &imported, check::table);
    let _ = fs::remove_dir_all(&dir);
}

/// The run the supervised workload's resumed capture must equal: the same
/// capture without a stop.
pub fn reference(seed: u64, out: &mut Report) {
    par::set_threads(1);
    let cfg = resume_config(seed);
    let r = flatten(isolate(AssertUnwindSafe(|| Ok(StandardCapture::run(&cfg)))));
    record(out, "resume", &r, check::capture);
}
