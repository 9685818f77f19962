//! The four workloads, each run through `phoenix`'s public API.
//!
//! One call of [`Runner::rep`] sets up a fresh machine, runs the workload
//! once, and checks its outputs. The host clock is read only around the
//! benchmark's own calls into the simulator: set-up, the workload itself,
//! and (when traced) each virtual-time slice, each kill, the spawned
//! app's `on_event`, the timeline fold and the metrics digest.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use phoenix::apps::{Dd, DdStatus, Wget, WgetStatus};
use phoenix::campaign::{run_failsilent_campaign, FailsilentConfig};
use phoenix::experiments::{fig8_expected_sha1, fig8_files};
use phoenix::fault::chaos::ChaosPlan;
use phoenix::kernel::process::{ProcEvent, Process};
use phoenix::kernel::system::Ctx;
use phoenix::loadgen::{InetLoadConfig, VfsLoadConfig};
use phoenix::servers::fsfmt::{FileContent, FileSpec};
use phoenix::servers::netproto::stream_md5;
use phoenix::simcore::metrics::LogHistogram;
use phoenix::simcore::obs::{phase, Timeline};
use phoenix::simcore::time::{SimDuration, SimTime};
use phoenix::{metrics_digest, names, run_slo_campaign, NicKind, Os, OsBuilder, SloCampaignConfig};

/// Bytes `wget` downloads in `net_kill`.
const NET_BYTES: u64 = 64 << 20;
/// Bytes `dd` reads in `disk_kill`.
const DISK_BYTES: u64 = 256 << 20;
/// `dd`'s read size (Fig. 8).
const DISK_CHUNK: u64 = 128 * 1024;
/// Virtual time between driver kills in `net_kill` and `disk_kill`.
const KILL_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// The driver loop advances virtual time in slices of at most this.
const SLICE: SimDuration = SimDuration::from_millis(100);
/// INET sessions of each `slo_chaos` campaign's open-loop fleet. (At
/// 3,500 the work a campaign does is bimodal in the seed.)
const SLO_SESSIONS: u32 = 1_200;
/// Campaigns per `slo_chaos` rep, each with its own derived seed.
const SLO_SEEDS: u64 = 6;
/// VFS clients of `slo_chaos`'s job mix.
const SLO_VFS_CLIENTS: u32 = 8;
/// Chaos intensity of `slo_chaos`.
const SLO_INTENSITY: f64 = 0.3;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 shape: `wget` over the RTL8139, driver killed every second.
    NetKill,
    /// Fig. 8 shape: `dd` through VFS→MFS→SATA, driver killed every second.
    DiskKill,
    /// §7.2 mutations round-robin over the net, block and char drivers.
    FaultMix,
    /// Open-loop INET + VFS load under IPC chaos and driver kills.
    SloChaos,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::NetKill,
        Workload::DiskKill,
        Workload::FaultMix,
        Workload::SloChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetKill => "net_kill",
            Workload::DiskKill => "disk_kill",
            Workload::FaultMix => "fault_mix",
            Workload::SloChaos => "slo_chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One output check of one rep.
#[derive(Debug)]
pub struct Check {
    /// What was checked, e.g. `md5`.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared, for the failure message.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Host-clock spans of one rep. Zero where the workload has no such call:
/// a campaign workload drives `Os::run_for` itself, so it has no slices,
/// kills or app wrapper.
#[derive(Debug, Default)]
pub struct Spans {
    /// Total time inside `Os::run_for`.
    pub run_for: Duration,
    /// Time of each virtual-time slice (at most [`SLICE`] each).
    pub slices: Vec<Duration>,
    /// Time of each `Os::kill_by_user` call.
    pub kills: Vec<Duration>,
    /// Time inside the spawned app's `on_event`.
    pub app_self: Duration,
    /// Time inside the whole campaign call.
    pub campaign: Duration,
    /// Time of `Os::timeline()` on the final trace.
    pub fold: Duration,
    /// Time of `metrics_digest`.
    pub digest: Duration,
}

/// Virtual-time outcome of one rep. A pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Virtual seconds the workload simulated.
    pub sim_s: f64,
    /// Application payload delivered per virtual second, MB/s
    /// (undefined for `fault_mix`).
    pub goodput_mbs: Option<f64>,
    /// Median detection→reintegration time over complete episodes, ms.
    pub recovery_ms: f64,
    /// p99 latency of successful requests completing in a recovery
    /// phase, ms (`slo_chaos` only).
    pub p99_ms: Option<f64>,
}

/// Everything one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Host time of the workload itself, set-up excluded.
    pub wall: Duration,
    /// Virtual-time outcome.
    pub sim: SimOutcome,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The determinism fingerprint: digest, virtual time and work counts,
    /// as `(name, value)` pairs in a fixed order.
    pub fingerprint: Vec<(String, String)>,
    /// Exact work counts, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Host-clock spans. Slices, kills and the app's self time are
    /// recorded in traced reps only.
    pub spans: Spans,
}

/// Runs reps of one workload at one seed, caching the expected output
/// digests (computing them is not part of the workload).
pub struct Runner {
    workload: Workload,
    seed: u64,
    expected: Option<String>,
}

impl Runner {
    /// A runner for `workload` with inputs generated from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Runner {
        Runner {
            workload,
            seed,
            expected: None,
        }
    }

    /// Host time to build and boot the workload's machine (and, for the
    /// kill workloads, spawn its app). The campaign workloads boot inside
    /// the campaign call, so this times a boot of the same `OsBuilder`
    /// configuration.
    pub fn setup(&self) -> Duration {
        let t = Instant::now();
        let os = match self.workload {
            Workload::NetKill => NetRig::boot(self.seed, false).os,
            Workload::DiskKill => DiskRig::boot(self.seed, false).os,
            Workload::FaultMix => fault_mix_builder(self.seed).boot(),
            Workload::SloChaos => slo_builder(self.seed).boot(),
        };
        let spent = t.elapsed();
        drop(os);
        spent
    }

    /// Sets up, runs and checks the workload once. `traced` turns on the
    /// per-layer spans.
    pub fn rep(&mut self, traced: bool) -> Rep {
        match self.workload {
            Workload::NetKill => self.net_kill(traced),
            Workload::DiskKill => self.disk_kill(traced),
            Workload::FaultMix => self.fault_mix(),
            Workload::SloChaos => self.slo_chaos(),
        }
    }

    fn net_kill(&mut self, traced: bool) -> Rep {
        let mut rig = NetRig::boot(self.seed, traced);
        let mut spans = Spans::default();
        let start = rig.os.now();
        let status = rig.status.clone();
        let driver = rig.os.eth_driver_name().expect("network configured");
        let t = Instant::now();
        let kills = kill_loop(
            &mut rig.os,
            driver,
            || status.borrow().done,
            start + SimDuration::from_secs(120),
            traced.then_some(&mut spans),
        );
        let wall = t.elapsed();
        spans.app_self = rig.app_self.get();

        let expected = self
            .expected
            .get_or_insert_with(|| stream_md5(rig.content_seed, NET_BYTES))
            .clone();
        let st = status.borrow();
        let elapsed = st.finished_at.unwrap_or(rig.os.now()).since(start);
        let checks = vec![
            check(
                "md5",
                st.md5.as_deref() == Some(expected.as_str()),
                format!("got {:?}, want {expected}", st.md5),
            ),
            check(
                "bytes",
                st.bytes == NET_BYTES,
                format!("got {}, want {NET_BYTES}", st.bytes),
            ),
        ];
        let goodput = st.bytes as f64 / 1e6 / elapsed.as_secs_f64();
        drop(st);
        finish_kill_rep(&rig.os, driver, kills, wall, start, goodput, checks, spans)
    }

    fn disk_kill(&mut self, traced: bool) -> Rep {
        let mut rig = DiskRig::boot(self.seed, traced);
        let mut spans = Spans::default();
        let start = rig.os.now();
        let status = rig.status.clone();
        let t = Instant::now();
        let kills = kill_loop(
            &mut rig.os,
            names::BLK_SATA,
            || status.borrow().done,
            start + SimDuration::from_secs(240),
            traced.then_some(&mut spans),
        );
        let wall = t.elapsed();
        spans.app_self = rig.app_self.get();

        let (sectors, disk_seed) = (rig.sectors, rig.disk_seed);
        let expected = self
            .expected
            .get_or_insert_with(|| fig8_expected_sha1(sectors, disk_seed, DISK_BYTES))
            .clone();
        let st = status.borrow();
        let elapsed = st.finished_at.unwrap_or(rig.os.now()).since(start);
        let checks = vec![
            check(
                "sha1",
                st.sha1.as_deref() == Some(expected.as_str()),
                format!("got {:?}, want {expected}", st.sha1),
            ),
            check(
                "app_errors",
                st.errors == 0,
                format!("dd saw {} I/O errors", st.errors),
            ),
        ];
        let goodput = st.bytes as f64 / 1e6 / elapsed.as_secs_f64();
        drop(st);
        finish_kill_rep(
            &rig.os,
            names::BLK_SATA,
            kills,
            wall,
            start,
            goodput,
            checks,
            spans,
        )
    }

    fn fault_mix(&mut self) -> Rep {
        let cfg = FailsilentConfig {
            seed: self.seed,
            ..FailsilentConfig::default().quick()
        };
        let t = Instant::now();
        let (result, os) = run_failsilent_campaign(&cfg);
        let wall = t.elapsed();
        let mut spans = Spans {
            campaign: wall,
            ..Spans::default()
        };
        let (timeline, _) = fold_and_digest(&os, &mut spans);
        let checks = vec![
            check(
                "unrecovered",
                result.unrecovered() == 0,
                format!("{} injected defects did not recover", result.unrecovered()),
            ),
            check(
                "detected",
                result.detected() > 0,
                format!("{} injected defects detected", result.detected()),
            ),
            check(
                "unaccounted_episodes",
                timeline.unaccounted().is_empty(),
                format!("{} episodes unaccounted", timeline.unaccounted().len()),
            ),
        ];
        // The campaign keeps its workloads' byte odometers private, so no
        // goodput is defined here.
        let sim = SimOutcome {
            sim_s: os.now().as_secs_f64(),
            goodput_mbs: None,
            recovery_ms: median_ms(recovery_totals_us(&timeline)),
            p99_ms: None,
        };
        let mut counts = work_counts(&os);
        counts.insert("fault.injections", result.injections());
        Rep {
            wall,
            fingerprint: fingerprint(&result.digest, &sim, &counts),
            sim,
            checks,
            counts,
            spans,
        }
    }

    /// Runs [`SLO_SEEDS`] campaigns, one per seed derived from the run's
    /// seed, and reports them as one: how much work one campaign does
    /// depends on its seed (chaos picks what to drop and kill), so a rep
    /// averages over several.
    fn slo_chaos(&mut self) -> Rep {
        let mut wall = Duration::ZERO;
        let mut spans = Spans::default();
        let mut checks = Vec::new();
        let mut digests = Vec::new();
        let mut counts = BTreeMap::new();
        let mut recoveries = Vec::new();
        let mut recovery_latency = LogHistogram::new();
        let (mut sim_s, mut goodput, mut span_us) = (0.0, 0, 0);
        for j in 0..SLO_SEEDS {
            let cfg = slo_config(self.seed ^ (j << 32));
            let ((result, os), spent) = timed(|| run_slo_campaign(&cfg));
            wall += spent;
            let (timeline, _) = fold_and_digest(&os, &mut spans);
            let seed = cfg.seed;
            checks.push(check(
                "recovery_rate",
                result.recovery_rate() == 1.0,
                format!(
                    "seed {seed}: {} of {} kills recovered",
                    result.kills.iter().filter(|k| k.recovered).count(),
                    result.kills.len()
                ),
            ));
            checks.push(check(
                "unaccounted_episodes",
                result.unaccounted_episodes == 0,
                format!(
                    "seed {seed}: {} episodes unaccounted",
                    result.unaccounted_episodes
                ),
            ));
            checks.push(check(
                "drained",
                result.inet_drained && result.vfs_drained,
                format!(
                    "seed {seed}: inet drained {}, vfs drained {}",
                    result.inet_drained, result.vfs_drained
                ),
            ));
            digests.push(result.digest.clone());
            for (k, v) in work_counts(&os) {
                *counts.entry(k).or_default() += v;
            }
            recoveries.extend(recovery_totals_us(&timeline));
            for ph in [
                phase::DETECT,
                phase::REPAIR,
                phase::REINTEGRATE,
                phase::REPLAY,
            ] {
                if let Some(h) = os.metrics().log_histogram(&format!("slo.latency.{ph}")) {
                    recovery_latency.merge(h);
                }
            }
            sim_s += os.now().as_secs_f64();
            goodput += result.phases.iter().map(|p| p.goodput_bytes).sum::<u64>();
            span_us += result.phases.iter().map(|p| p.phase_us).sum::<u64>();
        }
        spans.campaign = wall;
        counts.insert("fault.injections", 0);
        let sim = SimOutcome {
            sim_s,
            goodput_mbs: Some(goodput as f64 / span_us.max(1) as f64),
            recovery_ms: median_ms(recoveries),
            p99_ms: recovery_latency.quantile(0.99).map(|us| us as f64 / 1e3),
        };
        Rep {
            wall,
            fingerprint: fingerprint(&digests.join(","), &sim, &counts),
            sim,
            checks,
            counts,
            spans,
        }
    }
}

/// Wraps an app so its `on_event` time is summed into `spent`.
struct SelfTimed {
    inner: Box<dyn Process>,
    spent: Rc<Cell<Duration>>,
}

impl Process for SelfTimed {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        let t = Instant::now();
        self.inner.on_event(ctx, event);
        self.spent.set(self.spent.get() + t.elapsed());
    }
}

/// `app` itself, or (traced) `app` behind a [`SelfTimed`] wrapper.
fn maybe_timed(
    traced: bool,
    app: Box<dyn Process>,
    spent: &Rc<Cell<Duration>>,
) -> Box<dyn Process> {
    if traced {
        Box::new(SelfTimed {
            inner: app,
            spent: spent.clone(),
        })
    } else {
        app
    }
}

struct NetRig {
    os: Os,
    status: Rc<RefCell<WgetStatus>>,
    content_seed: u64,
    app_self: Rc<Cell<Duration>>,
}

impl NetRig {
    fn boot(seed: u64, traced: bool) -> NetRig {
        let content_seed = seed ^ 0x5157_4745;
        let mut os = Os::builder()
            .seed(seed)
            .with_network(NicKind::Rtl8139)
            .boot();
        let inet = os.endpoint(names::INET).expect("inet up after boot");
        let status = Rc::new(RefCell::new(WgetStatus::default()));
        let app_self = Rc::new(Cell::new(Duration::ZERO));
        let wget = Box::new(Wget::new(inet, NET_BYTES, content_seed, status.clone()));
        os.spawn_app("wget", maybe_timed(traced, wget, &app_self));
        NetRig {
            os,
            status,
            content_seed,
            app_self,
        }
    }
}

struct DiskRig {
    os: Os,
    status: Rc<RefCell<DdStatus>>,
    sectors: u64,
    disk_seed: u64,
    app_self: Rc<Cell<Duration>>,
}

impl DiskRig {
    fn boot(seed: u64, traced: bool) -> DiskRig {
        let disk_seed = seed ^ 0x5341_5441;
        let sectors = DISK_BYTES / 512 + 1024;
        let mut os = Os::builder()
            .seed(seed)
            .with_disk(sectors, disk_seed, fig8_files(DISK_BYTES))
            .boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let status = Rc::new(RefCell::new(DdStatus::default()));
        let app_self = Rc::new(Cell::new(Duration::ZERO));
        let dd = Box::new(Dd::new(vfs, "bigfile", DISK_CHUNK, status.clone()));
        os.spawn_app("dd", maybe_timed(traced, dd, &app_self));
        DiskRig {
            os,
            status,
            sectors,
            disk_seed,
            app_self,
        }
    }
}

/// The machine `run_failsilent_campaign` boots (its rig is private to
/// `phoenix`, so set-up time is measured on the same configuration).
fn fault_mix_builder(seed: u64) -> OsBuilder {
    let file_size = 256 * 1024u64;
    let files = vec![FileSpec {
        name: "stream".to_string(),
        content: FileContent::Synthetic { size: file_size },
    }];
    Os::builder()
        .seed(seed)
        .with_network(NicKind::Dp8390)
        .with_disk(file_size / 512 + 256, seed ^ 0xd15c, files)
        .with_chardevs()
        .heartbeat(SimDuration::from_millis(500), 2)
}

fn slo_config(seed: u64) -> SloCampaignConfig {
    SloCampaignConfig {
        seed,
        inet: InetLoadConfig {
            sessions: SLO_SESSIONS,
            ..InetLoadConfig::default()
        },
        vfs: VfsLoadConfig {
            clients: SLO_VFS_CLIENTS,
            ..VfsLoadConfig::default()
        },
        intensity: SLO_INTENSITY,
        ..SloCampaignConfig::default()
    }
}

/// The machine `run_slo_campaign` boots for [`slo_config`].
fn slo_builder(seed: u64) -> OsBuilder {
    let cfg = slo_config(seed);
    let files = vec![FileSpec {
        name: cfg.vfs.path.clone(),
        content: FileContent::Synthetic {
            size: cfg.file_size,
        },
    }];
    Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Rtl8139)
        .with_disk(cfg.file_size / 512 + 256, cfg.seed ^ 0xd15c, files)
        .heartbeat(SimDuration::from_millis(500), 3)
        .chaos(ChaosPlan::driver_traffic(cfg.intensity))
}

/// The benchmark's driver loop for the kill workloads (the §7.1 crash
/// script): advance virtual time in slices, SIGKILL `driver` every
/// [`KILL_INTERVAL`], stop when `done` or at `deadline`. Returns the
/// number of kills. With `spans`, times every slice and kill.
fn kill_loop(
    os: &mut Os,
    driver: &str,
    done: impl Fn() -> bool,
    deadline: SimTime,
    mut spans: Option<&mut Spans>,
) -> u64 {
    let mut kills = 0;
    let mut next_kill = os.now() + KILL_INTERVAL;
    while !done() && os.now() < deadline {
        let step = next_kill.min(os.now() + SLICE).since(os.now());
        let step = if step.is_zero() {
            SimDuration::from_micros(1)
        } else {
            step
        };
        match spans.as_deref_mut() {
            Some(s) => {
                let ((), d) = timed(|| os.run_for(step));
                s.run_for += d;
                s.slices.push(d);
            }
            None => os.run_for(step),
        }
        if os.now() >= next_kill {
            let killed = match spans.as_deref_mut() {
                Some(s) => {
                    let (killed, d) = timed(|| os.kill_by_user(driver));
                    s.kills.push(d);
                    killed
                }
                None => os.kill_by_user(driver),
            };
            kills += u64::from(killed);
            next_kill += KILL_INTERVAL;
        }
    }
    kills
}

/// The recovery checks, virtual-time outcome and fingerprint shared by
/// the two kill workloads.
#[allow(clippy::too_many_arguments)]
fn finish_kill_rep(
    os: &Os,
    driver: &str,
    kills: u64,
    wall: Duration,
    start: SimTime,
    goodput_mbs: f64,
    mut checks: Vec<Check>,
    mut spans: Spans,
) -> Rep {
    let (timeline, digest) = fold_and_digest(os, &mut spans);
    let complete = timeline
        .for_service(driver)
        .filter(|e| e.complete())
        .count() as u64;
    checks.push(check(
        "kills",
        kills > 0,
        format!("{kills} kills in the run"),
    ));
    checks.push(check(
        "recovered",
        complete == kills && os.is_up(driver),
        format!(
            "{complete} complete episodes for {kills} kills, driver up {}",
            os.is_up(driver)
        ),
    ));
    checks.push(check(
        "unaccounted_episodes",
        timeline.unaccounted().is_empty(),
        format!("{} episodes unaccounted", timeline.unaccounted().len()),
    ));
    let sim = SimOutcome {
        sim_s: os.now().since(start).as_secs_f64(),
        goodput_mbs: Some(goodput_mbs),
        recovery_ms: median_ms(recovery_totals_us(&timeline)),
        p99_ms: None,
    };
    let mut counts = work_counts(os);
    counts.insert("fault.injections", 0);
    Rep {
        wall,
        fingerprint: fingerprint(&digest, &sim, &counts),
        sim,
        checks,
        counts,
        spans,
    }
}

/// Folds the final trace into a timeline and digests the metrics, adding
/// the host time of each to `spans`.
fn fold_and_digest(os: &Os, spans: &mut Spans) -> (Timeline, String) {
    let (timeline, fold) = timed(|| os.timeline());
    let (digest, digest_time) = timed(|| metrics_digest(os));
    spans.fold += fold;
    spans.digest += digest_time;
    (timeline, digest)
}

/// Runs `f`, returning its result and the host time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Totals (death → last dependent resumed) of the complete episodes, in
/// virtual µs.
fn recovery_totals_us(timeline: &Timeline) -> Vec<u64> {
    timeline
        .episodes
        .iter()
        .filter(|e| e.complete())
        .filter_map(|e| e.total())
        .map(|d| d.as_micros())
        .collect()
}

/// Median of virtual µs samples, in ms; 0 when there are none.
fn median_ms(mut us: Vec<u64>) -> f64 {
    if us.is_empty() {
        return 0.0;
    }
    us.sort_unstable();
    let n = us.len();
    let mid = if n % 2 == 1 {
        us[n / 2] as f64
    } else {
        (us[n / 2 - 1] + us[n / 2]) as f64 / 2.0
    };
    mid / 1e3
}

/// Exact work counts read from the registry and the trace ring.
fn work_counts(os: &Os) -> BTreeMap<&'static str, u64> {
    let m = os.metrics();
    let c = |name: &str| m.counter(name);
    let chaos: u64 = m
        .counters()
        .filter(|(k, _)| k.starts_with("chaos."))
        .map(|(_, v)| v)
        .sum();
    BTreeMap::from([
        (
            "kernel.ipc_ops",
            c("ipc.sends") + c("ipc.sendrecs") + c("ipc.replies") + c("ipc.notifies"),
        ),
        ("kernel.irqs", c("irq.delivered")),
        ("kernel.deaths", c("kernel.deaths")),
        ("kernel.aborted_calls", c("ipc.aborted_calls")),
        ("servers.rs.recoveries", c("rs.recoveries")),
        ("servers.mfs.reads", c("mfs.reads")),
        ("servers.cdev.writes", c("cdev.writes")),
        ("servers.inet.stream_bytes", c("inet.stream_bytes")),
        ("servers.inet.retransmits", c("inet.retransmits")),
        ("servers.sentinel.scrubs", c("sentinel.mfs.scrubs")),
        ("fault.chaos.msgs", chaos),
        (
            "simcore.trace.events",
            os.trace().len() as u64 + os.trace_dropped(),
        ),
    ])
}

/// The determinism fingerprint: digest, virtual time (exact, in µs) and
/// every work count.
fn fingerprint(
    digest: &str,
    sim: &SimOutcome,
    counts: &BTreeMap<&'static str, u64>,
) -> Vec<(String, String)> {
    let mut fp = vec![
        ("digest".to_string(), digest.to_string()),
        (
            "sim_us".to_string(),
            format!("{}", (sim.sim_s * 1e6).round() as u64),
        ),
        ("goodput_mbs".to_string(), format!("{:?}", sim.goodput_mbs)),
        ("recovery_ms".to_string(), format!("{:?}", sim.recovery_ms)),
        ("p99_ms".to_string(), format!("{:?}", sim.p99_ms)),
    ];
    fp.extend(counts.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    fp
}
