//! The §7.2 software fault-injection campaign.
//!
//! "One experiment run inside the Bochs PC emulator targeted the DP8390
//! Ethernet driver and repeatedly injected 1 randomly selected fault into
//! the running driver until it crashed. In total, we injected over 12,500
//! faults, which led to 347 detectable crashes: 226 exits due to an
//! internal panic (65%), 109 kill signals due to CPU and MMU exceptions
//! (31%), and 12 restarts due to missing heartbeat messages (4%). The
//! subsequent recovery was successful in 100% of the induced failures."
//!
//! This module drives exactly that experiment against our DP8390 driver,
//! with background datagram traffic keeping the driver's hot paths
//! executing. A second configuration enables the NIC model's *wedge*
//! behavior to reproduce the real-hardware tail where "the network card
//! was confused by the faulty driver and could not be reinitialized by the
//! restarted driver" and only a BIOS-level reset helps.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_fault::chaos::ChaosPlan;
use phoenix_fault::NameFilter;
use phoenix_hw::chardev::{AudioDac, Printer};
use phoenix_hw::dp8390::{Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::Rtl8139Config;
use phoenix_hw::WireConfig;
use phoenix_kernel::types::Endpoint;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_servers::peer::PeerConfig;
use phoenix_servers::policy::{reason, AdaptParam, PolicyScript};
use phoenix_servers::ServerFault;
use phoenix_simcore::digest::Md5;
use phoenix_simcore::obs::{phase, Timeline};
use phoenix_simcore::time::SimDuration;

use crate::apps::{
    CkptLpd, CkptLpdStatus, CkptMp3Player, CkptMp3Status, Dd, DdLoop, DdLoopStatus, DdStatus, Lpd,
    LpdLoop, LpdLoopStatus, LpdStatus, Mp3Player, Mp3Status, UdpPing, UdpStatus, Wget, WgetStatus,
};
use crate::loadgen::{InetLoadConfig, InetLoadGen, LoadStatus, VfsJobMix, VfsLoadConfig};
use crate::os::{hwmap, names, NicKind, Os, OsBuilder};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

// ------------------------------------------------------------------------
// Steps the campaign families share: wait, kill, watch and seal.

/// Runs `os` in `step` slices until `pred` holds, checking before the
/// first slice and after each one, for at most `max_steps` slices.
/// Returns whether `pred` held.
fn poll(
    os: &mut Os,
    step: SimDuration,
    max_steps: u64,
    mut pred: impl FnMut(&mut Os) -> bool,
) -> bool {
    for _ in 0..max_steps {
        if pred(os) {
            return true;
        }
        os.run_for(step);
    }
    pred(os)
}

/// Waits up to `max_steps` slices of `step` for `target` to come back as
/// an incarnation other than `before`.
fn await_fresh(
    os: &mut Os,
    target: &str,
    before: Endpoint,
    step: SimDuration,
    max_steps: u64,
) -> bool {
    poll(os, step, max_steps, |os| {
        os.endpoint(target).is_some_and(|ep| ep != before)
    })
}

/// §7.1's crash-simulation step: waits up to `max_steps` 10 ms slices for
/// `target` to be up, kills it, waits as long again for a fresh
/// incarnation, then lets the machine run for `settle`. A target that
/// never came up is not killed and is recorded as unrecovered.
fn kill_and_await(
    os: &mut Os,
    target: &str,
    max_steps: u64,
    settle: SimDuration,
) -> ChaosKillRecord {
    let mut record = ChaosKillRecord {
        target: target.to_string(),
        recovered: false,
        mttr: SimDuration::ZERO,
    };
    poll(os, ms(10), max_steps, |os| os.is_up(target));
    let Some(before) = os.endpoint(target) else {
        return record;
    };
    let t0 = os.now();
    os.kill_by_user(target);
    record.recovered = await_fresh(os, target, before, ms(10), max_steps);
    record.mttr = os.now().since(t0);
    os.run_for(settle);
    record
}

/// How one injection resolved.
#[derive(PartialEq)]
enum Outcome {
    /// A detector fired: RS replaced the incarnation.
    Detected,
    /// The workload moved on and no detector fired.
    Benign,
    /// The workload froze and no detector fired within the window.
    FailSilent,
}

/// Watches `target` (incarnation `before`) after an injection, in `step`
/// slices for up to `window`. Once `settled` reports that the workload
/// moved on, a still-accumulating complaint quorum gets `grace` to land
/// before the mutation is called benign.
fn watch(
    os: &mut Os,
    target: &str,
    before: Endpoint,
    step: SimDuration,
    window: SimDuration,
    grace: SimDuration,
    mut settled: impl FnMut() -> bool,
) -> Outcome {
    let replaced = |os: &Os| os.endpoint(target) != Some(before);
    let steps = window.as_micros().div_ceil(step.as_micros());
    if !poll(os, step, steps, |os| replaced(os) || settled()) {
        return Outcome::FailSilent;
    }
    if !replaced(os) {
        os.run_for(grace);
        if !replaced(os) {
            return Outcome::Benign;
        }
    }
    Outcome::Detected
}

/// Adds a disk holding one synthetic file `name` of `size` bytes, plus
/// 256 spare blocks.
fn stream_disk(builder: OsBuilder, seed: u64, name: &str, size: u64) -> OsBuilder {
    let files = vec![FileSpec {
        name: name.to_string(),
        content: FileContent::Synthetic { size },
    }];
    builder.with_disk(size / 512 + 256, seed ^ 0xd15c, files)
}

/// Background datagram traffic that keeps the network driver's hot paths
/// executing.
fn udp_traffic(os: &mut Os, period: SimDuration) -> Rc<RefCell<UdpStatus>> {
    let status = Rc::new(RefCell::new(UdpStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    os.spawn_app(
        "udp-traffic",
        Box::new(UdpPing::new(inet, 2_000_000, period, status.clone())),
    );
    status
}

/// Trace events the ring evicted before the campaign folded it. Non-zero
/// means the folded recovery timeline may be missing episodes or phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLoss {
    /// Events lost in total.
    pub total: u64,
    /// Per-event-kind breakdown of [`TraceLoss::total`].
    pub by_kind: Vec<(String, u64)>,
}

impl TraceLoss {
    /// The warning a campaign summary appends, e.g. `; WARNING: 515 trace
    /// events lost (request 512, defect 3) (timeline may be incomplete)`.
    /// Empty when nothing was lost.
    pub fn warning(&self) -> String {
        if self.total == 0 {
            return String::new();
        }
        let parts: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        format!(
            "; WARNING: {} trace events lost ({}) (timeline may be incomplete)",
            self.total,
            parts.join(", "),
        )
    }
}

/// Fossilizes the trace ring's loss accounting into the digest-covered
/// registry: the total plus one `trace.dropped.{kind}` gauge per evicted
/// event kind, so high-volume request events can't silently evict
/// recovery events without the digest noticing.
pub fn fossilize_trace_loss(os: &mut Os) -> TraceLoss {
    let loss = TraceLoss {
        total: os.trace_dropped(),
        by_kind: os.trace_dropped_by_kind(),
    };
    os.metrics_mut().add("trace.dropped", loss.total);
    for (kind, n) in &loss.by_kind {
        os.metrics_mut().add(&format!("trace.dropped.{kind}"), *n);
    }
    loss
}

/// MD5 over the sorted counter dump: the determinism fingerprint of a run.
pub fn metrics_digest(os: &Os) -> String {
    let mut counters: Vec<(String, u64)> = os
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    counters.sort();
    let mut md5 = Md5::new();
    for (k, v) in counters {
        md5.update(format!("{k}={v}\n").as_bytes());
    }
    md5.finish_hex()
}

/// Ends a campaign: records the caller's folded `timeline` as per-phase
/// metrics, fossilizes the trace loss, and returns the loss together with
/// the run's digest.
fn seal(os: &mut Os, timeline: &Timeline) -> (TraceLoss, String) {
    timeline.record_into(os.metrics_mut());
    let loss = fossilize_trace_loss(os);
    (loss, metrics_digest(os))
}

/// `num / den`, or 1 when there was nothing to count.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 1.0;
    }
    num as f64 / den as f64
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Total faults to inject.
    pub injections: u64,
    /// Virtual time between injections.
    pub injection_interval: SimDuration,
    /// Probability that a reserved-register write wedges the NIC
    /// (0 for the emulator campaign, small for the "real hardware" one).
    pub wedge_prob: f64,
    /// Background datagram period (traffic exercising the driver).
    pub traffic_period: SimDuration,
    /// Heartbeat period for the driver under test.
    pub heartbeat_period: SimDuration,
    /// Consecutive misses before heartbeat recovery.
    pub heartbeat_misses: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2007,
            injections: 12_500,
            injection_interval: SimDuration::from_millis(20),
            wedge_prob: 0.0,
            traffic_period: SimDuration::from_millis(5),
            heartbeat_period: SimDuration::from_millis(500),
            heartbeat_misses: 2,
        }
    }
}

/// One detected crash.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Defect class (§5.1 numbering; see `phoenix_servers::policy::reason`).
    pub defect: u8,
    /// Faults injected since the previous crash.
    pub injections_since_last: u64,
    /// Whether automatic recovery succeeded.
    pub recovered: bool,
    /// Whether an out-of-band BIOS reset was required (wedged card).
    pub needed_hard_reset: bool,
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Total faults injected.
    pub injections: u64,
    /// Every detected crash in order.
    pub crashes: Vec<CrashRecord>,
    /// Silent failures: the driver stayed alive and answered heartbeats
    /// but stopped moving data, so the *user* noticed the freeze and
    /// instructed RS to restart it (§5.1 input 3). The paper's design
    /// explicitly cannot detect these automatically (§3: no protection
    /// against Byzantine behavior without end-to-end checks).
    pub silent_restarts: u64,
}

impl CampaignResult {
    /// Number of crashes with the given defect class.
    pub fn count(&self, defect: u8) -> usize {
        self.crashes.iter().filter(|c| c.defect == defect).count()
    }

    /// Crashes recovered automatically.
    pub fn recovered(&self) -> usize {
        self.crashes
            .iter()
            .filter(|c| c.recovered && !c.needed_hard_reset)
            .count()
    }

    /// Crashes needing the BIOS-reset escape hatch.
    pub fn hard_resets(&self) -> usize {
        self.crashes.iter().filter(|c| c.needed_hard_reset).count()
    }

    /// Percentage helper.
    pub fn pct(&self, n: usize) -> f64 {
        if self.crashes.is_empty() {
            0.0
        } else {
            n as f64 * 100.0 / self.crashes.len() as f64
        }
    }

    /// Renders the §7.2-style summary.
    pub fn render(&self) -> String {
        let panics = self.count(reason::EXIT);
        let exceptions = self.count(reason::EXCEPTION);
        let heartbeats = self.count(reason::HEARTBEAT);
        format!(
            "injected {} faults -> {} detectable crashes: \
             {} exits/panics ({:.0}%), {} CPU/MMU exceptions ({:.0}%), \
             {} missing heartbeats ({:.0}%); recovery ok {} ({:.1}%), \
             hard resets {}, silent freezes (user restart) {}",
            self.injections,
            self.crashes.len(),
            panics,
            self.pct(panics),
            exceptions,
            self.pct(exceptions),
            heartbeats,
            self.pct(heartbeats),
            self.recovered() + self.hard_resets(),
            self.pct(self.recovered() + self.hard_resets()),
            self.hard_resets(),
            self.silent_restarts,
        )
    }
}

const DEFECTS: [u8; 6] = [
    reason::EXIT,
    reason::EXCEPTION,
    reason::KILLED,
    reason::HEARTBEAT,
    reason::COMPLAINT,
    reason::UPDATE,
];

fn defect_counts(os: &Os) -> [u64; 6] {
    let mut out = [0; 6];
    for (i, d) in DEFECTS.iter().enumerate() {
        out[i] = os
            .metrics()
            .counter(&format!("rs.defect.{}", reason::name(*d)));
    }
    out
}

/// Classifies a crash from the defect-counter delta. Restart-failure
/// panics can pollute the `exit` class, so the rarer, unambiguous classes
/// win.
fn classify(before: [u64; 6], after: [u64; 6]) -> u8 {
    let delta: Vec<u64> = before.iter().zip(after).map(|(b, a)| a - *b).collect();
    if delta[3] > 0 {
        reason::HEARTBEAT
    } else if delta[1] > 0 {
        reason::EXCEPTION
    } else if delta[4] > 0 {
        reason::COMPLAINT
    } else if delta[2] > 0 {
        reason::KILLED
    } else {
        reason::EXIT
    }
}

/// Runs the fault-injection campaign. Returns the result plus the UDP
/// traffic status (for liveness sanity checks).
pub fn run_campaign(cfg: &CampaignConfig) -> (CampaignResult, Rc<RefCell<UdpStatus>>) {
    let driver = names::ETH_DP8390;
    let mut os = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Dp8390)
        .network_tuning(
            Rtl8139Config::default(),
            Dp8390Config {
                wedge_prob: cfg.wedge_prob,
                ..Dp8390Config::default()
            },
            WireConfig::default(),
            PeerConfig::default(),
        )
        .heartbeat(cfg.heartbeat_period, cfg.heartbeat_misses)
        .boot();

    let status = udp_traffic(&mut os, cfg.traffic_period);
    os.run_for(ms(50));

    let mut result = CampaignResult::default();
    let mut since_last = 0u64;
    let mut last_echoed = status.borrow().echoed;
    let mut last_progress = os.now();
    let mut down_ticks = 0u32;
    while result.injections < cfg.injections {
        let Some(ep_before) = os.endpoint(driver) else {
            // Driver restarting; give it time.
            os.run_for(ms(100));
            down_ticks += 1;
            if down_ticks >= 50 {
                // The driver is not coming back on its own: a wedged card
                // turns every restart into an init panic until the storm
                // ladder gives up. Model the §5.1-input-3 user: apply the
                // out-of-band BIOS reset and ask RS to try again.
                reset_if_wedged(&mut os);
                os.service_restart(driver);
                down_ticks = 0;
            }
            continue;
        };
        down_ticks = 0;
        // Silent-failure watchdog: a mutated driver can desync its rx ring
        // and go quiet while still answering heartbeats — undetectable by
        // the system (§3), but the *user* notices the frozen traffic and
        // restarts the driver by hand (§5.1 input 3). Not counted as a
        // detectable crash.
        let echoed = status.borrow().echoed;
        if echoed != last_echoed {
            last_echoed = echoed;
            last_progress = os.now();
        } else if os.now().since(last_progress) > SimDuration::from_secs(2) {
            result.silent_restarts += 1;
            os.service_restart(driver);
            await_fresh(&mut os, driver, ep_before, ms(100), 100);
            last_progress = os.now();
            continue;
        }
        let counts_before = defect_counts(&os);
        if os.inject_fault(driver).is_none() {
            os.run_for(ms(100));
            continue;
        }
        result.injections += 1;
        since_last += 1;
        os.run_for(cfg.injection_interval);
        // Crash detection: the incarnation changed or the driver is gone.
        // A *stuck* driver is still "alive" here; it is detected when the
        // heartbeat misses accumulate, within a later interval.
        if os.endpoint(driver) == Some(ep_before) {
            continue;
        }
        // Wait for recovery (§7.2 reports 100% on the emulator).
        let mut recovered = await_fresh(&mut os, driver, ep_before, ms(100), 100);
        let mut needed_hard_reset = false;
        // The card may be wedged: restarted drivers keep panicking at
        // init. Apply the out-of-band BIOS reset and try once more.
        if !recovered && reset_if_wedged(&mut os) {
            needed_hard_reset = true;
            os.service_restart(driver);
            recovered = await_fresh(&mut os, driver, ep_before, ms(100), 100);
        }
        let defect = classify(counts_before, defect_counts(&os));
        result.crashes.push(CrashRecord {
            defect,
            injections_since_last: since_last,
            recovered,
            needed_hard_reset,
        });
        since_last = 0;
        // Let traffic re-establish before the next injection.
        os.run_for(ms(50));
    }
    (result, status)
}

/// Applies the out-of-band BIOS reset if the NIC is wedged; returns
/// whether it was.
fn reset_if_wedged(os: &mut Os) -> bool {
    let wedged = os
        .device_mut::<Dp8390>(hwmap::NIC)
        .is_some_and(|d| d.is_wedged());
    if wedged {
        os.hard_reset_device(hwmap::NIC);
    }
    wedged
}

// ------------------------------------------------------------------------
// Chaos campaign: recovery under a hostile IPC fabric.

/// Parameters of the chaos-resilience campaign: repeated driver kills
/// while the IPC fabric drops, delays, duplicates and corrupts messages.
#[derive(Debug, Clone)]
pub struct ChaosCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Scale factor on the [`ChaosPlan::driver_traffic`] preset
    /// (1.0 = 10% drop, 10% delay, 5% duplication, 2% corruption).
    pub intensity: f64,
    /// User kills per driver under test (network and block).
    pub kills_per_target: u64,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// Arm one kill of the network driver's *fresh incarnation during
    /// recovery* (crash-during-recovery resilience).
    pub mid_recovery_kill: bool,
    /// Background datagram period.
    pub traffic_period: SimDuration,
}

impl Default for ChaosCampaignConfig {
    fn default() -> Self {
        ChaosCampaignConfig {
            seed: 2007,
            intensity: 1.0,
            kills_per_target: 4,
            kill_interval: SimDuration::from_secs(5),
            mid_recovery_kill: true,
            traffic_period: SimDuration::from_millis(5),
        }
    }
}

/// One kill and its observed recovery.
#[derive(Debug, Clone)]
pub struct ChaosKillRecord {
    /// Service killed.
    pub target: String,
    /// Whether a fresh incarnation came up within the grace period.
    pub recovered: bool,
    /// Time from the kill to the fresh incarnation (mean time to repair).
    pub mttr: SimDuration,
}

/// Aggregate chaos-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct ChaosCampaignResult {
    /// Chaos intensity the campaign ran at.
    pub intensity: f64,
    /// Every kill in order.
    pub kills: Vec<ChaosKillRecord>,
    /// Messages the chaos layer dropped / delayed / duplicated / corrupted.
    pub dropped: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub delayed: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub duplicated: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub corrupted: u64,
    /// Mid-recovery kills the chaos layer executed.
    pub recovery_kills: u64,
    /// Restart storms RS detected (must be 0 at moderate intensity).
    pub storms: u64,
    /// Services RS gave up on.
    pub gave_up: u64,
    /// Extra defects RS recovered beyond the scripted kills (heartbeat
    /// misses from stalls, corrupted-request panics, ...).
    pub total_recoveries: u64,
    /// Trace events lost to ring eviction.
    pub trace_loss: TraceLoss,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs (determinism regression handle).
    pub digest: String,
}

impl ChaosCampaignResult {
    /// Fraction of kills that recovered, in [0, 1].
    pub fn recovery_rate(&self) -> f64 {
        recovery_rate(&self.kills)
    }

    /// Mean time to repair over the recovered kills.
    pub fn mean_mttr(&self) -> SimDuration {
        let recovered: Vec<&ChaosKillRecord> = self.kills.iter().filter(|k| k.recovered).collect();
        if recovered.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = recovered.iter().map(|k| k.mttr.as_micros()).sum();
        SimDuration::from_micros(total / recovered.len() as u64)
    }

    /// Renders the §7.2-style summary line.
    pub fn render(&self) -> String {
        format!(
            "chaos intensity {:.2}: {} kills -> recovery {:.0}%, mean MTTR {}, \
             {} mid-recovery kills, {} storms, {} give-ups; fabric dropped {} \
             delayed {} duplicated {} corrupted {}; digest {}{}",
            self.intensity,
            self.kills.len(),
            self.recovery_rate() * 100.0,
            self.mean_mttr(),
            self.recovery_kills,
            self.storms,
            self.gave_up,
            self.dropped,
            self.delayed,
            self.duplicated,
            self.corrupted,
            self.digest,
            self.trace_loss.warning(),
        )
    }
}

/// Fraction of `kills` that recovered, in [0, 1].
fn recovery_rate(kills: &[ChaosKillRecord]) -> f64 {
    ratio(
        kills.iter().filter(|k| k.recovered).count() as u64,
        kills.len() as u64,
    )
}

/// Runs the chaos campaign: boots a machine with the RTL8139 network stack
/// and a SATA disk, installs the driver-traffic chaos preset, then
/// repeatedly kills the network and block drivers (§7.1's crash-simulation
/// script) while the fabric misbehaves, measuring recovery rate and MTTR.
/// Hands back the booted [`Os`] so the caller can export the trace and
/// fold the recovery timeline of the exact run the summary describes.
pub fn run_chaos_campaign(cfg: &ChaosCampaignConfig) -> (ChaosCampaignResult, Os) {
    let eth = names::ETH_RTL8139;
    let blk = names::BLK_SATA;
    let mut plan = ChaosPlan::driver_traffic(cfg.intensity);
    if cfg.mid_recovery_kill {
        // Strike the first respawned network-driver incarnation 2 ms into
        // its life — recovery must survive a crash *during* recovery.
        plan = plan.kill_during_recovery(NameFilter::exact(eth), 0, 1, ms(2));
    }
    let mut os = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Rtl8139)
        .with_disk(4096, cfg.seed ^ 0x5eed, vec![])
        .heartbeat(ms(500), 3)
        .chaos(plan)
        .boot();

    // Background traffic keeps the network driver's request path hot, so
    // dropped and corrupted messages actually have something to hit.
    udp_traffic(&mut os, cfg.traffic_period);
    os.run_for(ms(100));

    // A target may still be inside a chaos-lengthened recovery from the
    // previous round; `kill_and_await` waits for it to be up first.
    let kills = (0..cfg.kills_per_target)
        .flat_map(|_| [eth, blk])
        .map(|target| kill_and_await(&mut os, target, 3000, cfg.kill_interval))
        .collect();
    // Drain in-flight recoveries before reading the counters.
    os.run_for(SimDuration::from_secs(2));
    // Fold the trace into per-episode phase timings and fossilize them —
    // and the ring's loss counter — as metrics, so phase MTTRs land in the
    // same digest-covered registry as everything else.
    let timeline = os.timeline();
    let (trace_loss, digest) = seal(&mut os, &timeline);
    let m = os.metrics();
    let result = ChaosCampaignResult {
        intensity: cfg.intensity,
        kills,
        dropped: m.counter("chaos.dropped"),
        delayed: m.counter("chaos.delayed"),
        duplicated: m.counter("chaos.duplicated"),
        corrupted: m.counter("chaos.corrupted"),
        recovery_kills: m.counter("chaos.kills"),
        storms: m.counter("rs.storms"),
        gave_up: m.counter("rs.gave_up"),
        total_recoveries: m.counter("rs.recoveries"),
        trace_loss,
        digest,
    };
    (result, os)
}

// ------------------------------------------------------------------------
// Checkpoint campaign: char-driver kills with and without phoenix-ckpt.

/// Parameters of the checkpoint campaign: repeated kills of the stream
/// char drivers (printer, audio) while a print job and an audio stream
/// are in flight, with the `phoenix-ckpt` subsystem on or off.
#[derive(Debug, Clone)]
pub struct CkptCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Driver kills, alternating printer / audio.
    pub faults: u64,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// `true` = checkpoint/replay path; `false` = the paper's §6.3
    /// error-push baseline.
    pub checkpointing: bool,
}

impl Default for CkptCampaignConfig {
    fn default() -> Self {
        CkptCampaignConfig {
            seed: 2007,
            faults: 100,
            kill_interval: SimDuration::from_millis(400),
            checkpointing: true,
        }
    }
}

/// Aggregate checkpoint-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CkptCampaignResult {
    /// Whether the run had checkpointing on.
    pub checkpointing: bool,
    /// Kills executed.
    pub kills: u64,
    /// Kills after which a fresh incarnation came up in time.
    pub recovered_kills: u64,
    /// Bytes the printer committed to paper (device oracle).
    pub printed_bytes: u64,
    /// Bytes the print job contained.
    pub expected_printed: u64,
    /// The printed stream equals the job byte-for-byte — no duplicated
    /// page, no lost line.
    pub printer_byte_exact: bool,
    /// Bytes the DAC played (device oracle).
    pub samples_played: u64,
    /// Bytes the audio stream contained.
    pub expected_samples: u64,
    /// Errors that reached the applications: baseline job restarts /
    /// fatal reports / dropped blocks, or residual errors on the
    /// checkpointed path (must be 0 there).
    pub app_visible_errors: u64,
    /// Log replays the checkpointed apps performed (transparent).
    pub replays: u64,
    /// Char WRITE requests the drivers served.
    pub requests: u64,
    /// Snapshot saves the drivers issued.
    pub saves: u64,
    /// Snapshot restores completed.
    pub restores: u64,
    /// Replayed bytes deduplicated against restored watermarks.
    pub dedup_bytes: u64,
    /// Watermark jumps (lost/corrupt snapshot, caller log trusted).
    pub watermark_jumps: u64,
    /// Both workloads ran to completion.
    pub workloads_done: bool,
    /// MD5 over the canonical metrics dump (determinism handle).
    pub digest: String,
}

impl CkptCampaignResult {
    /// Fraction of kills fully transparent to the applications, in
    /// [0, 1]: recovery completed and no error surfaced.
    pub fn transparency_rate(&self) -> f64 {
        let opaque = self.app_visible_errors.min(self.kills) + (self.kills - self.recovered_kills);
        ratio(self.kills - opaque.min(self.kills), self.kills)
    }

    /// Extra DS messages (saves + restores) per served char request —
    /// the per-request logging overhead of the subsystem.
    pub fn overhead_msgs_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.saves + self.restores) as f64 / self.requests as f64
    }

    /// Renders the summary line.
    pub fn render(&self) -> String {
        format!(
            "ckpt={}: {} kills ({} recovered) -> transparency {:.0}%, \
             printer {}/{} bytes (byte-exact: {}), audio {}/{} bytes, \
             app errors {}, replays {}, saves {}, restores {}, \
             dedup {} B, watermark jumps {}, overhead {:.3} msg/req; digest {}",
            self.checkpointing,
            self.kills,
            self.recovered_kills,
            self.transparency_rate() * 100.0,
            self.printed_bytes,
            self.expected_printed,
            self.printer_byte_exact,
            self.samples_played,
            self.expected_samples,
            self.app_visible_errors,
            self.replays,
            self.saves,
            self.restores,
            self.dedup_bytes,
            self.watermark_jumps,
            self.overhead_msgs_per_request(),
            self.digest,
        )
    }
}

/// Deterministic pattern for the print job: a pure function of the seed,
/// so the byte-exactness oracle can regenerate it.
pub fn ckpt_print_job(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64 * 131) >> 3) as u8)
        .collect()
}

/// Bytes per audio block: 25 ms of CD stereo audio.
const AUDIO_BLOCK_BYTES: usize = 4410;

/// The stream drivers, indexed by [`CharStreams::class`].
const STREAM_DRIVERS: [&str; 2] = [names::CHR_PRINTER, names::CHR_AUDIO];

/// The char-stream workload of the checkpoint and standby campaigns: one
/// print job through the printer driver and one paced audio stream
/// through the audio driver, judged at the end by the device oracles.
struct CharStreams {
    job: Vec<u8>,
    blocks_total: u64,
    apps: StreamApps,
}

/// The two stream apps: checkpointed (log and replay) or the paper's
/// §6.3 error-push baseline.
enum StreamApps {
    Ckpt(Rc<RefCell<CkptLpdStatus>>, Rc<RefCell<CkptMp3Status>>),
    Legacy(Rc<RefCell<LpdStatus>>, Rc<RefCell<Mp3Status>>),
}

/// What a drained char-stream run delivered.
struct StreamVerdict {
    printed_bytes: u64,
    printer_byte_exact: bool,
    samples_played: u64,
    app_visible_errors: u64,
    replays: u64,
    workloads_done: bool,
}

impl CharStreams {
    /// Spawns the print job `job` and an audio stream of `blocks_total`
    /// blocks.
    fn spawn(os: &mut Os, job: Vec<u8>, blocks_total: u64, checkpointed: bool) -> Self {
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let period = ms(25);
        let apps = if checkpointed {
            let lpd = Rc::new(RefCell::new(CkptLpdStatus::default()));
            let mp3 = Rc::new(RefCell::new(CkptMp3Status::default()));
            os.spawn_app(
                "ckpt-lpd",
                Box::new(CkptLpd::new(vfs, job.clone(), lpd.clone())),
            );
            os.spawn_app(
                "ckpt-mp3",
                Box::new(CkptMp3Player::new(
                    vfs,
                    blocks_total,
                    AUDIO_BLOCK_BYTES,
                    period,
                    mp3.clone(),
                )),
            );
            StreamApps::Ckpt(lpd, mp3)
        } else {
            let lpd = Rc::new(RefCell::new(LpdStatus::default()));
            let mp3 = Rc::new(RefCell::new(Mp3Status::default()));
            os.spawn_app("lpd", Box::new(Lpd::new(vfs, job.clone(), lpd.clone())));
            os.spawn_app(
                "mp3",
                Box::new(Mp3Player::new(
                    vfs,
                    blocks_total,
                    AUDIO_BLOCK_BYTES,
                    period,
                    mp3.clone(),
                )),
            );
            StreamApps::Legacy(lpd, mp3)
        };
        CharStreams {
            job,
            blocks_total,
            apps,
        }
    }

    fn expected_samples(&self) -> u64 {
        self.blocks_total * AUDIO_BLOCK_BYTES as u64
    }

    /// Progress odometer and completion of one stream (see
    /// [`STREAM_DRIVERS`]): driver-acked bytes for the checkpointed apps, accepted bytes or
    /// played blocks for the baseline.
    fn class(&self, class: usize) -> (u64, bool) {
        match (&self.apps, class) {
            (StreamApps::Ckpt(lpd, _), 0) => (lpd.borrow().acked, lpd.borrow().done),
            (StreamApps::Ckpt(_, mp3), _) => (mp3.borrow().acked, mp3.borrow().done),
            (StreamApps::Legacy(lpd, _), 0) => (lpd.borrow().accepted, lpd.borrow().done),
            (StreamApps::Legacy(_, mp3), _) => (mp3.borrow().blocks_played, mp3.borrow().done),
        }
    }

    fn done(&self) -> bool {
        self.class(0).1 && self.class(1).1
    }

    /// Both apps finished and the DAC played every block (it still has
    /// queued blocks to play after the last ack).
    fn played_out(&self, os: &mut Os) -> bool {
        let played = os
            .device_mut::<AudioDac>(hwmap::AUDIO)
            .map_or(0, |d| d.samples_played());
        self.done() && played >= self.expected_samples()
    }

    /// The printer committed the whole job to paper (an app's `done` means
    /// acked by the driver; the printer FIFO may still be draining).
    fn printed_out(&self, os: &mut Os) -> bool {
        let printed = os
            .device_mut::<Printer>(hwmap::PRINTER)
            .map_or(0, |p| p.printed().len());
        printed >= self.job.len()
    }

    /// Reads the device oracles and the apps' error accounting.
    fn judge(&self, os: &mut Os) -> StreamVerdict {
        let (printed_bytes, printer_byte_exact) = os
            .device_mut::<Printer>(hwmap::PRINTER)
            .map_or((0, false), |p| {
                (p.printed().len() as u64, p.printed() == &self.job[..])
            });
        let samples_played = os
            .device_mut::<AudioDac>(hwmap::AUDIO)
            .map_or(0, |d| d.samples_played());
        let (app_visible_errors, replays) = match &self.apps {
            StreamApps::Ckpt(lpd, mp3) => {
                let (lpd, mp3) = (lpd.borrow(), mp3.borrow());
                (lpd.app_errors + mp3.app_errors, lpd.replays + mp3.replays)
            }
            StreamApps::Legacy(lpd, mp3) => {
                let (lpd, mp3) = (lpd.borrow(), mp3.borrow());
                (lpd.job_restarts + lpd.fatal + mp3.blocks_dropped, 0)
            }
        };
        StreamVerdict {
            printed_bytes,
            printer_byte_exact,
            samples_played,
            app_visible_errors,
            replays,
            workloads_done: self.done(),
        }
    }
}

/// Runs the checkpoint campaign: boots the char-device machine (with or
/// without `phoenix-ckpt`), starts a print job and a paced audio stream,
/// then kills the printer and audio drivers alternately while both are in
/// flight. Returns the result plus the booted [`Os`] for trace/timeline
/// inspection.
pub fn run_ckpt_campaign(cfg: &CkptCampaignConfig) -> (CkptCampaignResult, Os) {
    let mut builder = Os::builder().seed(cfg.seed).heartbeat(ms(500), 3);
    builder = if cfg.checkpointing {
        builder.with_checkpointing()
    } else {
        builder.with_chardevs()
    };
    let mut os = builder.boot();

    // Workloads sized to stay in flight across the whole kill schedule.
    let job = ckpt_print_job(cfg.seed, (cfg.faults as usize).max(4) * 3072);
    let streams = CharStreams::spawn(&mut os, job, cfg.faults.max(4) * 6, cfg.checkpointing);
    os.run_for(ms(100));

    let mut recovered_kills = 0;
    for i in 0..cfg.faults {
        let target = STREAM_DRIVERS[(i % 2) as usize];
        if kill_and_await(&mut os, target, 600, cfg.kill_interval).recovered {
            recovered_kills += 1;
        }
    }

    // Drain: let both workloads run to completion, then the printer FIFO.
    poll(&mut os, ms(50), 1200, |os| streams.played_out(os));
    poll(&mut os, ms(50), 400, |os| streams.printed_out(os));
    let v = streams.judge(&mut os);

    // Fossilize the folded timeline (including the replay phase) and the
    // trace-loss counter into the digest-covered registry.
    let timeline = os.timeline();
    let (_, digest) = seal(&mut os, &timeline);
    let m = os.metrics();
    let result = CkptCampaignResult {
        checkpointing: cfg.checkpointing,
        kills: cfg.faults,
        recovered_kills,
        printed_bytes: v.printed_bytes,
        expected_printed: streams.job.len() as u64,
        printer_byte_exact: v.printer_byte_exact,
        samples_played: v.samples_played,
        expected_samples: streams.expected_samples(),
        app_visible_errors: v.app_visible_errors,
        replays: v.replays,
        requests: m.counter("cdev.writes"),
        saves: m.counter("ckpt.saves"),
        restores: m.counter("ckpt.restores"),
        dedup_bytes: m.counter("ckpt.dedup_bytes"),
        watermark_jumps: m.counter("ckpt.watermark_jumps"),
        workloads_done: v.workloads_done,
        digest,
    };
    (result, os)
}

// ------------------------------------------------------------------------
// Fail-silent campaign: mutations that do NOT crash the driver.

/// The three driver classes the fail-silent campaign mutates, with the
/// workload class that observes each one.
const FAILSILENT_TARGETS: [(&str, &str); 3] = [
    ("net", names::ETH_DP8390),
    ("block", names::BLK_SATA),
    ("char", names::CHR_PRINTER),
];

/// Parameters of the fail-silent detection campaign.
#[derive(Debug, Clone)]
pub struct FailsilentConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Injection rounds. Each round mutates every driver class once.
    pub rounds: u64,
    /// Virtual time between an injection and the first classification
    /// check (the mutation needs live traffic to take effect).
    pub injection_interval: SimDuration,
    /// How long an injected driver may sit endpoint-stable with a frozen
    /// workload before we declare the defect *fail-silent survived*. Must
    /// exceed every detector's horizon (MFS deadline 5 s, kernel progress
    /// watchdog 8 s, RS audit 750 ms) so "survived" means "survived all
    /// of them".
    pub detect_window: SimDuration,
    /// With `false`, boots the machine via
    /// [`crate::os::OsBuilder::without_sentinels`]: the crash-only
    /// baseline arm (heartbeats and exceptions still fire; protocol
    /// sentinels, babble guards and RS guard polling do not).
    pub sentinels: bool,
}

impl Default for FailsilentConfig {
    fn default() -> Self {
        FailsilentConfig {
            seed: 2007,
            rounds: 40,
            injection_interval: SimDuration::from_millis(20),
            detect_window: SimDuration::from_secs(10),
            sentinels: true,
        }
    }
}

impl FailsilentConfig {
    /// CI-sized variant (seconds, not minutes).
    pub fn quick(mut self) -> Self {
        self.rounds = 8;
        self
    }
}

/// Per-driver-class outcome counts.
#[derive(Debug, Clone, Default)]
pub struct FailsilentClassStats {
    /// Workload class ("net" / "block" / "char").
    pub class: String,
    /// Driver service name.
    pub driver: String,
    /// Mutations actually applied to this driver.
    pub injections: u64,
    /// Defects detected by the system (any RS defect class) and followed
    /// by a successful restart attempt.
    pub detected: u64,
    /// Detected defects where complaint evidence participated.
    pub sentinel_detected: u64,
    /// Detected defects where ONLY the complaint counter moved: the
    /// crash-only detectors (exit / exception / heartbeat) saw nothing,
    /// so these are coverage strictly beyond the baseline.
    pub sentinel_only: u64,
    /// Mutations that froze the workload yet survived the whole detect
    /// window unnoticed; the user restarts the driver by hand (§5.1
    /// input 3). These are the defects the paper calls fail-silent.
    pub fail_silent: u64,
    /// Rounds that exhausted their mutation budget with every mutation
    /// shrugged off (progress continued, no detector fired). Individual
    /// benign mutations inside a round are visible as `injections` minus
    /// the round outcomes.
    pub benign: u64,
    /// Detected or user-restarted drivers that did not come back up
    /// within the recovery guard.
    pub unrecovered: u64,
}

/// Outcome of [`run_failsilent_campaign`].
#[derive(Debug, Clone, Default)]
pub struct FailsilentResult {
    /// Whether the sentinel layers were armed (vs the baseline arm).
    pub sentinels: bool,
    /// One entry per driver class, in [`FAILSILENT_TARGETS`] order.
    pub classes: Vec<FailsilentClassStats>,
    /// Trace events lost to ring eviction.
    pub trace_loss: TraceLoss,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl FailsilentResult {
    fn sum(&self, f: impl Fn(&FailsilentClassStats) -> u64) -> u64 {
        self.classes.iter().map(f).sum()
    }

    /// Total mutations applied.
    pub fn injections(&self) -> u64 {
        self.sum(|c| c.injections)
    }

    /// Total system-detected defects.
    pub fn detected(&self) -> u64 {
        self.sum(|c| c.detected)
    }

    /// Detections with complaint evidence.
    pub fn sentinel_detected(&self) -> u64 {
        self.sum(|c| c.sentinel_detected)
    }

    /// Detections invisible to the crash-only baseline.
    pub fn sentinel_only(&self) -> u64 {
        self.sum(|c| c.sentinel_only)
    }

    /// Fail-silent survivors (user had to restart by hand).
    pub fn fail_silent(&self) -> u64 {
        self.sum(|c| c.fail_silent)
    }

    /// Mutations the workloads shrugged off.
    pub fn benign(&self) -> u64 {
        self.sum(|c| c.benign)
    }

    /// Restarts that did not complete within the guard.
    pub fn unrecovered(&self) -> u64 {
        self.sum(|c| c.unrecovered)
    }

    /// Detected / (detected + fail-silent), in [0, 1]. Benign mutations
    /// are excluded: there was nothing to detect.
    pub fn coverage(&self) -> f64 {
        ratio(self.detected(), self.detected() + self.fail_silent())
    }

    /// Coverage with the sentinel-only detections reclassified as misses:
    /// what the crash-only baseline would have scored on the same defect
    /// population.
    pub fn crash_only_coverage(&self) -> f64 {
        ratio(
            self.detected() - self.sentinel_only(),
            self.detected() + self.fail_silent(),
        )
    }

    /// Renders the per-class table plus the coverage summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.classes {
            out.push_str(&format!(
                "{:<5} {:<12} inj {:>3}: detected {:>3} (sentinel {:>3}, \
                 sentinel-only {:>3}), fail-silent {:>3}, benign {:>3}, \
                 unrecovered {}\n",
                c.class,
                c.driver,
                c.injections,
                c.detected,
                c.sentinel_detected,
                c.sentinel_only,
                c.fail_silent,
                c.benign,
                c.unrecovered,
            ));
        }
        out.push_str(&format!(
            "coverage {:.1}% (crash-only baseline {:.1}%); digest {}{}",
            self.coverage() * 100.0,
            self.crash_only_coverage() * 100.0,
            self.digest,
            self.trace_loss.warning(),
        ));
        out
    }
}

/// Outcome of [`run_failsilent_control`]: the no-fault arm. Anything RS
/// restarted here is by definition a false restart of a healthy driver.
#[derive(Debug, Clone, Default)]
pub struct FailsilentControl {
    /// Recoveries RS executed (must be 0).
    pub restarts: u64,
    /// Complaints RS accepted (must be 0 — healthy drivers never accrue
    /// evidence).
    pub complaints_accepted: u64,
    /// Net datagrams echoed end to end (liveness floor).
    pub echoed: u64,
    /// Bytes the block workload read (liveness floor).
    pub disk_bytes: u64,
    /// Bytes the printer driver accepted (liveness floor).
    pub printed: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

/// The fail-silent campaign's always-on workloads, one per driver class.
struct FailsilentLoad {
    udp: Rc<RefCell<UdpStatus>>,
    dd: Rc<RefCell<DdLoopStatus>>,
    lpd: Rc<RefCell<LpdLoopStatus>>,
}

impl FailsilentLoad {
    /// The monotone per-class progress odometer the campaign uses to tell
    /// "driver quietly dead" from "mutation was benign".
    fn progress(&self, class: usize) -> u64 {
        match class {
            0 => self.udp.borrow().echoed,
            1 => self.dd.borrow().bytes,
            _ => self.lpd.borrow().accepted,
        }
    }
}

/// Boots the three-class machine with one always-on workload per driver
/// class.
fn failsilent_rig(cfg: &FailsilentConfig) -> (Os, FailsilentLoad) {
    let builder = Os::builder().seed(cfg.seed).with_network(NicKind::Dp8390);
    let mut builder = stream_disk(builder, cfg.seed, "stream", 256 * 1024)
        .with_chardevs()
        .heartbeat(ms(500), 2);
    if !cfg.sentinels {
        builder = builder.without_sentinels();
    }
    let mut os = builder.boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");

    let udp = udp_traffic(&mut os, ms(5));
    let dd = Rc::new(RefCell::new(DdLoopStatus::default()));
    os.spawn_app(
        "dd-loop",
        Box::new(DdLoop::new(vfs, "stream", 16 * 1024, dd.clone())),
    );
    let lpd = Rc::new(RefCell::new(LpdLoopStatus::default()));
    let page: Vec<u8> = (0..512u32).map(|i| (i * 7 + 13) as u8).collect();
    os.spawn_app("lpd-loop", Box::new(LpdLoop::new(vfs, page, lpd.clone())));
    os.run_for(ms(200));
    (os, FailsilentLoad { udp, dd, lpd })
}

/// Runs the fail-silent campaign: round-robin §7.2 mutations over the
/// net, block and char drivers while one workload per class keeps their
/// hot paths busy, classifying every injection as detected-and-recovered,
/// fail-silent-survived, or benign. Hands back the booted [`Os`] so
/// callers can inspect `sentinel.*` / `rs.complaints.*` counters and the
/// folded recovery timeline.
pub fn run_failsilent_campaign(cfg: &FailsilentConfig) -> (FailsilentResult, Os) {
    let (mut os, load) = failsilent_rig(cfg);
    let mut classes: Vec<FailsilentClassStats> = FAILSILENT_TARGETS
        .iter()
        .map(|(class, driver)| FailsilentClassStats {
            class: class.to_string(),
            driver: driver.to_string(),
            ..FailsilentClassStats::default()
        })
        .collect();

    for _ in 0..cfg.rounds {
        for (i, (_, driver)) in FAILSILENT_TARGETS.iter().enumerate() {
            let stats = &mut classes[i];
            // Make sure the victim is actually up before mutating it.
            poll(&mut os, ms(100), 300, |os| os.is_up(driver));
            let Some(before) = os.endpoint(driver) else {
                stats.unrecovered += 1;
                continue;
            };
            let counts_before = defect_counts(&os);

            // §7.2's method, per class: "repeatedly injected 1 randomly
            // selected fault into the running driver until it crashed" —
            // here, until any detector fires (endpoint replaced) or the
            // workload freezes with no detection (fail-silent). Most
            // single mutations land in cold code and change nothing; the
            // paper needed ~36 per visible defect.
            let mut outcome = Outcome::Benign;
            let mut mutations = 0u64;
            while outcome == Outcome::Benign && mutations < 200 {
                if os.endpoint(driver) != Some(before) {
                    // A previous mutation's defect surfaced late.
                    outcome = Outcome::Detected;
                    break;
                }
                if os.inject_fault(driver).is_none() {
                    break;
                }
                mutations += 1;
                stats.injections += 1;
                os.run_for(cfg.injection_interval);
                // Watch the endpoint (any detector fired -> RS replaced
                // the incarnation) against the workload odometer.
                let p0 = load.progress(i);
                outcome = watch(
                    &mut os,
                    driver,
                    before,
                    ms(100),
                    cfg.detect_window,
                    ms(100),
                    || load.progress(i) > p0,
                );
            }

            match outcome {
                Outcome::Benign => stats.benign += 1,
                Outcome::Detected => {
                    let recovered = await_fresh(&mut os, driver, before, ms(100), 300);
                    let after = defect_counts(&os);
                    stats.detected += 1;
                    // The complaint class moved: sentinel evidence took part.
                    if after[4] > counts_before[4] {
                        stats.sentinel_detected += 1;
                        // exit, exception, killed, heartbeat — everything
                        // the crash-only baseline can see.
                        if !(0..4).any(|k| after[k] > counts_before[k]) {
                            stats.sentinel_only += 1;
                        }
                    }
                    if !recovered {
                        stats.unrecovered += 1;
                    }
                }
                Outcome::FailSilent => {
                    // Undetected by every layer: the §5.1-input-3 user
                    // notices the frozen workload and restarts by hand.
                    stats.fail_silent += 1;
                    os.service_restart(driver);
                    if !await_fresh(&mut os, driver, before, ms(100), 300) {
                        stats.unrecovered += 1;
                    }
                }
            }
            // Let the workloads re-establish before the next mutation.
            os.run_for(ms(100));
        }
    }

    // Drain, then fossilize the timeline and trace-loss into the digest.
    os.run_for(SimDuration::from_secs(1));
    let timeline = os.timeline();
    let (trace_loss, digest) = seal(&mut os, &timeline);
    let result = FailsilentResult {
        sentinels: cfg.sentinels,
        classes,
        trace_loss,
        digest,
    };
    (result, os)
}

/// Runs the no-fault control arm: the same machine and workloads, zero
/// injections, fixed virtual duration. With the sentinels armed, every
/// restart or accepted complaint it reports is a false positive.
pub fn run_failsilent_control(cfg: &FailsilentConfig, run_for: SimDuration) -> FailsilentControl {
    let (mut os, load) = failsilent_rig(cfg);
    os.run_for(run_for);
    let timeline = os.timeline();
    let (_, digest) = seal(&mut os, &timeline);
    FailsilentControl {
        restarts: os.metrics().counter("rs.recoveries"),
        complaints_accepted: os.metrics().counter("rs.complaints.accepted"),
        echoed: load.progress(0),
        disk_bytes: load.progress(1),
        printed: load.progress(2),
        digest,
    }
}

// ------------------------------------------------------------------------
// Microreboot campaign: crash-only system servers under mutation.

/// The four system servers the microreboot campaign mutates. PM is not in
/// the RS service table — its recovery is the *recursive* path where RS
/// spawns the replacement itself.
const MICROREBOOT_TARGETS: [&str; 4] = [names::VFS, names::MFS, names::INET, "pm"];

/// Parameters of the server-microreboot campaign.
#[derive(Debug, Clone)]
pub struct MicrorebootConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Injection rounds. Each round mutates every system server once.
    pub rounds: u64,
    /// How long a mutated server may sit endpoint-stable before the
    /// defect is declared *fail-silent survived*. Must exceed every
    /// detector's horizon: the kernel request-age guard (8 s) plus one
    /// RS audit period, and three missed PM liveness pings.
    pub detect_window: SimDuration,
    /// Warn when a server's externalized session state exceeds this many
    /// bytes in the DS snapshot store — crash-only restarts are only
    /// cheap while the state that must be rehydrated stays small.
    pub snapshot_cap_bytes: u64,
}

impl Default for MicrorebootConfig {
    fn default() -> Self {
        MicrorebootConfig {
            seed: 2007,
            rounds: 10,
            detect_window: SimDuration::from_secs(12),
            snapshot_cap_bytes: 16 * 1024,
        }
    }
}

impl MicrorebootConfig {
    /// CI-sized variant (seconds, not minutes).
    pub fn quick(mut self) -> Self {
        self.rounds = 3;
        self
    }
}

/// Per-server outcome counts.
#[derive(Debug, Clone, Default)]
pub struct MicrorebootServerStats {
    /// Server name ("vfs" / "mfs" / "inet" / "pm").
    pub server: String,
    /// Mutations applied to this server.
    pub injections: u64,
    /// Injected defect mix.
    pub crashes: u64,
    /// Wedge defects (server swallows events without crashing).
    pub stalls: u64,
    /// Corruption defects (server garbles its replies).
    pub garbles: u64,
    /// Defects some detector noticed: the incarnation was replaced
    /// within the detect window.
    pub detected: u64,
    /// Detected rounds whose observer job still finished byte-exact
    /// with zero application-visible errors (microreboot transparency).
    pub transparent: u64,
    /// Mutations that froze the system yet survived the whole window
    /// unnoticed; the user restarts the server by hand.
    pub fail_silent: u64,
    /// Mutations that visibly changed nothing inside the window.
    pub benign: u64,
    /// Detected or user-restarted servers that did not come back up.
    pub unrecovered: u64,
}

/// Outcome of [`run_microreboot_campaign`].
#[derive(Debug, Clone, Default)]
pub struct MicrorebootResult {
    /// One entry per server, in [`MICROREBOOT_TARGETS`] order.
    pub servers: Vec<MicrorebootServerStats>,
    /// Recursive-escalation ladder counts over the whole campaign:
    /// single-server microreboots, dependency-group reboots, storm
    /// escalations (`rs.escalations.level{1,2,3}`).
    pub escalations: [u64; 3],
    /// Final `ds.snapshot_bytes` gauge (externalized server state).
    pub snapshot_bytes: u64,
    /// Final `ckpt.store_size` gauge (records in the DS snapshot store).
    pub snapshot_records: u64,
    /// The configured snapshot cap, echoed for the report.
    pub snapshot_cap_bytes: u64,
    /// Per-phase MTTR rows folded from the causal trace:
    /// `(phase, episodes, mean)`.
    pub phase_mttr: Vec<(String, usize, SimDuration)>,
    /// Trace events lost to ring eviction.
    pub trace_loss: TraceLoss,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl MicrorebootResult {
    fn sum(&self, f: impl Fn(&MicrorebootServerStats) -> u64) -> u64 {
        self.servers.iter().map(f).sum()
    }

    /// Total mutations applied.
    pub fn injections(&self) -> u64 {
        self.sum(|s| s.injections)
    }

    /// Total detected-and-replaced defects.
    pub fn detected(&self) -> u64 {
        self.sum(|s| s.detected)
    }

    /// Total fail-silent survivors.
    pub fn fail_silent(&self) -> u64 {
        self.sum(|s| s.fail_silent)
    }

    /// Total transparent recoveries.
    pub fn transparent(&self) -> u64 {
        self.sum(|s| s.transparent)
    }

    /// Detected / (detected + fail-silent), in [0, 1].
    pub fn coverage(&self) -> f64 {
        ratio(self.detected(), self.detected() + self.fail_silent())
    }

    /// Transparent / detected, in [0, 1]: of the defects the system
    /// caught, how many the observer application never noticed.
    pub fn transparency(&self) -> f64 {
        ratio(self.transparent(), self.detected())
    }

    /// `true` when the externalized state outgrew the configured cap.
    pub fn snapshot_over_cap(&self) -> bool {
        self.snapshot_bytes > self.snapshot_cap_bytes
    }

    /// Renders the per-server table, the escalation ladder, the phase
    /// MTTR table and the coverage summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.servers {
            out.push_str(&format!(
                "{:<5} inj {:>3} (crash {:>2} stall {:>2} garble {:>2}): \
                 detected {:>3}, transparent {:>3}, fail-silent {:>2}, \
                 benign {:>2}, unrecovered {}\n",
                s.server,
                s.injections,
                s.crashes,
                s.stalls,
                s.garbles,
                s.detected,
                s.transparent,
                s.fail_silent,
                s.benign,
                s.unrecovered,
            ));
        }
        out.push_str(&format!(
            "escalations: {} microreboots, {} group reboots, {} storm\n",
            self.escalations[0], self.escalations[1], self.escalations[2],
        ));
        for (phase, episodes, mean) in &self.phase_mttr {
            out.push_str(&format!(
                "phase {phase:<12} episodes {episodes:>3}  mean {mean}\n"
            ));
        }
        out.push_str(&format!(
            "snapshot store: {} bytes in {} records (cap {})",
            self.snapshot_bytes, self.snapshot_records, self.snapshot_cap_bytes,
        ));
        if self.snapshot_over_cap() {
            out.push_str(" -- WARNING: over cap, rehydration no longer cheap");
        }
        out.push('\n');
        out.push_str(&format!(
            "coverage {:.1}%, transparency {:.1}%; digest {}{}",
            self.coverage() * 100.0,
            self.transparency() * 100.0,
            self.digest,
            self.trace_loss.warning(),
        ));
        out
    }
}

/// Outcome of [`run_microreboot_control`]: the no-fault arm. Any restart
/// or escalation here is a false positive against a healthy server.
#[derive(Debug, Clone, Default)]
pub struct MicrorebootControl {
    /// Service recoveries RS executed (must be 0).
    pub restarts: u64,
    /// Recursive PM recoveries (must be 0).
    pub pm_recoveries: u64,
    /// Complaints RS accepted (must be 0).
    pub complaints_accepted: u64,
    /// Escalation-ladder activations (must all be 0).
    pub escalations: u64,
    /// Net datagrams echoed end to end (liveness floor).
    pub echoed: u64,
    /// Bytes the pristine reader hashed (liveness floor).
    pub disk_bytes: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

struct MicrorebootRig {
    os: Os,
    udp: Rc<RefCell<UdpStatus>>,
    /// SHA-1 a pristine, fault-free read of the stream file produces.
    expected_sha1: String,
    /// MD5 a pristine, fault-free download produces.
    expected_md5: String,
    /// Monotone suffix for observer process names (determinism: names
    /// are part of the spawn order the kernel sees).
    observer_seq: u64,
}

const MICROREBOOT_FILE: u64 = 128 * 1024;
const MICROREBOOT_DOWNLOAD: u64 = 32 * 1024;

/// What a per-round observer application watches.
enum Observer {
    Disk(Rc<RefCell<DdStatus>>),
    Net(Rc<RefCell<WgetStatus>>),
}

impl Observer {
    /// Monotone progress odometer.
    fn progress(&self) -> u64 {
        match self {
            Observer::Disk(st) => st.borrow().bytes,
            Observer::Net(st) => st.borrow().bytes,
        }
    }

    fn done(&self) -> bool {
        match self {
            Observer::Disk(st) => st.borrow().done,
            Observer::Net(st) => st.borrow().done,
        }
    }

    /// Completed byte-exact with no application-visible errors.
    fn byte_exact(&self, rig: &MicrorebootRig) -> bool {
        match self {
            Observer::Disk(st) => {
                let st = st.borrow();
                st.done && st.errors == 0 && st.sha1.as_deref() == Some(rig.expected_sha1.as_str())
            }
            Observer::Net(st) => {
                let st = st.borrow();
                st.done && st.md5.as_deref() == Some(rig.expected_md5.as_str())
            }
        }
    }
}

impl MicrorebootRig {
    /// Spawns the per-round observer job: a recovery-aware reader for the
    /// file-system servers (and PM, where it is a pure liveness witness),
    /// a recovery-aware download for INET.
    fn spawn_observer(&mut self, target: &str) -> Observer {
        self.observer_seq += 1;
        let rs = self.os.endpoint("rs").expect("rs is immortal");
        let allow = ["vfs", "pm", "inet", "rs"];
        if target == names::INET {
            let inet = self.os.endpoint(names::INET).expect("inet up");
            let st = Rc::new(RefCell::new(WgetStatus::default()));
            // Content seed 0 on every round: the pristine reference digest
            // is the one byte-exact expectation for all net observers.
            let app = Wget::new(inet, MICROREBOOT_DOWNLOAD, 0, st.clone()).recovery_aware(rs);
            self.os.spawn_app_with_ipc(
                &format!("wget-{}", self.observer_seq),
                Box::new(app),
                &allow,
            );
            Observer::Net(st)
        } else {
            let vfs = self.os.endpoint(names::VFS).expect("vfs up");
            let st = Rc::new(RefCell::new(DdStatus::default()));
            let app = Dd::new(vfs, "stream", 8 * 1024, st.clone()).recovery_aware(rs);
            self.os
                .spawn_app_with_ipc(&format!("dd-{}", self.observer_seq), Box::new(app), &allow);
            Observer::Disk(st)
        }
    }
}

/// Boots the crash-only machine (checkpointing servers, sticky slots,
/// PM guard) with always-on datagram traffic, and records the byte-exact
/// expectations from one pristine run of each observer job.
fn microreboot_rig(cfg: &MicrorebootConfig) -> MicrorebootRig {
    let builder = Os::builder().seed(cfg.seed).with_network(NicKind::Dp8390);
    let mut os = stream_disk(builder, cfg.seed, "stream", MICROREBOOT_FILE)
        .with_checkpointing()
        .heartbeat(ms(500), 2)
        .boot();
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    let udp = udp_traffic(&mut os, ms(5));

    // Pristine reference jobs: their digests define "byte-exact" for
    // every later observer, and they warm the mount tables and session
    // slabs so the first checkpoint save happens before any fault.
    let dd_ref = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-ref",
        Box::new(Dd::new(vfs, "stream", 8 * 1024, dd_ref.clone())),
    );
    let wget_ref = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget-ref",
        Box::new(Wget::new(inet, MICROREBOOT_DOWNLOAD, 0, wget_ref.clone())),
    );
    poll(&mut os, ms(50), 600, |_| {
        dd_ref.borrow().done && wget_ref.borrow().done
    });
    let expected_sha1 = dd_ref.borrow().sha1.clone().expect("pristine read done");
    let expected_md5 = wget_ref
        .borrow()
        .md5
        .clone()
        .expect("pristine download done");
    MicrorebootRig {
        os,
        udp,
        expected_sha1,
        expected_md5,
        observer_seq: 0,
    }
}

/// Runs the microreboot campaign: round-robin crash/stall/garble
/// mutations over VFS, MFS, INET and PM while recovery-aware observer
/// jobs watch each one, classifying every injection as
/// detected-and-recovered (transparent or not), fail-silent-survived, or
/// benign. Hands back the booted [`Os`] for counter and timeline
/// inspection.
pub fn run_microreboot_campaign(cfg: &MicrorebootConfig) -> (MicrorebootResult, Os) {
    let mut rig = microreboot_rig(cfg);
    let mut result = MicrorebootResult {
        servers: MICROREBOOT_TARGETS
            .iter()
            .map(|server| MicrorebootServerStats {
                server: server.to_string(),
                ..MicrorebootServerStats::default()
            })
            .collect(),
        snapshot_cap_bytes: cfg.snapshot_cap_bytes,
        ..MicrorebootResult::default()
    };

    for _ in 0..cfg.rounds {
        for (i, target) in MICROREBOOT_TARGETS.iter().enumerate() {
            let stats = &mut result.servers[i];
            // Make sure the victim is actually up before mutating it.
            poll(&mut rig.os, ms(100), 300, |os| os.is_up(target));
            let Some(before) = rig.os.endpoint(target) else {
                stats.unrecovered += 1;
                continue;
            };

            // The fault is armed *before* the observer starts so the
            // observer's own first request is what consumes it: a crash
            // lands mid-job, a stall leaves the observer's open call to
            // age into the kernel request-age guard, a garble corrupts a
            // reply the observer is actually waiting for. (PM's trigger
            // is the RS liveness ping instead.)
            let fault = rig.os.inject_server_fault(target);
            stats.injections += 1;
            match fault {
                ServerFault::Crash => stats.crashes += 1,
                ServerFault::Stall => stats.stalls += 1,
                ServerFault::Garble => stats.garbles += 1,
                ServerFault::Benign => {}
            }
            let observer = rig.spawn_observer(target);

            // PM is not on the observer's path, so its completion says
            // nothing about PM's health; only the endpoint and the window
            // classify a PM round.
            let outcome = watch(
                &mut rig.os,
                target,
                before,
                ms(50),
                cfg.detect_window,
                ms(200),
                || *target != "pm" && observer.done(),
            );
            match outcome {
                Outcome::Benign => stats.benign += 1,
                Outcome::Detected => {
                    stats.detected += 1;
                    if !await_fresh(&mut rig.os, target, before, ms(100), 300) {
                        stats.unrecovered += 1;
                    }
                    // Transparency: the observer must finish byte-exact
                    // across the microreboot. Progress-based cutoff so a
                    // wedged job does not burn the whole budget.
                    let mut idle = 0;
                    while !observer.done() && idle < 100 {
                        let p0 = observer.progress();
                        rig.os.run_for(ms(100));
                        idle = if observer.progress() > p0 {
                            0
                        } else {
                            idle + 1
                        };
                    }
                    if observer.byte_exact(&rig) {
                        stats.transparent += 1;
                    }
                }
                Outcome::FailSilent => {
                    stats.fail_silent += 1;
                    // No user-facing restart handle exists for PM — that
                    // is exactly why RS must guard it.
                    if *target == "pm" {
                        stats.unrecovered += 1;
                    } else {
                        rig.os.service_restart(target);
                        if !await_fresh(&mut rig.os, target, before, ms(100), 300) {
                            stats.unrecovered += 1;
                        }
                    }
                }
            }
            // Let the machine settle before the next mutation.
            rig.os.run_for(ms(100));
        }
    }

    // Drain, then fossilize the timeline and trace-loss into the digest.
    rig.os.run_for(SimDuration::from_secs(1));
    let timeline = rig.os.timeline();
    (result.trace_loss, result.digest) = seal(&mut rig.os, &timeline);
    let m = rig.os.metrics();
    for (k, slot) in ["level1", "level2", "level3"].iter().zip(0..) {
        result.escalations[slot] = m.counter(&format!("rs.escalations.{k}"));
    }
    result.snapshot_bytes = m.counter("ds.snapshot_bytes");
    result.snapshot_records = m.counter("ckpt.store_size");
    for phase in ["detect", "repair", "reintegrate", "replay", "total"] {
        if let Some(h) = m.histogram(&format!("recovery.phase.{phase}")) {
            if let Some(mean) = h.mean_duration() {
                result.phase_mttr.push((phase.to_string(), h.count(), mean));
            }
        }
    }
    (result, rig.os)
}

/// Runs the no-fault control arm: the same crash-only machine and
/// workloads, zero injections, fixed virtual duration. Every restart,
/// accepted complaint or escalation it reports is a false positive.
pub fn run_microreboot_control(
    cfg: &MicrorebootConfig,
    run_for: SimDuration,
) -> MicrorebootControl {
    let mut rig = microreboot_rig(cfg);
    // One fault-free observer per server keeps the exact campaign
    // traffic pattern on the wire while nothing is injected.
    let observers: Vec<Observer> = MICROREBOOT_TARGETS
        .iter()
        .map(|target| rig.spawn_observer(target))
        .collect();
    rig.os.run_for(run_for);
    let disk_bytes = observers.iter().map(Observer::progress).sum();
    let echoed = rig.udp.borrow().echoed;
    let timeline = rig.os.timeline();
    let (_, digest) = seal(&mut rig.os, &timeline);
    let m = rig.os.metrics();
    MicrorebootControl {
        restarts: m.counter("rs.recoveries"),
        pm_recoveries: m.counter("rs.pm_recoveries"),
        complaints_accepted: m.counter("rs.complaints.accepted"),
        escalations: m.counter("rs.escalations.level1")
            + m.counter("rs.escalations.level2")
            + m.counter("rs.escalations.level3"),
        echoed,
        disk_bytes,
        digest,
    }
}

// ------------------------------------------------------------------------
// SLO campaign: phase-attributed latency under open-loop load and chaos.

/// Parameters of the SLO campaign: an open-loop INET client fleet plus a
/// multi-client VFS job mix run against a machine whose network and block
/// drivers are repeatedly killed (optionally under fabric chaos), with
/// every completed request attributed to steady state or a recovery
/// phase.
#[derive(Debug, Clone)]
pub struct SloCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// INET fleet tuning (session count, interarrival, sizes, linger).
    pub inet: InetLoadConfig,
    /// VFS job-mix tuning (client count, interarrival, chunk sizes).
    pub vfs: VfsLoadConfig,
    /// Chaos intensity for the `driver_traffic` preset; 0 disables the
    /// chaos layer entirely (pure kill campaign).
    pub intensity: f64,
    /// Kills per target driver (network and block, alternating).
    pub kills_per_target: u32,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// Size of the on-disk file the VFS mix reads.
    pub file_size: u64,
}

impl Default for SloCampaignConfig {
    fn default() -> Self {
        SloCampaignConfig {
            seed: 2007,
            inet: InetLoadConfig::default(),
            vfs: VfsLoadConfig::default(),
            intensity: 0.3,
            kills_per_target: 2,
            kill_interval: SimDuration::from_secs(2),
            file_size: 256 * 1024,
        }
    }
}

/// Per-phase SLO row: latency percentiles, goodput and head-of-line
/// depth for one recovery phase (or steady state).
#[derive(Debug, Clone)]
pub struct SloPhaseRow {
    /// Phase name (`phoenix_simcore::obs::phase`).
    pub phase: String,
    /// Requests whose completion fell in this phase.
    pub requests: u64,
    /// Failed (or shed) requests attributed to this phase.
    pub failed: u64,
    /// Response payload bytes delivered in this phase.
    pub goodput_bytes: u64,
    /// Total virtual time spent in this phase across all episodes.
    pub phase_us: u64,
    /// Peak head-of-line depth (requests in flight) seen in this phase.
    pub hol_depth: u64,
    /// Successful-request latency samples behind the percentiles.
    pub samples: u64,
    /// Latency percentiles over successful requests, microseconds.
    pub p50_us: u64,
    /// See [`SloPhaseRow::p50_us`].
    pub p99_us: u64,
    /// See [`SloPhaseRow::p50_us`].
    pub p999_us: u64,
}

/// Aggregate SLO-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct SloCampaignResult {
    /// Chaos intensity the campaign ran at.
    pub intensity: f64,
    /// INET session slots the fleet multiplexed.
    pub sessions: u32,
    /// Every kill in order.
    pub kills: Vec<ChaosKillRecord>,
    /// Requests admitted (INET + VFS).
    pub started: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Arrivals shed at a full slot backlog.
    pub shed: u64,
    /// Peak concurrently-open INET connections.
    pub peak_live: u64,
    /// The INET fleet drained every scheduled arrival.
    pub inet_drained: bool,
    /// The VFS mix drained every scheduled arrival.
    pub vfs_drained: bool,
    /// Recovery episodes the trace fold could not fully account for.
    pub unaccounted_episodes: u64,
    /// One row per phase that saw requests or wall time, in
    /// detection → repair → reintegration → replay → steady order.
    pub phases: Vec<SloPhaseRow>,
    /// Trace events lost to ring eviction.
    pub trace_loss: TraceLoss,
    /// MD5 over the canonical metrics dump (determinism handle).
    pub digest: String,
}

impl SloCampaignResult {
    /// Fraction of kills that recovered, in [0, 1].
    pub fn recovery_rate(&self) -> f64 {
        recovery_rate(&self.kills)
    }

    /// The row for a phase, if it saw requests or wall time.
    pub fn phase(&self, name: &str) -> Option<&SloPhaseRow> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Renders the summary: one header line plus one line per phase.
    pub fn render(&self) -> String {
        let mut out = format!(
            "slo under chaos {:.2}: {} sessions, {} kills -> recovery {:.0}%; \
             {} started / {} completed / {} failed / {} shed, peak live {}; \
             digest {}{}",
            self.intensity,
            self.sessions,
            self.kills.len(),
            self.recovery_rate() * 100.0,
            self.started,
            self.completed,
            self.failed,
            self.shed,
            self.peak_live,
            self.digest,
            self.trace_loss.warning(),
        );
        for p in &self.phases {
            out.push_str(&format!(
                "\n  {:<12} {:>8} req {:>6} failed  p50 {:>8}us p99 {:>8}us \
                 p999 {:>8}us  goodput {:>10} B  hol {:>4}  span {}",
                p.phase,
                p.requests,
                p.failed,
                p.p50_us,
                p.p99_us,
                p.p999_us,
                p.goodput_bytes,
                p.hol_depth,
                SimDuration::from_micros(p.phase_us),
            ));
        }
        out
    }
}

/// Runs the SLO campaign: boots the RTL8139 network stack and a SATA disk
/// carrying the job-mix file, spawns the open-loop INET fleet and the VFS
/// reader mix, then kills the network and block drivers in alternation
/// (under fabric chaos when `intensity > 0`) while the load keeps
/// arriving. After the load drains, the recovery timeline is folded and
/// every request is attributed to steady state or the phase its
/// completion fell into.
///
/// Checkpointing is deliberately left off: the campaign kills drivers
/// only (INET and VFS survive and keep their state), and per-dispatch
/// INET snapshots would be quadratic in the 10⁴-connection slab.
pub fn run_slo_campaign(cfg: &SloCampaignConfig) -> (SloCampaignResult, Os) {
    let eth = names::ETH_RTL8139;
    let blk = names::BLK_SATA;
    let builder = Os::builder().seed(cfg.seed).with_network(NicKind::Rtl8139);
    let mut builder =
        stream_disk(builder, cfg.seed, &cfg.vfs.path, cfg.file_size).heartbeat(ms(500), 3);
    if cfg.intensity > 0.0 {
        builder = builder.chaos(ChaosPlan::driver_traffic(cfg.intensity));
    }
    let mut os = builder.boot();

    let inet_status = Rc::new(RefCell::new(LoadStatus::default()));
    let vfs_status = Rc::new(RefCell::new(LoadStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    os.spawn_app(
        "slo-inet-fleet",
        Box::new(InetLoadGen::new(
            inet,
            cfg.inet.clone(),
            inet_status.clone(),
        )),
    );
    os.spawn_app(
        "slo-vfs-mix",
        Box::new(VfsJobMix::new(vfs, cfg.vfs.clone(), vfs_status.clone())),
    );

    // Let the fleet ramp to steady state before the first kill, so the
    // steady-state row has samples to compare the recovery rows against.
    os.run_for(cfg.inet.ramp);

    let kills = (0..cfg.kills_per_target)
        .flat_map(|_| [eth, blk])
        .map(|target| kill_and_await(&mut os, target, 3000, cfg.kill_interval))
        .collect();

    // Drain: run until both generators report every scheduled arrival
    // admitted, shed or completed (bounded — a wedged run still returns,
    // with `*_drained` false in the result).
    poll(&mut os, ms(100), 600, |_| {
        inet_status.borrow().drained && vfs_status.borrow().drained
    });
    os.run_for(SimDuration::from_secs(1));

    // Fold the recovery timeline, join the request log against it, and
    // fossilize everything (including trace loss) into the digest-covered
    // registry. The INET records come first, then VFS — a fixed order, so
    // two same-seed runs fold byte-identically.
    let timeline = os.timeline();
    let mut requests: Vec<phoenix_simcore::obs::RequestRecord> = Vec::new();
    requests.extend(inet_status.borrow().records.iter().copied());
    requests.extend(vfs_status.borrow().records.iter().copied());
    timeline.record_requests_into(&requests, os.metrics_mut());
    let (trace_loss, digest) = seal(&mut os, &timeline);

    let (ist, vst) = (inet_status.borrow(), vfs_status.borrow());
    let mut result = SloCampaignResult {
        intensity: cfg.intensity,
        sessions: cfg.inet.sessions,
        kills,
        started: ist.started + vst.started,
        completed: ist.completed + vst.completed,
        failed: ist.failed + vst.failed,
        shed: ist.shed + vst.shed,
        peak_live: ist.peak_live,
        inet_drained: ist.drained,
        vfs_drained: vst.drained,
        unaccounted_episodes: timeline.unaccounted().len() as u64,
        phases: Vec::new(),
        trace_loss,
        digest,
    };
    // Phase rows in recovery-first order; steady last as the baseline.
    let order = [
        phase::DETECT,
        phase::REPAIR,
        phase::REINTEGRATE,
        phase::REPLAY,
        phase::STEADY,
    ];
    for ph in order {
        let m = os.metrics();
        let requests = m.counter(&format!("slo.requests.{ph}"));
        let phase_us = m.counter(&format!("slo.phase_us.{ph}"));
        if requests == 0 && phase_us == 0 {
            continue;
        }
        let (samples, p50, p99, p999) =
            m.log_histogram(&format!("slo.latency.{ph}"))
                .map_or((0, 0, 0, 0), |h| {
                    (
                        h.count(),
                        h.quantile(0.5).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                        h.quantile(0.999).unwrap_or(0),
                    )
                });
        result.phases.push(SloPhaseRow {
            phase: ph.to_string(),
            requests,
            failed: m.counter(&format!("slo.failed.{ph}")),
            goodput_bytes: m.counter(&format!("slo.goodput_bytes.{ph}")),
            phase_us,
            hol_depth: m.counter(&format!("slo.hol_depth.{ph}")),
            samples,
            p50_us: p50,
            p99_us: p99,
            p999_us: p999,
        });
    }
    (result, os)
}

// ------------------------------------------------------------------------
// Standby campaign: hot-standby failover vs cold restart+replay.

/// The canonical self-tuning recovery policy: one clamped bang-bang
/// controller per adaptable [`phoenix_servers::policy::PolicyParams`]
/// field, driven by the failure rate, the complaint rate and the p95 of
/// recent repair times. Every clamp band contains the baseline value, so
/// an idle system parks each parameter at a band edge and a failure burst
/// walks it deterministically toward the other. Campaigns assert the
/// `rs.adapt.trace.*` trajectory histograms never leave these bands.
pub const STANDBY_ADAPT_POLICY: &str = "\
adapt heartbeat_period when failures >= 1 halve else double clamp 250ms 2s
adapt backoff_base when failures >= 1 halve else double clamp 100ms 1s
adapt backoff_cap when failures >= 2 add 1 else sub 1 clamp 3 8
adapt restart_budget when failures >= 1 add 5 else sub 1 clamp 5 40
adapt budget_window when mttr_p95 > 5 halve else double clamp 10s 60s
adapt quorum_complaints when complaints >= 2 add 1 else sub 1 clamp 2 6
";

/// Parses [`STANDBY_ADAPT_POLICY`].
pub fn standby_adapt_script() -> PolicyScript {
    // analyze:allow(unwrap-recovery): parses a const known-good script;
    // covered by the policy unit tests, cannot fail at runtime.
    PolicyScript::parse(STANDBY_ADAPT_POLICY).expect("canonical adapt policy parses")
}

/// The live `rs.adapt.*` gauge values, in [`AdaptParam::ALL`] order.
/// They live in the counter registry, so every campaign digest already
/// covers them; this helper surfaces them for the human-readable line.
pub fn adapt_gauges(os: &Os) -> Vec<(String, u64)> {
    AdaptParam::ALL
        .iter()
        .map(|p| (p.gauge().to_string(), os.metrics().counter(p.gauge())))
        .collect()
}

/// Renders the adapted-parameter line printed next to campaign digests.
pub fn render_adapt_gauges(os: &Os) -> String {
    format!("adapt: {}", render_gauges(&adapt_gauges(os)))
}

/// `name=value` pairs with the `rs.adapt.` prefix stripped.
fn render_gauges(gauges: &[(String, u64)]) -> String {
    let parts: Vec<String> = gauges
        .iter()
        .map(|(k, v)| format!("{}={v}", k.trim_start_matches("rs.adapt.")))
        .collect();
    parts.join(" ")
}

/// Parameters of the standby campaign: repeated deterministic defects
/// (wedge loops and checksum garbles, alternating) against the printer
/// and audio drivers while checkpointed workloads stream through them,
/// with hot-standby failover and the adapt controllers on or off.
#[derive(Debug, Clone)]
pub struct StandbyCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Faults to inject, alternating printer / audio, and within each
    /// driver alternating wedge (heartbeat defect) / garble (complaint
    /// defect).
    pub faults: u64,
    /// Virtual settle time after each recovery.
    pub fault_interval: SimDuration,
    /// `true` = warm spares tail the WAL and are promoted at detection
    /// time; `false` = the cold restart+replay baseline.
    pub hot_standby: bool,
    /// Install [`STANDBY_ADAPT_POLICY`] on RS.
    pub adapt: bool,
}

impl Default for StandbyCampaignConfig {
    fn default() -> Self {
        StandbyCampaignConfig {
            seed: 2007,
            faults: 100,
            fault_interval: SimDuration::from_millis(400),
            hot_standby: true,
            adapt: true,
        }
    }
}

/// Per-driver-class outcome of the standby campaign.
#[derive(Debug, Clone, Default)]
pub struct StandbyClassStats {
    /// Driver service name.
    pub driver: String,
    /// Faults injected into this driver.
    pub faults: u64,
    /// Faults followed by a completed recovery inside the guard.
    pub recovered: u64,
    /// Faults whose recovery never completed.
    pub unrecovered: u64,
    /// Repair-phase episodes folded from the trace for this driver.
    pub repair_episodes: usize,
    /// Mean repair phase (noticed -> alive), microseconds.
    pub repair_mean_us: u64,
    /// Worst repair phase, microseconds.
    pub repair_max_us: u64,
}

/// Aggregate standby-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct StandbyCampaignResult {
    /// Whether warm spares were armed.
    pub hot_standby: bool,
    /// Whether the adapt controllers ran.
    pub adapt: bool,
    /// Faults injected.
    pub faults: u64,
    /// Recoveries RS completed (`rs.recoveries`).
    pub recoveries: u64,
    /// Spare promotions (`rs.standby.promotions`).
    pub promotions: u64,
    /// Warm spares spawned (`rs.standby.spares_started`).
    pub spares_started: u64,
    /// Checkpoint tail polls the spares issued (`ckpt.tail_polls`).
    pub tail_polls: u64,
    /// Tail replies that advanced a spare's cursor (`ckpt.tail_adopted`).
    pub tail_adopted: u64,
    /// One entry per driver class, printer then audio.
    pub classes: Vec<StandbyClassStats>,
    /// Bytes the printer committed to paper (device oracle).
    pub printed_bytes: u64,
    /// Bytes the print job contained.
    pub expected_printed: u64,
    /// The printed stream equals the job byte-for-byte.
    pub printer_byte_exact: bool,
    /// Bytes the DAC played (device oracle).
    pub samples_played: u64,
    /// Bytes the audio stream contained.
    pub expected_samples: u64,
    /// Samples played twice (§6.3: audio recovery is not transparent —
    /// a promoted spare's tailed watermark may lag the primary by up to
    /// one tail period, so the replayed suffix can duplicate a block).
    pub audio_dup_bytes: u64,
    /// Errors that surfaced to the applications (must be 0).
    pub app_visible_errors: u64,
    /// Log replays the checkpointed apps performed.
    pub replays: u64,
    /// Watermark jumps (lost/stale snapshot, caller log trusted).
    pub watermark_jumps: u64,
    /// Both workloads ran to completion.
    pub workloads_done: bool,
    /// Controller steps that changed a parameter (`rs.adapt.updates`).
    pub adapt_updates: u64,
    /// Final adapted values, in [`AdaptParam::ALL`] order.
    pub adapt_gauges: Vec<(String, u64)>,
    /// Per-parameter trajectory range `(param, min, max)` observed by the
    /// audit-sweep trace histograms — the whole range must sit inside the
    /// rule's clamp band.
    pub adapt_trace: Vec<(String, u64, u64)>,
    /// Clamp-band violations found in the `rs.adapt.trace.*`
    /// trajectories (must be empty).
    pub adapt_out_of_band: Vec<String>,
    /// Trace events lost to ring eviction.
    pub trace_loss: TraceLoss,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl StandbyCampaignResult {
    /// The stats row for a driver class.
    pub fn class(&self, driver: &str) -> Option<&StandbyClassStats> {
        self.classes.iter().find(|c| c.driver == driver)
    }

    /// Renders the summary: mode line, per-class repair rows, workload
    /// integrity, and the adapted-parameter line next to the digest.
    pub fn render(&self) -> String {
        let mut out = format!(
            "standby={} adapt={}: {} faults -> {} recoveries \
             ({} promotions, {} spares, {} tail polls / {} adopted)\n",
            self.hot_standby,
            self.adapt,
            self.faults,
            self.recoveries,
            self.promotions,
            self.spares_started,
            self.tail_polls,
            self.tail_adopted,
        );
        for c in &self.classes {
            out.push_str(&format!(
                "{:<12} faults {:>3} recovered {:>3} unrecovered {}  \
                 repair mean {} max {} over {} episodes\n",
                c.driver,
                c.faults,
                c.recovered,
                c.unrecovered,
                SimDuration::from_micros(c.repair_mean_us),
                SimDuration::from_micros(c.repair_max_us),
                c.repair_episodes,
            ));
        }
        out.push_str(&format!(
            "printer {}/{} bytes (byte-exact: {}), audio {}/{} bytes \
             ({} duplicated), app errors {}, replays {}, watermark jumps {}\n",
            self.printed_bytes,
            self.expected_printed,
            self.printer_byte_exact,
            self.samples_played,
            self.expected_samples,
            self.audio_dup_bytes,
            self.app_visible_errors,
            self.replays,
            self.watermark_jumps,
        ));
        out.push_str(&format!(
            "adapt updates {}, {}; digest {}{}",
            self.adapt_updates,
            render_gauges(&self.adapt_gauges),
            self.digest,
            self.trace_loss.warning(),
        ));
        if !self.adapt_trace.is_empty() {
            let ranges: Vec<String> = self
                .adapt_trace
                .iter()
                .map(|(p, lo, hi)| format!("{p}={lo}..{hi}"))
                .collect();
            out.push_str(&format!("\nadapt trajectory: {}", ranges.join(" ")));
        }
        for v in &self.adapt_out_of_band {
            out.push_str(&format!("\nWARNING: {v}"));
        }
        out
    }
}

/// Outcome of [`run_standby_control`]: the no-fault arm with hot standby
/// armed. Any promotion or recovery here is a false failover of a
/// healthy driver.
#[derive(Debug, Clone, Default)]
pub struct StandbyControl {
    /// Spare promotions (must be 0).
    pub promotions: u64,
    /// Recoveries RS executed (must be 0).
    pub recoveries: u64,
    /// Complaints RS accepted (must be 0).
    pub complaints_accepted: u64,
    /// Warm spares spawned (liveness floor: both classes covered).
    pub spares_started: u64,
    /// Tail polls issued (liveness floor: the tail loop actually runs).
    pub tail_polls: u64,
    /// Bytes the printer workload got acknowledged (liveness floor).
    pub printed_acked: u64,
    /// Bytes the audio workload got acknowledged (liveness floor).
    pub audio_acked: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

/// Boots the char-device machine (checkpointing on, warm spares and the
/// adapt controllers per `cfg`) with the checkpointed print and audio
/// workloads sized to stay in flight across the whole fault schedule.
fn standby_rig(cfg: &StandbyCampaignConfig) -> (Os, CharStreams) {
    let mut builder = Os::builder().seed(cfg.seed).heartbeat(ms(500), 3);
    builder = if cfg.hot_standby {
        builder.with_hot_standby()
    } else {
        builder.with_checkpointing()
    };
    if cfg.adapt {
        builder = builder.adapt_policy(standby_adapt_script());
    }
    let mut os = builder.boot();

    // The drivers deduplicate replayed WAL writes against an absolute
    // stream watermark, so each class runs ONE long job sized to outlast
    // the whole schedule: a wedge is detected by heartbeat alone, but a
    // garbled checksum only trips the sentinels while requests flow.
    // Budget ~8 s of stream per fault (worst-case wedge detection is
    // 3 misses at the 2 s heartbeat-period clamp ceiling, plus backoff
    // and pacing) — the printer eats 32 KB/s, the DAC 176.4 KB/s.
    let secs = cfg.faults * 8 + 20;
    let job = ckpt_print_job(cfg.seed, (secs * 32 * 1024) as usize);
    let streams = CharStreams::spawn(&mut os, job, secs * 40, true);
    // Let the workloads open their devices and the spares start tailing.
    os.run_for(ms(300));
    (os, streams)
}

/// Fills the result fields shared by the campaign and its render: folds
/// the timeline (per-class repair phases), snapshots the standby and
/// adapt counters, audits the `rs.adapt.trace.*` trajectories against
/// the declared clamp bands, and computes the digest.
fn standby_fossilize(os: &mut Os, cfg: &StandbyCampaignConfig) -> StandbyCampaignResult {
    let timeline = os.timeline();
    let (trace_loss, digest) = seal(os, &timeline);

    let mut classes = Vec::new();
    for driver in STREAM_DRIVERS {
        let repairs: Vec<u64> = timeline
            .episodes
            .iter()
            .filter(|e| e.service == driver)
            .filter_map(|e| e.repair().map(|d| d.as_micros()))
            .collect();
        let mean = if repairs.is_empty() {
            0
        } else {
            repairs.iter().sum::<u64>() / repairs.len() as u64
        };
        classes.push(StandbyClassStats {
            driver: driver.to_string(),
            repair_episodes: repairs.len(),
            repair_mean_us: mean,
            repair_max_us: repairs.iter().copied().max().unwrap_or(0),
            ..StandbyClassStats::default()
        });
    }

    // Clamp-band audit: the per-parameter trajectory histograms must
    // never leave the band their rule declared.
    let mut out_of_band = Vec::new();
    let mut adapt_trace = Vec::new();
    if cfg.adapt {
        for rule in standby_adapt_script().adapt_rules() {
            let (lo, hi) = rule.clamp_band();
            let name = format!("rs.adapt.trace.{}", rule.param.name());
            if let Some(h) = os.metrics().histogram(&name) {
                let min = h.min().unwrap_or(lo as f64);
                let max = h.max().unwrap_or(hi as f64);
                adapt_trace.push((rule.param.name().to_string(), min as u64, max as u64));
                if min < lo as f64 || max > hi as f64 {
                    out_of_band.push(format!(
                        "{name} left clamp band [{lo}, {hi}]: saw [{min}, {max}]"
                    ));
                }
            }
        }
    }

    let m = os.metrics();
    StandbyCampaignResult {
        hot_standby: cfg.hot_standby,
        adapt: cfg.adapt,
        recoveries: m.counter("rs.recoveries"),
        promotions: m.counter("rs.standby.promotions"),
        spares_started: m.counter("rs.standby.spares_started"),
        tail_polls: m.counter("ckpt.tail_polls"),
        tail_adopted: m.counter("ckpt.tail_adopted"),
        classes,
        watermark_jumps: m.counter("ckpt.watermark_jumps"),
        adapt_updates: m.counter("rs.adapt.updates"),
        adapt_gauges: adapt_gauges(os),
        adapt_trace,
        adapt_out_of_band: out_of_band,
        trace_loss,
        digest,
        ..StandbyCampaignResult::default()
    }
}

/// Runs the standby campaign: boots the char-device machine with warm
/// spares on or off, streams the checkpointed print job and audio stream
/// through the drivers, and injects deterministic defects — wedge loops
/// (heartbeat class) alternating with checksum garbles (complaint class)
/// — into the printer and audio drivers in turn. Each fault waits for
/// the recovery counter to move before the next, so the repair-phase
/// histograms compare promotion against cold restart+replay on the same
/// defect schedule. Hands back the booted [`Os`] for inspection.
pub fn run_standby_campaign(cfg: &StandbyCampaignConfig) -> (StandbyCampaignResult, Os) {
    let (mut os, streams) = standby_rig(cfg);
    let mut class_faults = [0u64; 2];
    let mut class_recovered = [0u64; 2];

    for i in 0..cfg.faults {
        let class = (i % 2) as usize;
        let target = STREAM_DRIVERS[class];
        // Safety valve: the stream is sized to outlast the schedule, but
        // a wedged driver with no traffic cannot trip the complaint
        // sentinels, so never inject into a dead class.
        if streams.class(class).1 {
            continue;
        }
        // Wait until the (possibly just-recovered) driver is actually
        // serving again: the class odometer must move.
        let p0 = streams.class(class).0;
        poll(&mut os, ms(10), 1200, |_| {
            let (acked, done) = streams.class(class);
            acked != p0 || done
        });
        if streams.class(class).1 {
            continue;
        }
        // Deterministic defect: wedge -> heartbeat miss, garble ->
        // complaint quorum. Both end in RS replacing the incarnation.
        let wedge = (i / 2) % 2 == 0;
        let injected = if wedge {
            os.wedge_driver_in_loop(target)
        } else {
            os.garble_driver_checksum(target)
        };
        if !injected {
            os.run_for(ms(100));
            continue;
        }
        class_faults[class] += 1;
        let rec_before = os.metrics().counter("rs.recoveries");
        if poll(&mut os, ms(10), 2000, |os| {
            os.metrics().counter("rs.recoveries") > rec_before
        }) {
            class_recovered[class] += 1;
        }
        os.run_for(cfg.fault_interval);
    }

    // Drain: the streams are sized to outlast the schedule, so let both
    // run to completion and the devices catch up. The bound (2x budget in
    // 50 ms steps) is sized for the leftover stream, not wall-clock
    // comfort — the sim is fast.
    let max_steps = (cfg.faults + 4) * 8 * 20 * 2;
    poll(&mut os, ms(50), max_steps, |os| {
        streams.played_out(os) && streams.printed_out(os)
    });

    let mut result = standby_fossilize(&mut os, cfg);
    result.faults = class_faults.iter().sum();
    for (i, c) in result.classes.iter_mut().enumerate() {
        c.faults = class_faults[i];
        c.recovered = class_recovered[i];
        c.unrecovered = class_faults[i] - class_recovered[i];
    }
    let v = streams.judge(&mut os);
    result.expected_printed = streams.job.len() as u64;
    result.expected_samples = streams.expected_samples();
    result.printed_bytes = v.printed_bytes;
    result.printer_byte_exact = v.printer_byte_exact;
    result.samples_played = v.samples_played;
    result.audio_dup_bytes = v.samples_played.saturating_sub(result.expected_samples);
    result.app_visible_errors = v.app_visible_errors;
    result.replays = v.replays;
    result.workloads_done = v.workloads_done;
    (result, os)
}

/// Runs the no-fault control arm: hot standby armed, the same workloads,
/// zero injections, fixed virtual duration. Every promotion, recovery or
/// accepted complaint it reports is a false failover.
pub fn run_standby_control(cfg: &StandbyCampaignConfig, run_for: SimDuration) -> StandbyControl {
    let (mut os, streams) = standby_rig(cfg);
    os.run_for(run_for);
    let result = standby_fossilize(&mut os, cfg);
    StandbyControl {
        promotions: result.promotions,
        recoveries: result.recoveries,
        complaints_accepted: os.metrics().counter("rs.complaints.accepted"),
        spares_started: result.spares_started,
        tail_polls: result.tail_polls,
        printed_acked: streams.class(0).0,
        audio_acked: streams.class(1).0,
        digest: result.digest,
    }
}
