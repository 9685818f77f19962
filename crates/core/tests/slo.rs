//! SLO-attribution integration tests: the open-loop load generators plus
//! the recovery-timeline join must attribute every request to the right
//! phase — in-episode completions land in that episode's phase rows,
//! steady-state traffic is never misattributed to a recovery phase when
//! nothing failed, and the whole fold is a deterministic function of the
//! seed.

use phoenix::campaign::{run_slo_campaign, SloCampaignConfig};
use phoenix::loadgen::{InetLoadConfig, VfsLoadConfig};
use phoenix_simcore::obs::phase;
use phoenix_simcore::time::SimDuration;

/// A small fleet that still produces hundreds of requests: fast enough
/// for a test, busy enough that recovery windows contain completions.
fn small_cfg() -> SloCampaignConfig {
    SloCampaignConfig {
        seed: 1907,
        inet: InetLoadConfig {
            sessions: 300,
            interarrival: SimDuration::from_millis(400),
            ramp: SimDuration::from_millis(400),
            linger: SimDuration::from_millis(300),
            backlog_cap: 4,
            horizon: SimDuration::from_secs(5),
            ..InetLoadConfig::default()
        },
        vfs: VfsLoadConfig {
            clients: 8,
            interarrival: SimDuration::from_millis(50),
            horizon: SimDuration::from_secs(5),
            ..VfsLoadConfig::default()
        },
        intensity: 0.2,
        kills_per_target: 1,
        kill_interval: SimDuration::from_millis(500),
        file_size: 64 * 1024,
    }
}

#[test]
fn in_episode_requests_attribute_to_recovery_phases() {
    let (result, _os) = run_slo_campaign(&small_cfg());
    assert_eq!(result.kills.len(), 2, "one eth kill, one blk kill");
    assert!(
        result.kills.iter().all(|k| k.recovered),
        "all kills must recover: {:?}",
        result.kills
    );
    assert!(result.inet_drained, "inet fleet must drain");
    assert!(result.vfs_drained, "vfs mix must drain");
    assert_eq!(result.unaccounted_episodes, 0, "every episode folds");

    // Steady state carries the bulk of the traffic.
    let steady = result.phase(phase::STEADY).expect("steady row");
    assert!(
        steady.requests > 200,
        "steady requests: {}",
        steady.requests
    );
    assert!(steady.samples > 0 && steady.p50_us > 0);

    // The kills happened mid-load, so recovery phases must have wall
    // time, and at least one of them must have absorbed completions.
    let recovery_req: u64 = [phase::DETECT, phase::REPAIR, phase::REINTEGRATE]
        .iter()
        .filter_map(|ph| result.phase(ph))
        .map(|p| p.requests)
        .sum();
    let recovery_us: u64 = [phase::DETECT, phase::REPAIR, phase::REINTEGRATE]
        .iter()
        .filter_map(|ph| result.phase(ph))
        .map(|p| p.phase_us)
        .sum();
    assert!(recovery_us > 0, "recovery phases must have wall time");
    assert!(
        recovery_req > 0,
        "requests completing mid-recovery must attribute to its phases"
    );

    // Consistency: the per-phase rows partition the request log.
    let by_phase: u64 = result.phases.iter().map(|p| p.requests).sum();
    assert_eq!(
        by_phase,
        result.completed + result.failed + result.shed,
        "every record lands in exactly one phase row"
    );
}

#[test]
fn steady_state_never_misattributed_without_failures() {
    // No kills, no chaos: every single request must fold into the steady
    // row — any recovery-phase row with requests would be misattribution.
    let cfg = SloCampaignConfig {
        intensity: 0.0,
        kills_per_target: 0,
        ..small_cfg()
    };
    let (result, _os) = run_slo_campaign(&cfg);
    assert!(result.kills.is_empty());
    assert!(result.inet_drained && result.vfs_drained);
    let steady = result.phase(phase::STEADY).expect("steady row");
    assert_eq!(
        steady.requests,
        result.completed + result.failed + result.shed,
        "all requests are steady-state"
    );
    for ph in [
        phase::DETECT,
        phase::REPAIR,
        phase::REINTEGRATE,
        phase::REPLAY,
    ] {
        assert!(
            result.phase(ph).is_none(),
            "phase {ph} must not appear in a failure-free run"
        );
    }
    assert_eq!(result.failed, 0, "failure-free run");
    assert_eq!(result.shed, 0, "no shedding without outages");
}

#[test]
fn slo_campaign_is_deterministic() {
    let a = run_slo_campaign(&small_cfg()).0;
    let b = run_slo_campaign(&small_cfg()).0;
    assert_eq!(a.digest, b.digest, "same seed, same digest");
    assert_eq!(a.digest, "293cebdccd95efa185074870c1e2f8fa");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.peak_live, b.peak_live);
    let rows = |r: &phoenix::campaign::SloCampaignResult| -> Vec<(String, u64, u64, u64)> {
        r.phases
            .iter()
            .map(|p| (p.phase.clone(), p.requests, p.p99_us, p.goodput_bytes))
            .collect()
    };
    assert_eq!(rows(&a), rows(&b), "phase rows are seed-determined");
}
