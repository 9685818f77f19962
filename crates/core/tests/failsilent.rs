//! Fail-silent campaign integration tests: determinism of the campaign
//! digest, a clean no-fault control run, and the end-to-end sentinel
//! path (garbled checksum -> complaint quorum -> restart) with and
//! without the detection machinery armed.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{LpdLoop, LpdLoopStatus};
use phoenix::campaign::{run_failsilent_campaign, run_failsilent_control, FailsilentConfig};
use phoenix::os::{names, Os};
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn same_seed_campaigns_are_byte_identical() {
    let cfg = FailsilentConfig {
        rounds: 1,
        ..FailsilentConfig::default()
    };
    let (a, _) = run_failsilent_campaign(&cfg);
    let (b, _) = run_failsilent_campaign(&cfg);
    assert_eq!(a.digest, b.digest, "same-seed campaign digests must match");
    assert_eq!(a.digest, "f71e5df9c86402b674d9ff536f47fcbd");
    assert!(a.injections() > 0, "mutations were applied");
    // Every round resolves to exactly one outcome per class.
    let outcomes = a.detected() + a.fail_silent() + a.benign();
    assert_eq!(
        outcomes,
        3 * cfg.rounds,
        "each round per class resolves to one outcome"
    );
    assert_eq!(a.unrecovered(), 0, "every restart must complete");
}

#[test]
fn no_fault_control_run_is_clean() {
    let cfg = FailsilentConfig::default();
    let control = run_failsilent_control(&cfg, SimDuration::from_secs(10));
    assert_eq!(control.restarts, 0, "no false restarts of healthy drivers");
    assert_eq!(control.complaints_accepted, 0, "no accepted complaints");
    assert!(control.echoed > 0, "net workload live");
    assert!(control.disk_bytes > 0, "block workload live");
    assert!(control.printed > 0, "char workload live");
    assert_eq!(control.digest, "3d0a5b26b5bd1ba8e03e2bc78cea0ff6");
}

/// Boots a char-device machine, garbles the printer's checksum
/// computation (a pure fail-silent defect: every request still
/// "succeeds"), and returns the Os plus the workload status after a
/// fixed schedule.
fn garbled_printer_run(sentinels: bool) -> (Os, Rc<RefCell<LpdLoopStatus>>) {
    let mut builder = Os::builder().seed(77).with_chardevs().heartbeat(ms(500), 2);
    if !sentinels {
        builder = builder.without_sentinels();
    }
    let mut os = builder.boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up");
    let lpd = Rc::new(RefCell::new(LpdLoopStatus::default()));
    let page: Vec<u8> = (0..256u32).map(|i| (i * 3 + 7) as u8).collect();
    os.spawn_app("lpd-loop", Box::new(LpdLoop::new(vfs, page, lpd.clone())));
    os.run_for(ms(200));
    assert!(
        os.garble_driver_checksum(names::CHR_PRINTER),
        "garble hook found the checksum accumulator"
    );
    os.run_for(SimDuration::from_secs(5));
    (os, lpd)
}

#[test]
fn garbled_checksum_is_caught_by_the_sentinel_quorum() {
    let (os, lpd) = garbled_printer_run(true);
    let m = os.metrics();
    assert!(
        m.counter("sentinel.vfs.crc-mismatch") >= 3,
        "VFS vetted the bad echoes (got {})",
        m.counter("sentinel.vfs.crc-mismatch")
    );
    assert!(
        m.counter("rs.complaints.quorum_restarts") >= 1,
        "complaint quorum restarted the garbled driver"
    );
    assert_eq!(
        m.counter("rs.defect.heartbeat"),
        0,
        "nothing crashed: this defect is invisible to crash-only detection"
    );
    assert_eq!(m.counter("rs.defect.exception"), 0);
    // After the restart the fresh incarnation computes clean checksums
    // and the workload makes progress again.
    assert!(os.is_up(names::CHR_PRINTER));
    assert!(lpd.borrow().accepted > 0, "printing resumed after recovery");
}

#[test]
fn garbled_checksum_survives_with_sentinels_disarmed() {
    // The crash-only baseline: the same defect, with complaint
    // arbitration disarmed, is never repaired — the driver keeps
    // "working" with a wrong checksum and only the sentinel counters
    // notice. This is exactly the fail-silent gap the paper's §7.2
    // campaign could not close with crashes alone.
    let (os, _) = garbled_printer_run(false);
    let m = os.metrics();
    assert!(
        m.counter("vfs.complaints") >= 1,
        "sentinels still observe and complain"
    );
    assert!(
        m.counter("rs.complaints.disarmed") >= 1,
        "RS counted but ignored the evidence"
    );
    assert_eq!(
        m.counter("rs.recoveries"),
        0,
        "no restart: the defect is fail-silent under crash-only detection"
    );
}
