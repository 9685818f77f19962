//! phoenix-ckpt integration tests: checkpointed character-driver recovery
//! must be *transparent* — byte-exact device streams across kills, replay
//! past the acked watermark, stale-incarnation snapshots rejected — while
//! applications that opt out still get the paper's §6.3 error-push
//! behavior. All of it byte-identical under a fixed seed.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{CkptLpd, CkptLpdStatus, CkptMp3Player, CkptMp3Status, Lpd, LpdStatus};
use phoenix::campaign::{metrics_digest, run_ckpt_campaign, CkptCampaignConfig};
use phoenix::ckpt::{crc32, Snapshot};
use phoenix::os::{hwmap, names, Os};
use phoenix_hw::chardev::{AudioDac, Printer};
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn job_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(167) >> 2) as u8)
        .collect()
}

/// The app's `done` means every byte is *acked by the driver*; the printer
/// FIFO may still be draining to paper. Run until the hardware catches up.
fn drain_printer(os: &mut Os, expected: usize) {
    let mut guard = 0;
    while guard < 400 {
        let printed = os
            .device_mut::<Printer>(hwmap::PRINTER)
            .map_or(0, |p| p.printed().len());
        if printed >= expected {
            break;
        }
        os.run_for(ms(50));
        guard += 1;
    }
}

/// A print job survives a mid-job driver kill with zero duplicated and
/// zero lost bytes: the printed stream equals the job exactly.
#[test]
fn printer_job_byte_exact_across_kill() {
    let mut os = Os::builder().seed(91).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let job = job_bytes(91, 40 * 1024);
    let status = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app(
        "ckpt-lpd",
        Box::new(CkptLpd::new(vfs, job.clone(), status.clone())),
    );

    // Kill the printer driver twice, mid-job.
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::CHR_PRINTER));
    os.run_for(ms(700));
    assert!(os.kill_by_user(names::CHR_PRINTER));

    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(50));
        guard += 1;
    }
    {
        let st = status.borrow();
        assert!(st.done, "job must complete (acked={})", st.acked);
        assert!(st.replays >= 1, "at least one kill must hit the job");
        assert_eq!(st.app_errors, 0, "recovery must be transparent to lpd");
    }

    drain_printer(&mut os, job.len());
    let printer = os.device_mut::<Printer>(hwmap::PRINTER).unwrap();
    assert_eq!(
        printer.printed().len(),
        job.len(),
        "no lost and no duplicated bytes"
    );
    assert_eq!(printer.printed(), &job[..], "printed stream byte-exact");
    assert!(os.metrics().counter("ckpt.saves_acked") > 0);
    assert!(os.metrics().counter("ckpt.restores") >= 1);
}

/// Audio playback resumes past the acked watermark after a driver kill:
/// every logged block reaches the DAC exactly once, no app-level drops.
#[test]
fn audio_resumes_past_acked_watermark() {
    let mut os = Os::builder().seed(92).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let blocks = 40u64;
    let block_bytes = 4410usize;
    let status = Rc::new(RefCell::new(CkptMp3Status::default()));
    os.spawn_app(
        "ckpt-mp3",
        Box::new(CkptMp3Player::new(
            vfs,
            blocks,
            block_bytes,
            ms(25),
            status.clone(),
        )),
    );

    os.run_for(ms(120));
    assert!(os.kill_by_user(names::CHR_AUDIO));

    let expected = blocks * block_bytes as u64;
    let mut guard = 0;
    loop {
        let played = os
            .device_mut::<AudioDac>(hwmap::AUDIO)
            .map_or(0, |d| d.samples_played());
        if (status.borrow().done && played >= expected) || guard >= 600 {
            break;
        }
        os.run_for(ms(50));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "stream must finish (acked={})", st.acked);
    assert!(st.replays >= 1, "the kill must interrupt the stream");
    assert_eq!(st.app_errors, 0, "recovery must be transparent to mp3");
    assert_eq!(st.acked, expected, "every logged byte acked exactly once");
    let dac = os.device_mut::<AudioDac>(hwmap::AUDIO).unwrap();
    assert_eq!(dac.samples_played(), expected, "DAC played each byte once");
}

/// At-least-once oracle for runs where the snapshot was lost or unusable:
/// `printed` must be `job[0..c] ++ job[a..]` with `a <= c` — nothing lost,
/// duplicates only where the caller log replayed past a lost watermark.
fn assert_stream_covers(printed: &[u8], job: &[u8]) {
    assert!(
        printed.len() >= job.len(),
        "bytes lost: printed {} < job {}",
        printed.len(),
        job.len()
    );
    let c = printed
        .iter()
        .zip(job.iter())
        .take_while(|(p, j)| p == j)
        .count();
    let resume = job.len() - (printed.len() - c);
    assert!(
        resume <= c,
        "gap in replayed stream (prefix {c}, resume {resume})"
    );
    assert_eq!(&printed[c..], &job[resume..], "tail must be a job suffix");
}

/// A snapshot sequence regression (a ghost record shadowing the live
/// incarnation) is rejected by DS as stale; after a kill the driver
/// distrusts the useless watermark, falls back to the caller-held log,
/// and the job still completes with nothing lost.
#[test]
fn stale_incarnation_snapshot_rejected() {
    let mut os = Os::builder().seed(93).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let job = job_bytes(93, 48 * 1024);
    let status = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app(
        "ckpt-lpd",
        Box::new(CkptLpd::new(vfs, job.clone(), status.clone())),
    );
    os.run_for(ms(80));

    // Forge a ghost record that shadows the live incarnation: a far-future
    // incarnation tag and sequence number, but a useless (zero) watermark.
    // Every later save from the live incarnation regresses the sequence
    // and must be rejected as stale.
    let store = os.ckpt_store().expect("checkpointing boots a store");
    let forged = Snapshot::watermark(u32::MAX, u64::MAX / 2, 0).encode();
    store.borrow_mut().insert_raw(
        names::CHR_PRINTER,
        "printer",
        u32::MAX,
        u64::MAX / 2,
        forged,
    );

    os.run_for(ms(150));
    assert!(
        os.metrics().counter("ds.ckpt_stale_rejected") > 0,
        "live saves after the forgery must be rejected as stale"
    );

    // Kill the driver: the fresh incarnation restores the forged snapshot,
    // whose watermark says nothing useful — the caller log replays from
    // its own acked cursor (a watermark jump) and nothing is lost.
    assert!(os.kill_by_user(names::CHR_PRINTER));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(50));
        guard += 1;
    }
    assert!(status.borrow().done, "job must still complete");
    assert_eq!(status.borrow().app_errors, 0);
    assert!(
        os.metrics().counter("ckpt.watermark_jumps") >= 1,
        "the useless watermark must be jumped, trusting the caller log"
    );
    drain_printer(&mut os, job.len());
    let printer = os.device_mut::<Printer>(hwmap::PRINTER).unwrap();
    assert_stream_covers(printer.printed(), &job);
}

/// A corrupt snapshot (bad CRC) is caught on restore; the driver falls
/// back to caller-log replay with at-least-once semantics — nothing lost,
/// and the corruption is detected rather than silently restored.
#[test]
fn corrupt_snapshot_detected_on_restore() {
    let mut os = Os::builder().seed(94).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let job = job_bytes(94, 48 * 1024);
    let status = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app(
        "ckpt-lpd",
        Box::new(CkptLpd::new(vfs, job.clone(), status.clone())),
    );
    os.run_for(ms(100));

    // Flip bits in the stored snapshot *behind* DS's back, keeping the
    // header fields intact so only the CRC check can catch it.
    let store = os.ckpt_store().expect("checkpointing boots a store");
    {
        let mut s = store.borrow_mut();
        let stored = s
            .get(names::CHR_PRINTER, "printer")
            .expect("driver has checkpointed by now");
        let (inc, seq) = (stored.incarnation, stored.seq);
        let mut wire = stored.wire.clone();
        let n = wire.len();
        wire[n - 6] ^= 0xFF; // payload byte, CRC now wrong
        s.insert_raw(names::CHR_PRINTER, "printer", inc, seq, wire);
    }

    assert!(os.kill_by_user(names::CHR_PRINTER));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(50));
        guard += 1;
    }
    assert!(
        status.borrow().done,
        "job must complete past the corruption"
    );
    assert_eq!(status.borrow().app_errors, 0);
    assert!(
        os.metrics().counter("ds.ckpt_corrupt_rejected") > 0
            || os.metrics().counter("ckpt.restore_corrupt") > 0,
        "the corruption must be detected, not silently restored"
    );
    drain_printer(&mut os, job.len());
    let printer = os.device_mut::<Printer>(hwmap::PRINTER).unwrap();
    assert_stream_covers(printer.printed(), &job);
}

/// §6.3 regression: applications opting OUT of checkpointing still get the
/// paper's error-push behavior. The recovery-aware lpd reissues the whole
/// job (duplicates possible); the recovery-unaware one surfaces a fatal
/// error to the user.
#[test]
fn opt_out_keeps_error_push_semantics() {
    // Recovery-aware legacy lpd: restarts the job, duplicates appear.
    let mut os = Os::builder().seed(95).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let job = job_bytes(95, 12 * 1024);
    let aware = Rc::new(RefCell::new(LpdStatus::default()));
    os.spawn_app("lpd", Box::new(Lpd::new(vfs, job.clone(), aware.clone())));
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::CHR_PRINTER));
    let mut guard = 0;
    while !aware.borrow().done && guard < 600 {
        os.run_for(ms(50));
        guard += 1;
    }
    assert!(aware.borrow().done);
    assert!(
        aware.borrow().job_restarts >= 1,
        "aware app must see the failure and restart the job"
    );
    os.run_for(ms(2000)); // let the printer FIFO drain to paper
    let printer = os.device_mut::<Printer>(hwmap::PRINTER).unwrap();
    assert!(
        printer.printed().len() > job.len(),
        "whole-job reissue duplicates output ({} vs {})",
        printer.printed().len(),
        job.len()
    );

    // Recovery-unaware legacy lpd: the error reaches the user, job dies.
    let mut os = Os::builder().seed(96).with_checkpointing().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let unaware = Rc::new(RefCell::new(LpdStatus::default()));
    os.spawn_app(
        "lpd-unaware",
        Box::new(Lpd::new_unaware(vfs, job.clone(), unaware.clone())),
    );
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::CHR_PRINTER));
    let mut guard = 0;
    while !unaware.borrow().done && guard < 600 {
        os.run_for(ms(50));
        guard += 1;
    }
    let st = unaware.borrow();
    assert!(st.done, "unaware app gives up and reports");
    assert!(st.fatal >= 1, "failure must surface to the user (§6.3)");
    assert_eq!(st.job_restarts, 0, "unaware app never replays");
}

/// The whole checkpoint campaign is deterministic: same seed, same digest.
#[test]
fn ckpt_campaign_same_seed_same_digest() {
    let cfg = CkptCampaignConfig {
        faults: 6,
        ..CkptCampaignConfig::default()
    };
    let (a, os_a) = run_ckpt_campaign(&cfg);
    let (b, os_b) = run_ckpt_campaign(&cfg);
    assert_eq!(a.digest, b.digest, "same seed must be byte-identical");
    assert_eq!(a.digest, "bc5deed5ac7fd7f22bf46e7c6932a3a5");
    assert_eq!(metrics_digest(&os_a), metrics_digest(&os_b));
    assert!(a.workloads_done, "campaign workloads must finish");
    assert!(a.printer_byte_exact, "campaign printer stream exact");
    assert_eq!(a.app_visible_errors, 0, "campaign fully transparent");
    assert_eq!(a.samples_played, a.expected_samples);
}

/// Snapshot wire format: CRC covers the payload; decode round-trips.
#[test]
fn snapshot_wire_roundtrip() {
    let snap = Snapshot::new(3, 17, vec![1, 2, 3, 4]);
    let wire = snap.encode();
    assert_eq!(Snapshot::decode(&wire).unwrap(), snap);
    assert_ne!(crc32(&[1, 2, 3]), crc32(&[1, 2, 4]));
}
