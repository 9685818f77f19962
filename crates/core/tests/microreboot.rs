//! Microreboot tests: crash-only system servers, recursive RS
//! escalation, and recovery-aware applications on the checkpointing
//! machine (`OsBuilder::with_checkpointing`).

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus, UdpPing, UdpStatus, Wget, WgetStatus};
use phoenix::os::{names, NicKind, Os};
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_servers::netproto::stream_md5;
use phoenix_servers::ServerFault;
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

const FILE_SIZE: u64 = 128 * 1024;

/// Boots the crash-only machine: checkpointing servers, sticky slots,
/// recursive PM guard.
fn boot(seed: u64) -> Os {
    let files = vec![FileSpec {
        name: "stream".to_string(),
        content: FileContent::Synthetic { size: FILE_SIZE },
    }];
    Os::builder()
        .seed(seed)
        .with_network(NicKind::Dp8390)
        .with_disk(FILE_SIZE / 512 + 256, seed ^ 0xd15c, files)
        .with_checkpointing()
        .heartbeat(ms(500), 2)
        .boot()
}

/// Spawns a recovery-aware reader and returns its status cell.
fn spawn_reader(os: &mut Os, name: &str) -> Rc<RefCell<DdStatus>> {
    let vfs = os.endpoint(names::VFS).expect("vfs up");
    let rs = os.endpoint("rs").expect("rs up");
    let st = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app_with_ipc(
        name,
        Box::new(Dd::new(vfs, "stream", 8 * 1024, st.clone()).recovery_aware(rs)),
        &["vfs", "pm", "inet", "rs"],
    );
    st
}

fn run_until(os: &mut Os, mut cond: impl FnMut(&Os) -> bool, budget_ms: u64) {
    let mut spent = 0;
    while !cond(os) && spent < budget_ms {
        os.run_for(ms(50));
        spent += 50;
    }
}

/// A pristine read defines the byte-exact expectation.
fn pristine_sha1(os: &mut Os) -> String {
    let st = spawn_reader(os, "dd-pristine");
    run_until(os, |_| st.borrow().done, 10_000);
    let st = st.borrow();
    assert!(st.done, "pristine read finishes");
    assert_eq!(st.errors, 0);
    st.sha1.clone().expect("sha1 set")
}

#[test]
fn vfs_microreboot_is_transparent_to_a_reader() {
    // Crash VFS mid-read: the job must finish byte-exact with zero
    // application-visible errors, against a *replaced* incarnation.
    let mut os = boot(7001);
    let expected = pristine_sha1(&mut os);
    let before = os.endpoint(names::VFS).expect("vfs up");

    os.inject_server_fault_of(names::VFS, ServerFault::Crash);
    let st = spawn_reader(&mut os, "dd-victim");
    run_until(&mut os, |_| st.borrow().done, 30_000);

    let after = os.endpoint(names::VFS).expect("vfs back up");
    assert_ne!(before, after, "VFS incarnation was replaced");
    let st = st.borrow();
    assert!(st.done, "reader finished across the microreboot");
    assert_eq!(st.errors, 0, "microreboot transparent to the reader");
    assert_eq!(st.sha1.as_deref(), Some(expected.as_str()), "byte-exact");
    assert!(st.retries > 0, "the reader did reissue work");
    assert_eq!(os.metrics().counter("rs.escalations.level1"), 1);
}

#[test]
fn stalled_server_is_detected_by_the_request_age_guard() {
    // A wedged MFS swallows requests without crashing; the kernel
    // request-age guard must notice and RS must microreboot it.
    let mut os = boot(7002);
    let expected = pristine_sha1(&mut os);
    let before = os.endpoint(names::MFS).expect("mfs up");

    os.inject_server_fault_of(names::MFS, ServerFault::Stall);
    let st = spawn_reader(&mut os, "dd-victim");
    run_until(&mut os, |_| st.borrow().done, 40_000);

    let after = os.endpoint(names::MFS).expect("mfs back up");
    assert_ne!(before, after, "MFS incarnation was replaced");
    let st = st.borrow();
    assert!(st.done, "reader finished across the stall");
    assert_eq!(st.sha1.as_deref(), Some(expected.as_str()), "byte-exact");
    assert!(
        os.metrics().counter("rs.complaints.evidence.progress") > 0,
        "the request-age guard provided the evidence"
    );
}

#[test]
fn garbling_server_is_convicted_by_application_complaints() {
    // A corrupting VFS garbles its replies; the recovery-aware reader
    // files BAD_REPLY evidence and RS restarts the server.
    let mut os = boot(7003);
    let expected = pristine_sha1(&mut os);
    let before = os.endpoint(names::VFS).expect("vfs up");

    os.inject_server_fault_of(names::VFS, ServerFault::Garble);
    let st = spawn_reader(&mut os, "dd-victim");
    run_until(&mut os, |_| st.borrow().done, 30_000);

    let after = os.endpoint(names::VFS).expect("vfs back up");
    assert_ne!(before, after, "VFS incarnation was replaced");
    let st = st.borrow();
    assert!(st.done);
    assert_eq!(st.sha1.as_deref(), Some(expected.as_str()), "byte-exact");
    assert!(st.complaints > 0, "the reader filed the evidence");
    assert!(os.metrics().counter("rs.complaints.accepted") > 0);
}

#[test]
fn inet_microreboot_resumes_a_download() {
    // Crash INET mid-download: the session slab is externalized, so the
    // restored incarnation still knows the connection and the peer's
    // retransmissions fill the gap.
    let mut os = boot(7004);
    let size = 32 * 1024u64;
    let inet = os.endpoint(names::INET).expect("inet up");
    let rs = os.endpoint("rs").expect("rs up");
    let st = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app_with_ipc(
        "wget-victim",
        Box::new(Wget::new(inet, size, 3, st.clone()).recovery_aware(rs)),
        &["vfs", "pm", "inet", "rs"],
    );
    // The armed fault is consumed by the download's first request.
    os.inject_server_fault_of(names::INET, ServerFault::Crash);
    run_until(&mut os, |_| st.borrow().done, 60_000);

    let after = os.endpoint(names::INET).expect("inet back up");
    assert_ne!(inet, after, "INET incarnation was replaced");
    let st = st.borrow();
    assert!(st.done, "download finished across the microreboot");
    assert_eq!(
        st.md5.as_deref(),
        Some(stream_md5(3, size).as_str()),
        "stream is byte-exact"
    );
}

#[test]
fn pm_is_recovered_recursively_by_rs() {
    // Kill PM: RS notices (audit / liveness ping), respawns it with its
    // own spawn privilege, and service recovery still works afterwards.
    let mut os = boot(7005);
    let pm_before = os.endpoint("pm").expect("pm up");
    os.inject_server_fault_of("pm", ServerFault::Crash);
    run_until(
        &mut os,
        |os| os.endpoint("pm").is_some_and(|e| e != pm_before),
        20_000,
    );
    let pm_after = os.endpoint("pm").expect("pm back up");
    assert_ne!(pm_before, pm_after, "PM incarnation was replaced");
    assert_eq!(os.metrics().counter("rs.pm_recoveries"), 1);

    // The recovered PM must still execute starts: crash a server and
    // watch the (PM-mediated) restart succeed.
    let vfs_before = os.endpoint(names::VFS).expect("vfs up");
    os.inject_server_fault_of(names::VFS, ServerFault::Crash);
    let st = spawn_reader(&mut os, "dd-after");
    run_until(&mut os, |_| st.borrow().done, 30_000);
    assert!(st.borrow().done, "reads work after recursive recovery");
    assert_ne!(os.endpoint(names::VFS), Some(vfs_before));
}

#[test]
fn stalled_pm_is_detected_by_the_liveness_ping() {
    // A wedged PM swallows events with nothing in flight against it; the
    // RS liveness ping is the only detector that can see it.
    let mut os = boot(7006);
    let pm_before = os.endpoint("pm").expect("pm up");
    os.inject_server_fault_of("pm", ServerFault::Stall);
    run_until(
        &mut os,
        |os| os.endpoint("pm").is_some_and(|e| e != pm_before),
        30_000,
    );
    assert_ne!(os.endpoint("pm"), Some(pm_before), "PM was replaced");
    assert!(os.metrics().counter("rs.pm_pings_missed") > 0);
}

#[test]
fn recurring_defect_escalates_to_a_dependency_group_reboot() {
    // Two defects in the same server inside the budget window: the
    // second recovery must escalate to level 2 and reboot the dependent
    // group (MFS rides along with VFS).
    let mut os = boot(7007);
    let _ = pristine_sha1(&mut os);

    let mfs_gen0 = os.endpoint(names::MFS).expect("mfs up");
    for round in 0..2 {
        let before = os.endpoint(names::VFS).expect("vfs up");
        os.inject_server_fault_of(names::VFS, ServerFault::Crash);
        let st = spawn_reader(&mut os, &format!("dd-{round}"));
        run_until(&mut os, |_| st.borrow().done, 30_000);
        assert!(st.borrow().done, "round {round} read finished");
        run_until(
            &mut os,
            |os| os.endpoint(names::VFS).is_some_and(|e| e != before),
            10_000,
        );
    }
    assert_eq!(os.metrics().counter("rs.escalations.level2"), 1);
    // The group reboot replaced the (healthy) dependent too.
    run_until(
        &mut os,
        |os| os.endpoint(names::MFS).is_some_and(|e| e != mfs_gen0),
        10_000,
    );
    assert_ne!(os.endpoint(names::MFS), Some(mfs_gen0), "MFS rebooted too");
    // The group members were killed by RS, not convicted of anything:
    // their deaths must not count against their own restart budgets.
    assert_eq!(os.metrics().counter("rs.gave_up"), 0);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    use phoenix::campaign::{run_microreboot_campaign, MicrorebootConfig};
    let cfg = MicrorebootConfig {
        rounds: 1,
        ..MicrorebootConfig::default()
    };
    let (a, _) = run_microreboot_campaign(&cfg);
    let (b, _) = run_microreboot_campaign(&cfg);
    assert_eq!(a.digest, b.digest, "same seed, same bytes");
    assert_eq!(a.digest, "237b348de2888f137828e2a8846460de");
    assert!(a.coverage() > 0.0);
}

#[test]
fn no_fault_control_never_restarts_a_healthy_server() {
    use phoenix::campaign::{run_microreboot_control, MicrorebootConfig};
    let control = run_microreboot_control(&MicrorebootConfig::default(), ms(20_000));
    assert_eq!(control.restarts, 0, "no false service restarts");
    assert_eq!(control.pm_recoveries, 0, "no false PM recoveries");
    assert_eq!(control.complaints_accepted, 0, "no accepted complaints");
    assert_eq!(control.escalations, 0, "no escalations");
    assert_eq!(control.digest, "26d3f5ef7cc667ef9fc51df0a839f155");
    assert!(
        control.echoed > 0 && control.disk_bytes > 0,
        "workloads live"
    );
}

#[test]
fn background_traffic_survives_a_full_server_sweep() {
    // Give-up taxonomy guard: killing each server once in sequence must
    // leave zero `gave_up` services and the datagram path still moving.
    let mut os = boot(7008);
    let udp = Rc::new(RefCell::new(UdpStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up");
    os.spawn_app(
        "udp-bg",
        Box::new(UdpPing::new(inet, 1_000_000, ms(5), udp.clone())),
    );
    os.run_for(ms(500));
    for (round, server) in [names::VFS, names::MFS, names::INET, "pm"]
        .into_iter()
        .enumerate()
    {
        let before = os.endpoint(server).expect("server up");
        os.inject_server_fault_of(server, ServerFault::Crash);
        // A server only consumes its armed fault when an event reaches
        // it: the UDP traffic pokes INET and RS pings PM, but the idle
        // file-system servers need a caller to trip the defect.
        if server == names::VFS || server == names::MFS {
            let _ = spawn_reader(&mut os, &format!("dd-sweep-{round}"));
        }
        run_until(
            &mut os,
            |os| os.endpoint(server).is_some_and(|e| e != before),
            30_000,
        );
        assert_ne!(os.endpoint(server), Some(before), "{server} replaced");
    }
    let echoed_before = udp.borrow().echoed;
    os.run_for(ms(2_000));
    assert!(
        udp.borrow().echoed > echoed_before,
        "datagram traffic still moving after the sweep"
    );
    assert_eq!(os.metrics().counter("rs.gave_up"), 0, "nothing gave up");
}
