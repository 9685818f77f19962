//! Microreboot campaign: crash/stall/garble mutations against the
//! *system servers* (VFS, MFS, INET and PM) on the crash-only machine —
//! checkpointing servers, sticky slots, recursive PM guard, escalation
//! ladder.
//!
//! Each round arms one injected defect per server while a recovery-aware
//! observer job (a `dd` read through VFS/MFS, a `wget` download through
//! INET) watches it, and classifies the injection as
//! detected-and-recovered (byte-exact transparent or not), fail-silent
//! survived, or benign. A no-fault control run checks that healthy
//! servers are never restarted.
//!
//! The binary is also a regression gate (CI runs it with `--quick`):
//!
//! * two same-seed campaign runs must produce byte-identical metric
//!   digests;
//! * detection coverage and transparent recovery must both reach 95%
//!   (the recovery-unaware baseline scores 0: a wedged server simply
//!   hangs its callers forever);
//! * every detected or user-restarted server must come back up;
//! * the no-fault control must report zero restarts, zero accepted
//!   complaints and zero escalations, with the workloads live;
//! * the externalized server state must stay under the snapshot cap.
//!
//! Any violation exits non-zero.

use std::fmt::Write as _;
use std::process::ExitCode;

use phoenix::campaign::{run_microreboot_campaign, run_microreboot_control, MicrorebootConfig};
use phoenix_bench::{quick_mode, write_report, CampaignGate};
use phoenix_simcore::time::SimDuration;

fn main() -> ExitCode {
    let quick = quick_mode();
    let cfg = if quick {
        MicrorebootConfig::default().quick()
    } else {
        MicrorebootConfig::default()
    };
    println!(
        "microreboot campaign — {} mutation rounds x 4 system servers{}\n",
        cfg.rounds,
        if quick { ", --quick" } else { "" },
    );

    // Campaign, twice: the second run exists only to check determinism.
    let (campaign, os) = run_microreboot_campaign(&cfg);
    let (rerun, _) = run_microreboot_campaign(&cfg);

    // No-fault control: anything restarted here is a false positive.
    let control = run_microreboot_control(&cfg, SimDuration::from_secs(30));

    println!("{}\n", campaign.render());
    println!(
        "no-fault control (30 s): {} restarts, {} pm recoveries, {} accepted \
         complaints, {} escalations; echoed {} datagrams, read {} bytes",
        control.restarts,
        control.pm_recoveries,
        control.complaints_accepted,
        control.escalations,
        control.echoed,
        control.disk_bytes,
    );

    let mut gate = CampaignGate::new();
    gate.require(
        campaign.digest == rerun.digest,
        format!(
            "same-seed campaign digests differ: {} vs {}",
            campaign.digest, rerun.digest
        ),
    );
    gate.require(
        campaign.coverage() >= 0.95,
        format!(
            "detection coverage {:.1}% below the 95% gate",
            campaign.coverage() * 100.0
        ),
    );
    gate.require(
        campaign.transparency() >= 0.95,
        format!(
            "transparent recovery {:.1}% below the 95% gate",
            campaign.transparency() * 100.0
        ),
    );
    let unrecovered: u64 = campaign.servers.iter().map(|s| s.unrecovered).sum();
    gate.require(
        unrecovered == 0,
        format!("{unrecovered} servers failed to come back up"),
    );
    gate.require(
        campaign.escalations[0] > 0,
        "no level-1 microreboot was ever recorded",
    );
    gate.require(
        !campaign.snapshot_over_cap(),
        format!(
            "externalized server state {} bytes exceeds the {}-byte cap",
            campaign.snapshot_bytes, campaign.snapshot_cap_bytes
        ),
    );
    gate.require(
        control.restarts == 0
            && control.pm_recoveries == 0
            && control.complaints_accepted == 0
            && control.escalations == 0,
        format!(
            "false positives in the no-fault control: {} restarts, {} pm \
             recoveries, {} accepted complaints, {} escalations",
            control.restarts,
            control.pm_recoveries,
            control.complaints_accepted,
            control.escalations,
        ),
    );
    gate.require(
        control.echoed > 0 && control.disk_bytes > 0,
        format!(
            "control workloads not live: echoed {}, disk bytes {}",
            control.echoed, control.disk_bytes
        ),
    );

    // ---- report into results/ ----
    let mut report = String::new();
    let _ = writeln!(report, "{}\n", campaign.render());
    let _ = writeln!(
        report,
        "no-fault control: {} restarts, {} pm recoveries, {} accepted \
         complaints, {} escalations, echoed {}, disk bytes {}",
        control.restarts,
        control.pm_recoveries,
        control.complaints_accepted,
        control.escalations,
        control.echoed,
        control.disk_bytes,
    );
    let _ = writeln!(report);
    let mut counters: Vec<(String, u64)> = os
        .metrics()
        .counters()
        .filter(|(k, _)| {
            k.starts_with("rs.")
                || k.starts_with("ds.snapshot")
                || k.starts_with("ckpt.")
                || k.starts_with("pm.")
        })
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    counters.sort();
    for (k, v) in counters {
        let _ = writeln!(report, "{k}={v}");
    }
    let timeline = os.timeline();
    let _ = writeln!(report);
    let _ = writeln!(report, "{}", timeline.render());

    write_report("microreboot_campaign", quick, "txt", &report);

    gate.finish(
        "all gates passed: same-seed digest identical, coverage and\n\
         transparency at gate, all servers recovered, zero false positives",
    )
}
