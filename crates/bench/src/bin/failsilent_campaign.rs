//! Fail-silent defect campaign: §7.2 mutations that do *not* crash the
//! driver, against the protocol-sentinel / babble-guard / complaint-
//! arbitration stack.
//!
//! Drives the mutation engine round-robin over all three driver classes
//! (DP8390 net, SATA block, printer char) while one workload per class
//! keeps the hot paths busy, and classifies every injection as
//! detected-and-recovered, fail-silent-survived (the user has to restart
//! by hand), or benign. A second arm runs the identical schedule with the
//! sentinel layers disarmed (`without_sentinels`) — the crash-only
//! baseline — and a no-fault control run checks that healthy drivers are
//! never restarted.
//!
//! The binary is also a regression gate (CI runs it with `--quick`):
//!
//! * two same-seed campaign runs must produce byte-identical metric
//!   digests;
//! * at least one detection must be sentinel-only (complaint evidence
//!   with no crash-class counter movement): coverage strictly above the
//!   crash-only baseline;
//! * every detected or user-restarted driver must recover;
//! * the no-fault control run must report zero restarts and zero
//!   accepted complaints, with all three workloads live.
//!
//! Any violation exits non-zero.

use std::fmt::Write as _;
use std::process::ExitCode;

use phoenix::campaign::{run_failsilent_campaign, run_failsilent_control, FailsilentConfig};
use phoenix_bench::{print_table, quick_mode, write_report, CampaignGate};
use phoenix_simcore::obs::sentinel_counters;
use phoenix_simcore::time::SimDuration;

fn cfg(quick: bool) -> FailsilentConfig {
    let base = FailsilentConfig::default();
    if quick {
        base.quick()
    } else {
        base
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let cfg = cfg(quick);
    println!(
        "fail-silent campaign — {} mutation rounds x 3 driver classes{}\n",
        cfg.rounds,
        if quick { ", --quick" } else { "" },
    );

    // Armed arm, twice: the second run exists only to check determinism.
    let (armed, os) = run_failsilent_campaign(&cfg);
    let (rerun, _) = run_failsilent_campaign(&cfg);

    // Crash-only baseline arm: same schedule, sentinels disarmed.
    let baseline_cfg = FailsilentConfig {
        sentinels: false,
        ..cfg.clone()
    };
    let (baseline, _) = run_failsilent_campaign(&baseline_cfg);

    // No-fault control: anything restarted here is a false positive.
    let control = run_failsilent_control(&cfg, SimDuration::from_secs(30));

    println!("sentinels armed:");
    println!("{}\n", armed.render());
    println!("crash-only baseline (sentinels disarmed):");
    println!("{}\n", baseline.render());
    println!(
        "no-fault control (30 s): {} restarts, {} accepted complaints; \
         echoed {} datagrams, read {} disk bytes, printed {} bytes",
        control.restarts,
        control.complaints_accepted,
        control.echoed,
        control.disk_bytes,
        control.printed,
    );

    let rows: Vec<Vec<String>> = sentinel_counters(os.metrics())
        .into_iter()
        .map(|(k, v)| vec![k, v.to_string()])
        .collect();
    println!();
    print_table(&["counter", "value"], &rows);

    let mut gate = CampaignGate::new();
    gate.require(
        armed.digest == rerun.digest,
        format!(
            "same-seed campaign digests differ: {} vs {}",
            armed.digest, rerun.digest
        ),
    );
    gate.require(
        armed.sentinel_only() > 0,
        "no sentinel-only detection: coverage is not above the \
         crash-only baseline",
    );
    gate.require(
        armed.coverage() > armed.crash_only_coverage(),
        format!(
            "coverage {:.3} not strictly above crash-only baseline {:.3}",
            armed.coverage(),
            armed.crash_only_coverage()
        ),
    );
    gate.require(
        armed.unrecovered() == 0,
        format!(
            "{} drivers failed to recover after restart",
            armed.unrecovered()
        ),
    );
    gate.require(
        control.restarts == 0 && control.complaints_accepted == 0,
        format!(
            "false positives in the no-fault control: {} restarts, {} \
             accepted complaints",
            control.restarts, control.complaints_accepted
        ),
    );
    gate.require(
        control.echoed > 0 && control.disk_bytes > 0 && control.printed > 0,
        format!(
            "control workloads not live: echoed {}, disk {}, printed {}",
            control.echoed, control.disk_bytes, control.printed
        ),
    );

    // ---- report into results/ ----
    let mut report = String::new();
    let _ = writeln!(report, "sentinels armed:\n{}\n", armed.render());
    let _ = writeln!(
        report,
        "crash-only baseline (sentinels disarmed):\n{}\n",
        baseline.render()
    );
    let _ = writeln!(
        report,
        "no-fault control: {} restarts, {} accepted complaints, echoed {}, \
         disk bytes {}, printed {}",
        control.restarts,
        control.complaints_accepted,
        control.echoed,
        control.disk_bytes,
        control.printed,
    );
    let _ = writeln!(report);
    for (k, v) in sentinel_counters(os.metrics()) {
        let _ = writeln!(report, "{k}={v}");
    }
    let timeline = os.timeline();
    let _ = writeln!(report);
    let _ = writeln!(report, "{}", timeline.render());

    write_report("failsilent_campaign", quick, "txt", &report);

    gate.finish(
        "all gates passed: same-seed digest identical, sentinel-only\n\
         detections present, all restarts recovered, zero false positives",
    )
}
