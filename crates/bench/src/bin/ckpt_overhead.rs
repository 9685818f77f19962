//! Checkpoint overhead: recovery transparency and per-request logging cost
//! of the `phoenix-ckpt` subsystem.
//!
//! Runs the checkpoint campaign — repeated kills of the printer and audio
//! drivers while a print job and a paced audio stream are in flight —
//! once with checkpointing on (twice, for the determinism gate) and once
//! with the paper's §6.3 error-push baseline, then reports the
//! recovery-transparency rate and the per-request overhead of write-ahead
//! logging plus snapshotting.
//!
//! The binary is also a regression gate (CI runs it with `--quick`):
//!
//! * the checkpointed run must be fully transparent: zero app-visible
//!   errors, byte-exact printer stream, every audio byte played once;
//! * the baseline run must still surface errors to the applications
//!   (§6.3 semantics must not silently disappear);
//! * two same-seed checkpointed runs must produce identical digests.
//!
//! Any violation exits non-zero.

use std::fmt::Write as _;
use std::process::ExitCode;

use phoenix::campaign::{run_ckpt_campaign, CkptCampaignConfig};
use phoenix_bench::{phase_rows, print_table, quick_mode, write_report, CampaignGate};
use phoenix_simcore::time::SimDuration;

fn cfg(quick: bool, checkpointing: bool) -> CkptCampaignConfig {
    CkptCampaignConfig {
        seed: 2007,
        faults: if quick { 12 } else { 100 },
        kill_interval: SimDuration::from_millis(400),
        checkpointing,
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    println!(
        "checkpoint overhead — char-driver kills with and without \
         phoenix-ckpt ({} faults{})\n",
        cfg(quick, true).faults,
        if quick { ", --quick" } else { "" },
    );

    let ckpt_cfg = cfg(quick, true);
    let (ckpt, os) = run_ckpt_campaign(&ckpt_cfg);
    let (ckpt2, _) = run_ckpt_campaign(&ckpt_cfg);
    let (legacy, _) = run_ckpt_campaign(&cfg(quick, false));
    let mut os = os;

    println!("{}", ckpt.render());
    println!("{}", legacy.render());
    println!();

    let headers = [
        "mode",
        "kills",
        "transparency",
        "app errors",
        "printer exact",
        "audio exact",
        "msgs/req",
    ];
    let mode_row = |r: &phoenix::campaign::CkptCampaignResult| {
        vec![
            if r.checkpointing { "ckpt" } else { "legacy" }.to_string(),
            format!("{}", r.kills),
            format!("{:.0}%", r.transparency_rate() * 100.0),
            format!("{}", r.app_visible_errors),
            format!("{}", r.printer_byte_exact),
            format!("{}", r.samples_played == r.expected_samples),
            format!("{:.3}", r.overhead_msgs_per_request()),
        ]
    };
    let rows = vec![mode_row(&ckpt), mode_row(&legacy)];
    print_table(&headers, &rows);
    println!();

    let phase_headers = ["phase", "episodes", "mean", "p50", "p95", "max"];
    let phases = phase_rows(&mut os);
    print_table(&phase_headers, &phases);

    let mut gate = CampaignGate::new();
    gate.require(
        ckpt.digest == ckpt2.digest,
        "same-seed checkpointed runs diverged (digest mismatch)",
    );
    gate.require(ckpt.workloads_done, "checkpointed workloads did not finish");
    gate.require(
        ckpt.app_visible_errors == 0,
        format!(
            "checkpointed recovery leaked {} errors to the applications",
            ckpt.app_visible_errors
        ),
    );
    gate.require(
        ckpt.printer_byte_exact,
        format!(
            "checkpointed printer stream not byte-exact ({}/{} bytes)",
            ckpt.printed_bytes, ckpt.expected_printed
        ),
    );
    gate.require(
        ckpt.samples_played == ckpt.expected_samples,
        format!(
            "checkpointed audio stream incomplete ({}/{} bytes)",
            ckpt.samples_played, ckpt.expected_samples
        ),
    );
    gate.require(
        ckpt.recovered_kills == ckpt.kills,
        format!(
            "only {}/{} kills recovered",
            ckpt.recovered_kills, ckpt.kills
        ),
    );
    gate.require(
        legacy.app_visible_errors != 0,
        "baseline run surfaced no errors — §6.3 error-push semantics lost",
    );

    // ---- report into results/ ----
    let mut report = String::new();
    let _ = writeln!(report, "{}", ckpt.render());
    let _ = writeln!(report, "{}", legacy.render());
    let _ = writeln!(report);
    for row in &rows {
        let _ = writeln!(report, "{}", row.join("  "));
    }
    for row in &phases {
        let _ = writeln!(report, "{}", row.join("  "));
    }
    write_report("ckpt_overhead", quick, "txt", &report);

    gate.finish(
        "all gates passed: checkpointed recovery transparent and\n\
         byte-exact, baseline still pushes errors, runs deterministic",
    )
}
