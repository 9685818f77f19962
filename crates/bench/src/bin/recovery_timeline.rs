//! Recovery timeline: phase-resolved MTTR under the standard chaos
//! campaign.
//!
//! Runs the chaos campaign (repeated kills of the network and block
//! drivers under a hostile IPC fabric), folds the causal trace into
//! per-episode phase timings — detection, repair, reintegration — and
//! emits a phase-breakdown report plus deterministic JSONL and
//! Chrome-trace exports into `results/`.
//!
//! The binary is also a regression gate (CI runs it with `--quick`):
//!
//! * every scripted kill must reconstruct into an accounted episode
//!   (complete, superseded by a later one, or explicitly given up);
//! * every complete episode must have all three phases;
//! * two same-seed runs must export byte-identical JSONL;
//! * the JSONL export must parse back losslessly.
//!
//! Any violation exits non-zero.

use std::fmt::Write as _;
use std::process::ExitCode;

use phoenix::campaign::{run_chaos_campaign, ChaosCampaignConfig};
use phoenix_bench::{phase_rows, print_table, quick_mode, write_report, CampaignGate};
use phoenix_simcore::export::{export_chrome_trace, export_jsonl, parse_jsonl};
use phoenix_simcore::time::SimDuration;

fn cfg(quick: bool) -> ChaosCampaignConfig {
    ChaosCampaignConfig {
        seed: 2007,
        intensity: 1.0,
        // 2 targets (network + block driver), so 50 rounds = the 100-fault
        // campaign of the acceptance bar; --quick scales to 6 faults.
        kills_per_target: if quick { 3 } else { 50 },
        kill_interval: SimDuration::from_secs(2),
        mid_recovery_kill: false,
        ..ChaosCampaignConfig::default()
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let cfg = cfg(quick);
    println!(
        "recovery timeline — phase-resolved MTTR over the chaos campaign \
         ({} scripted kills{})\n",
        2 * cfg.kills_per_target,
        if quick { ", --quick" } else { "" },
    );

    // Two same-seed runs: the second exists only to check determinism.
    let (result, mut os) = run_chaos_campaign(&cfg);
    let (_, os2) = run_chaos_campaign(&cfg);
    let jsonl = export_jsonl(os.trace().events());
    let jsonl2 = export_jsonl(os2.trace().events());

    let mut gate = CampaignGate::new();
    gate.require(
        jsonl == jsonl2,
        "same-seed runs exported different JSONL traces",
    );
    match parse_jsonl(&jsonl) {
        Ok(parsed) => gate.require(
            export_jsonl(parsed.iter()) == jsonl,
            "JSONL round-trip is lossy",
        ),
        Err(e) => gate.fail(format!("JSONL export failed to parse back: {e}")),
    }

    let timeline = os.timeline();
    println!("{}", result.render());
    println!();
    println!("{}", timeline.render());

    let expected = result.kills.iter().filter(|k| k.recovered).count();
    gate.require(
        timeline.complete_count() >= expected,
        format!(
            "only {} complete episodes for {} recovered kills",
            timeline.complete_count(),
            expected
        ),
    );
    for ep in timeline.unaccounted() {
        gate.fail(format!("unaccounted episode: {}", ep.render()));
    }
    for ep in timeline.episodes.iter().filter(|e| e.complete()) {
        if ep.detection().is_none() || ep.repair().is_none() || ep.reintegration().is_none() {
            gate.fail(format!("episode missing a phase: {}", ep.render()));
        }
    }

    let headers = ["phase", "episodes", "mean", "p50", "p95", "max"];
    let rows = phase_rows(&mut os);
    print_table(&headers, &rows);

    // ---- report + exports into results/ ----
    let mut report = String::new();
    let _ = writeln!(report, "{}", result.render());
    let _ = writeln!(report);
    let _ = writeln!(report, "{}", timeline.render());
    for row in &rows {
        let _ = writeln!(report, "{}", row.join("  "));
    }
    write_report("recovery_timeline", quick, "txt", &report);
    write_report("recovery_timeline", quick, "jsonl", &jsonl);
    write_report(
        "recovery_timeline",
        quick,
        "trace.json",
        &export_chrome_trace(&timeline),
    );

    gate.finish(
        "all gates passed: every kill reconstructed, phases complete,\n\
         same-seed exports byte-identical, JSONL round-trips losslessly",
    )
}
