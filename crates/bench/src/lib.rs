//! Benchmark harness for the paper's evaluation: one binary per table and
//! figure, plus Criterion micro-benchmarks.
//!
//! | artifact | binary |
//! |---|---|
//! | Fig. 3 (recovery schemes) | `fig3_schemes` |
//! | Fig. 7 (network throughput vs. kill interval) | `fig7_network` |
//! | Fig. 8 (disk throughput vs. kill interval) | `fig8_disk` |
//! | §7.2 (fault-injection campaign) | `sec72_fault_injection` |
//! | Fig. 9 (reengineering effort, LoC) | `fig9_loc` |
//!
//! Every binary accepts `--quick` for a scaled-down run (CI-sized) and
//! prints the same rows/series the paper reports.

pub mod loc;

/// Simple fixed-width table printer for harness output.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Returns true when `--quick` was passed (scaled-down run).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Regression-gate accumulator shared by the campaign binaries: collect
/// violation messages while the run is summarized, then fold them into
/// the process exit code. Keeps every bin on the same contract — all
/// violations are reported (not just the first), each on its own
/// `GATE FAILED:` stderr line, non-zero exit on any.
#[derive(Debug, Default)]
pub struct CampaignGate {
    failures: Vec<String>,
}

impl CampaignGate {
    /// An empty gate (no violations yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `msg` as a violation unless `ok` holds.
    pub fn require(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.failures.push(msg.into());
        }
    }

    /// Records an unconditional violation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Whether no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints `pass_note` and returns success if clean; otherwise prints
    /// one `GATE FAILED:` line per violation and returns failure.
    pub fn finish(self, pass_note: &str) -> std::process::ExitCode {
        if self.failures.is_empty() {
            println!("\n{pass_note}");
            std::process::ExitCode::SUCCESS
        } else {
            for f in &self.failures {
                eprintln!("GATE FAILED: {f}");
            }
            std::process::ExitCode::FAILURE
        }
    }
}

/// Writes a campaign report to `results/<name><suffix>.<ext>` under the
/// workspace root (`_quick` suffix for scaled-down runs) and echoes the
/// path, matching the convention every campaign binary follows.
pub fn write_report(name: &str, quick: bool, ext: &str, body: &str) {
    let suffix = if quick { "_quick" } else { "" };
    let dir = workspace_root().join("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}{suffix}.{ext}"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("failed to write {}: {e}", path.display());
    } else {
        println!("\nwrote {}", path.display());
    }
}

/// One table row per recovery phase the run's folded timeline recorded:
/// phase, episodes, mean, p50, p95, max.
pub fn phase_rows(os: &mut phoenix::Os) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for phase in ["detect", "repair", "reintegrate", "replay", "total"] {
        let name = format!("recovery.phase.{phase}");
        let h = os.metrics_mut().histogram_mut(&name);
        if h.count() == 0 {
            continue;
        }
        let fmt = |d: Option<phoenix::simcore::time::SimDuration>| match d {
            Some(d) => format!("{d}"),
            None => "-".to_string(),
        };
        rows.push(vec![
            phase.to_string(),
            format!("{}", h.count()),
            fmt(h.mean_duration()),
            fmt(h.quantile_duration(0.5)),
            fmt(h.quantile_duration(0.95)),
            fmt(h.max_duration()),
        ]);
    }
    rows
}

/// Workspace root (assumes the binary runs via `cargo run` from anywhere
/// inside the workspace).
pub fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir;
        }
        if !dir.pop() {
            panic!("run from inside the workspace");
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_prints_without_panic() {
        super::print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn gate_collects_only_violations() {
        let mut gate = super::CampaignGate::new();
        gate.require(true, "never recorded");
        assert!(gate.is_clean());
        gate.require(false, "first");
        gate.fail("second");
        assert!(!gate.is_clean());
        assert_eq!(gate.failures, vec!["first", "second"]);
    }
}
