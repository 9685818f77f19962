//! Host-clock benchmark of the phoenix simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload <net_kill|disk_kill|fault_mix|slo_chaos> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload, single-threaded, in its own process
//! (so `peak_rss_mb` is that workload's alone). It times set-up several
//! times, then repeats the workload with the same seed until `--seconds`
//! have passed, and at least [`MIN_REPS`] times. It checks every rep's
//! outputs and reports medians. The last line of standard output is one
//! JSON object: `correct`, `attempted` and `failed` count the output
//! checks (`failed / attempted` is the run's `fail_frac`), and `metrics`
//! holds the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `README.md` next to this package defines every metric.
//!
//! With `--trace 1` the run alternates untraced and traced reps. The
//! traced ones time the benchmark's own calls into each crate (see
//! [`workloads`]). The difference of the two medians is the tracing
//! overhead. The layer probes ([`probes`]) run at the end. End-to-end
//! metrics come only from untraced runs.
//!
//! Every input is generated from `--seed`. A rep's virtual-time
//! fingerprint (digest, virtual time, work counts) must be identical
//! across all reps of a run. It is printed so two commits can be diffed.
//! Seed 1907 is held out: check a change on it only after tuning on
//! others.

use std::process::ExitCode;
use std::time::{Duration, Instant};

mod probes;
mod workloads;

use workloads::{Check, Rep, Runner, Workload};

/// Fewest untraced reps a run makes, however long they take.
const MIN_REPS: usize = 3;
/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2007),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <net_kill|disk_kill|fault_mix|slo_chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if run(&args).is_none() {
        eprintln!("simbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Output checks of a run, counted as `fail_frac` counts them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, rep: usize, c: &Check) {
        self.attempted += 1;
        if !c.ok {
            self.failed += 1;
            println!("FAIL rep {rep}: {}: {}", c.name, c.detail);
        }
    }
}

/// Runs the benchmark and prints its report. `None` when the peak RSS
/// cannot be read.
fn run(args: &Args) -> Option<()> {
    let w = args.workload;
    println!(
        "simbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut runner = Runner::new(w, args.seed);
    let mut tally = Tally::default();

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Set-up is timed first, in a fresh process: between reps its time
    // depends on what the previous rep left in the allocator.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| runner.setup().as_secs_f64())
        .collect();
    let mut plain: Vec<Rep> = vec![runner.rep(false)];
    // Read after exactly one rep, so it is this workload's peak whatever
    // the number of reps.
    let peak_rss_mb = peak_rss_kb()? as f64 / 1024.0;
    let mut traced: Vec<Rep> = Vec::new();
    while plain.len() < MIN_REPS || start.elapsed() < budget {
        if args.trace {
            traced.push(runner.rep(true));
        }
        plain.push(runner.rep(false));
    }

    // Checks: each rep's own, plus its fingerprint against the first rep's.
    let first = &plain[0].fingerprint;
    for (i, rep) in plain.iter().chain(&traced).enumerate() {
        println!(
            "rep {i:>2} {} wall {:.4} s  sim {:.3} s",
            if i < plain.len() {
                "untraced"
            } else {
                "traced  "
            },
            rep.wall.as_secs_f64(),
            rep.sim.sim_s
        );
        for c in &rep.checks {
            tally.record(i, c);
        }
        tally.record(i, &fingerprint_check(first, &rep.fingerprint));
    }
    let fp: Vec<String> = first.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "fingerprint {} seed={}: {}",
        w.name(),
        args.seed,
        fp.join(" ")
    );

    let walls: Vec<f64> = plain.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall_s = median(&walls);
    // Median over reps of some amount of simulated work per host second.
    let per_host_s = |work: &dyn Fn(&Rep) -> f64| -> f64 {
        let rates: Vec<f64> = plain
            .iter()
            .map(|r| work(r) / r.wall.as_secs_f64())
            .collect();
        median(&rates)
    };
    let sim_speed = per_host_s(&|r| r.sim.sim_s);
    let sim = &plain[0].sim;

    let mut report = Report::default();
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall.as_secs_f64()).collect();
        report.add("wall_s", "s", wall_s);
        report.add("sim_speed", "sim-s/s", sim_speed);
        layer_metrics(&mut report, &plain[0], &traced, wall_s);
        report.add("trace_overhead_s", "s", median(&traced_walls) - wall_s);
        let (probes, probe_check) = probes::run_all(args.seed);
        tally.record(0, &probe_check);
        for p in probes {
            report.add(p.name, p.unit, p.value);
        }
    } else {
        report.add(
            "ipc_per_s",
            "ops/s",
            per_host_s(&|r| r.counts["kernel.ipc_ops"] as f64),
        );
        report.add("setup_s", "s", median(&setups));
        report.add("peak_rss_mb", "MiB", peak_rss_mb);
        report.add("sim_recovery_ms", "sim-ms", sim.recovery_ms);
        // Printed here, reported as per-layer metrics of the traced run.
        report.note("wall_s", "s", wall_s);
        report.note("sim_speed", "sim-s/s", sim_speed);
        if let Some(g) = sim.goodput_mbs {
            report.note("sim_goodput_mbs", "MB/sim-s", g);
        }
        if let Some(p) = sim.p99_ms {
            report.note("sim_p99_ms", "sim-ms", p);
        }
    }
    let fail_frac = tally.failed as f64 / tally.attempted as f64;
    report.note("fail_frac", "ratio", fail_frac);
    report.print();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        report.json()
    );
    Some(())
}

/// Compares a rep's fingerprint with the first rep's, naming the first
/// entry that differs.
fn fingerprint_check(first: &[(String, String)], this: &[(String, String)]) -> Check {
    let diff = first
        .iter()
        .zip(this)
        .find(|(a, b)| a != b)
        .map(|((k, a), (_, b))| format!("{k} differs from rep 0: {b} != {a}"));
    Check {
        name: "fingerprint",
        ok: diff.is_none() && first.len() == this.len(),
        detail: diff.unwrap_or_else(|| "entry count differs from rep 0".to_string()),
    }
}

/// The per-layer metrics of a traced run: span medians over the traced
/// reps, and the exact work counts (identical in every rep).
fn layer_metrics(report: &mut Report, rep: &Rep, traced: &[Rep], wall_s: f64) {
    let med = |f: &dyn Fn(&Rep) -> Duration| -> f64 {
        median(
            &traced
                .iter()
                .map(|r| f(r).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let slices: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.spans.slices.iter().map(|d| d.as_secs_f64()))
        .collect();
    let kills: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.spans.kills.iter().map(|d| d.as_secs_f64()))
        .collect();
    report.add("core.os.run_for_s", "s", med(&|r| r.spans.run_for));
    report.add("core.os.slice_p50_ms", "ms", quantile(&slices, 0.50) * 1e3);
    report.add("core.os.slice_p99_ms", "ms", quantile(&slices, 0.99) * 1e3);
    report.add("core.os.kill_us", "us", median(&kills) * 1e6);
    report.add("core.apps.self_s", "s", med(&|r| r.spans.app_self));
    report.add("core.campaign_s", "s", med(&|r| r.spans.campaign));
    report.add("simcore.obs.fold_ms", "ms", med(&|r| r.spans.fold) * 1e3);
    report.add("simcore.digest_ms", "ms", med(&|r| r.spans.digest) * 1e3);
    for (name, v) in &rep.counts {
        let unit = if name.ends_with("_bytes") {
            "bytes"
        } else {
            "count"
        };
        report.add(name, unit, *v as f64);
    }
    report.add("sim_s", "sim-s", rep.sim.sim_s);
    let ipc_ops = rep.counts["kernel.ipc_ops"].max(1) as f64;
    report.add("kernel.host_ns_per_ipc", "ns", wall_s * 1e9 / ipc_ops);
    report.add(
        "sim_goodput_mbs",
        "MB/sim-s",
        rep.sim.goodput_mbs.unwrap_or(0.0),
    );
    report.add("sim_p99_ms", "sim-ms", rep.sim.p99_ms.unwrap_or(0.0));
}

/// Named metrics in print order. Notes are printed but left out of the
/// JSON line.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        // JSON has no NaN or infinity.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, unit, value));
    }

    fn note(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.notes.push((name, unit, value));
    }

    fn print(&self) {
        for (name, unit, value) in self.notes.iter().chain(&self.metrics) {
            println!("{name:<28} {value:>16} {unit}");
        }
    }

    fn json(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Median of `xs`; 0 when empty.
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation; 0 when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// This process's peak resident set size (`VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
