//! Ablation: heartbeat period vs. detection latency and overhead (§5.1).
//!
//! "Failing to respond N consecutive times causes recovery to be
//! initiated... To prevent bogging down the system status requests and the
//! consequent replies are sent using nonblocking messages." This sweep
//! quantifies the trade-off: short periods detect a stuck driver quickly
//! but cost more messages; long periods are cheap but leave the system
//! limping longer.

use phoenix::os::{names, NicKind, Os};
use phoenix_bench::print_table;
use phoenix_simcore::time::SimDuration;

fn main() {
    println!("ablation — heartbeat period vs. detection latency (stuck driver)\n");
    let misses = 2;
    let mut rows = Vec::new();
    for period_ms in [100u64, 250, 500, 1000, 2000, 4000] {
        let period = SimDuration::from_millis(period_ms);
        let mut os = Os::builder()
            .seed(2007)
            .with_network(NicKind::Rtl8139)
            .heartbeat(period, misses)
            .boot();
        // Measure the steady-state heartbeat message cost over 10 s.
        let sends_before = os.metrics().counter("ipc.sends");
        os.run_for(SimDuration::from_secs(10));
        let hb_msgs_per_s = (os.metrics().counter("ipc.sends") - sends_before) as f64 / 10.0;

        // Wedge the driver in an infinite loop. libdriver answers
        // heartbeat pings before the hot path, so the wedge needs
        // datagram traffic to trigger.
        let stuck_at = os.now();
        os.wedge_driver_in_loop(names::ETH_RTL8139);
        // Traffic to trigger the loop: one datagram via INET.
        let inet = os.endpoint(names::INET).unwrap();
        let status = std::rc::Rc::new(std::cell::RefCell::new(phoenix::apps::UdpStatus::default()));
        os.spawn_app(
            "poke",
            Box::new(phoenix::apps::UdpPing::new(
                inet,
                1_000,
                SimDuration::from_millis(50),
                status,
            )),
        );
        let old = os.endpoint(names::ETH_RTL8139).unwrap();
        let mut detected_after = None;
        for _ in 0..400 {
            os.run_for(SimDuration::from_millis(100));
            if os.endpoint(names::ETH_RTL8139) != Some(old) {
                detected_after = Some(os.now().since(stuck_at));
                break;
            }
        }
        rows.push(vec![
            format!("{period}"),
            format!("{misses}"),
            detected_after.map_or("not detected".into(), |d| {
                format!("{:.2}s", d.as_secs_f64())
            }),
            format!("{hb_msgs_per_s:.1}"),
        ]);
    }
    print_table(
        &[
            "period",
            "misses",
            "detection latency",
            "hb msgs/s (steady)",
        ],
        &rows,
    );
    println!("\nexpected: latency ≈ (misses+1) × period; message cost ∝ 1/period");
}
