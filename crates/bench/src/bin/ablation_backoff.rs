//! Ablation: restart policy under a crash loop (§5.2, Fig. 2).
//!
//! A wedged card makes every restarted driver panic during
//! initialization. The direct-restart policy hammers the system with
//! restart attempts; the Fig. 2 generic policy's binary exponential
//! backoff "prevents bogging down the system in the event of repeated
//! failures"; a give-up policy stops after a threshold and raises an
//! alert.

use phoenix::hw::rtl8139::Rtl8139;
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_bench::print_table;
use phoenix_servers::policy::PolicyScript;
use phoenix_simcore::time::SimDuration;

fn run_with(policy_name: &str, policy: PolicyScript) -> Vec<String> {
    let mut os = Os::builder()
        .seed(2007)
        .with_network(NicKind::Rtl8139)
        .service_policy(names::ETH_RTL8139, Some(policy), vec![])
        .boot();
    {
        let nic: &mut Rtl8139 = os.device_mut(hwmap::NIC).unwrap();
        nic.force_wedge();
    }
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(60));
    let attempts = os.metrics().counter("rs.defect.exit") + 1; // +1: the kill
    vec![
        policy_name.to_string(),
        attempts.to_string(),
        os.metrics().counter("rs.gave_up").to_string(),
        os.metrics().counter("rs.alerts").to_string(),
        if os.is_up(names::ETH_RTL8139) {
            "up (wrong!)"
        } else {
            "down"
        }
        .to_string(),
    ]
}

fn main() {
    println!("ablation — restart policy under a crash loop (wedged card, 60 s)\n");
    let giveup = PolicyScript::parse(
        "if repetition > 5 then\n alert \"giving up on $component\"\n give-up\nelse\n sleep backoff(1s)\n restart\nend\n",
    )
    .expect("policy parses");
    let rows = vec![
        run_with("direct restart", PolicyScript::direct_restart()),
        run_with("generic (Fig. 2, exp backoff)", PolicyScript::generic()),
        run_with("backoff + give-up after 5", giveup),
    ];
    print_table(
        &[
            "policy",
            "restart attempts",
            "gave up",
            "alerts",
            "final state",
        ],
        &rows,
    );
    println!("\nexpected: direct restart makes ~1 attempt per exec latency (thousands/min);");
    println!("backoff caps attempts logarithmically; give-up bounds them outright.");
}
