//! Layer probes: small loops that time one public function of one layer,
//! outside any workload. Each probe runs [`BATCHES`] timed batches and
//! reports the median host time per call.
//!
//! Together they cover the eight primitives of `crates/bench/benches/
//! microbench.rs` (sendrec round trip, 4 KiB safecopy, policy eval and
//! parse, VM rx, mutation, assembler, kill+recover), so those numbers
//! land in the benchmark's output.

use std::hint::black_box;
use std::time::{Duration, Instant};

use phoenix::drivers::routines::{net_rx, with_cold_section};
use phoenix::fault::isa::{Asm, Instr};
use phoenix::fault::mutate::apply_random_fault;
use phoenix::fault::vm::Vm;
use phoenix::hw::disk::DiskModel;
use phoenix::kernel::memory::{GrantAccess, MemoryPool};
use phoenix::kernel::platform::NullPlatform;
use phoenix::kernel::privileges::Privileges;
use phoenix::kernel::process::{ProcEvent, Process};
use phoenix::kernel::system::{Ctx, System, SystemConfig};
use phoenix::kernel::types::{Endpoint, Message};
use phoenix::servers::policy::{reason, PolicyInput, PolicyScript};
use phoenix::simcore::event::EventQueue;
use phoenix::simcore::metrics::MetricsRegistry;
use phoenix::simcore::rng::SimRng;
use phoenix::simcore::time::{SimDuration, SimTime};
use phoenix::simcore::trace::{TraceEvent, TraceLevel, TraceRing};
use phoenix::{names, NicKind, Os};

use crate::workloads::Check;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// One probe result: per-layer metric name, unit and median value.
pub struct Probe {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median over the batches.
    pub value: f64,
}

/// Runs every probe with inputs drawn from `seed`. The kill+recover
/// probe also checks that every kill it times recovered.
pub fn run_all(seed: u64) -> (Vec<Probe>, Check) {
    let mut rng = SimRng::new(seed ^ 0x5052_4f42); // "PROB"
    let mut unrecovered = 0;
    let kill_recover_ns = kill_recover(seed, &mut unrecovered);
    let probes = vec![
        ns("simcore.event.op_ns.p64", event_op(&mut rng, 64)),
        ns("simcore.event.op_ns.p16k", event_op(&mut rng, 16 * 1024)),
        ns("simcore.event.cancel_ns", event_cancel(&mut rng)),
        ns("simcore.metrics.incr_ns", metrics_incr()),
        ns("simcore.trace.emit_ns", trace_emit()),
        ns("kernel.ipc.roundtrip_ns", ipc_roundtrip()),
        ns("kernel.safecopy.4k_ns", safecopy(4 * 1024, 20_000)),
        ns("kernel.safecopy.128k_ns", safecopy(128 * 1024, 1_000)),
        ns("hw.disk.read_sector_ns", disk_read_sector(&mut rng, seed)),
        ns("fault.vm.net_rx_ns", vm_net_rx()),
        ns("fault.mutate_ns", mutate(&mut rng)),
        ns("fault.asm_ns", assemble()),
        ns("servers.policy.eval_ns", policy_eval()),
        ns("servers.policy.parse_ns", policy_parse()),
        Probe {
            name: "core.os.kill_recover_us",
            unit: "us",
            value: kill_recover_ns * 1e-3,
        },
    ];
    let recovered = Check {
        name: "probe_kill_recover",
        ok: unrecovered == 0,
        detail: format!("{unrecovered} of {BATCHES} probe kills did not recover in 100 ms"),
    };
    (probes, recovered)
}

fn ns(name: &'static str, value: f64) -> Probe {
    Probe {
        name,
        unit: "ns",
        value,
    }
}

/// Median over [`BATCHES`] of `batch()`'s host time divided by `ops`,
/// in ns. `batch` does its own untimed preparation and returns the time
/// of the measured part.
fn median_ns(ops: u64, mut batch: impl FnMut() -> Duration) -> f64 {
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / ops as f64)
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[BATCHES / 2]
}

/// Times `f` once.
fn time(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn random_delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_micros(rng.range_u64(1..1_000_000))
}

/// `pop` + `schedule_after` with `pending` events in the queue.
fn event_op(rng: &mut SimRng, pending: usize) -> f64 {
    const OPS: usize = 100_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        q.schedule_after(random_delay(rng), i as u64);
    }
    let delays: Vec<SimDuration> = (0..OPS).map(|_| random_delay(rng)).collect();
    median_ns(OPS as u64, || {
        time(|| {
            for &d in &delays {
                let (_, e) = q.pop().expect("queue never drains");
                q.schedule_after(d, black_box(e));
            }
        })
    })
}

/// `cancel` of a pending event, 1k other events pending.
fn event_cancel(rng: &mut SimRng) -> f64 {
    const OPS: usize = 20_000;
    median_ns(OPS as u64, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1024 {
            q.schedule_after(random_delay(rng), i);
        }
        let ids: Vec<_> = (0..OPS as u64)
            .map(|i| q.schedule_after(random_delay(rng), i))
            .collect();
        time(|| {
            for id in ids {
                black_box(q.cancel(id));
            }
        })
    })
}

/// `incr` of an existing counter in a registry holding the kernel's IPC
/// and IRQ counters.
fn metrics_incr() -> f64 {
    const OPS: usize = 200_000;
    let mut m = MetricsRegistry::new();
    for name in [
        "ipc.sends",
        "ipc.sendrecs",
        "ipc.replies",
        "ipc.notifies",
        "irq.delivered",
        "sentinel.mfs.scrubs",
    ] {
        m.incr(name);
    }
    median_ns(OPS as u64, || {
        time(|| {
            for _ in 0..OPS {
                m.incr(black_box("ipc.sendrecs"));
            }
        })
    })
}

/// `emit_event` into a default-capacity ring, past capacity so eviction
/// is included.
fn trace_emit() -> f64 {
    const OPS: usize = 100_000;
    let mut ring = TraceRing::default();
    median_ns(OPS as u64, || {
        let events: Vec<TraceEvent> = (0..OPS as u64)
            .map(|i| {
                TraceEvent::new(
                    SimTime::ZERO + SimDuration::from_micros(i),
                    TraceLevel::Info,
                    "bench",
                    "request done",
                )
                .with_field("ev", "request")
            })
            .collect();
        time(|| {
            for e in events {
                ring.emit_event(e);
            }
        })
    })
}

/// Replies to every request.
struct Echo;

impl Process for Echo {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        if let ProcEvent::Request { call, msg } = ev {
            let _ = ctx.reply(call, Message::new(msg.mtype + 1));
        }
    }
}

/// Issues `rounds` sendrecs to `peer`, one after another.
struct Client {
    peer: Endpoint,
    rounds: u32,
}

impl Process for Client {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                let _ = ctx.sendrec(self.peer, Message::new(0));
            }
            ProcEvent::Reply { .. } if self.rounds > 0 => {
                self.rounds -= 1;
                let _ = ctx.sendrec(self.peer, Message::new(0));
            }
            _ => {}
        }
    }
}

/// One sendrec + reply round trip through the kernel's event loop.
fn ipc_roundtrip() -> f64 {
    const ROUNDS: u32 = 10_000;
    median_ns(u64::from(ROUNDS), || {
        let mut sys = System::new(SystemConfig::default());
        let echo = sys.spawn_boot("echo", Privileges::server(), Box::new(Echo));
        let client = Client {
            peer: echo,
            rounds: ROUNDS,
        };
        sys.spawn_boot("client", Privileges::server(), Box::new(client));
        time(|| {
            sys.run_until_idle(&mut NullPlatform, 1_000_000);
        })
    })
}

/// One grant-checked `safecopy_from` of `len` bytes between two address
/// spaces.
fn safecopy(len: usize, ops: u64) -> f64 {
    let granter = Endpoint::new(1, 0);
    let caller = Endpoint::new(2, 0);
    let mut pool = MemoryPool::new();
    pool.attach(granter, 256 * 1024);
    pool.attach(caller, 256 * 1024);
    let grant = pool
        .grant_create(granter, caller, 0, len, GrantAccess::Read)
        .expect("grant fits the granter's space");
    median_ns(ops, || {
        time(|| {
            for _ in 0..ops {
                pool.safecopy_from(caller, granter, grant, 0, 0, black_box(len))
                    .expect("copy within both spaces");
            }
        })
    })
}

/// `DiskModel::read` of an unwritten (synthesized) sector.
fn disk_read_sector(rng: &mut SimRng, seed: u64) -> f64 {
    const OPS: usize = 20_000;
    const SECTORS: u64 = 1 << 20;
    let disk = DiskModel::new(SECTORS, seed);
    let lbas: Vec<u64> = (0..OPS).map(|_| rng.range_u64(0..SECTORS)).collect();
    median_ns(OPS as u64, || {
        time(|| {
            for &lba in &lbas {
                black_box(disk.read(lba));
            }
        })
    })
}

/// The RTL8139 driver's rx routine on the fault VM, one full-size frame.
fn vm_net_rx() -> f64 {
    const OPS: usize = 2_000;
    let program = net_rx();
    median_ns(OPS as u64, || {
        let mut vms: Vec<Vm> = (0..OPS)
            .map(|_| {
                let mut vm = Vm::new(2048);
                vm.mem[0] = 1;
                vm.regs[0] = 1514;
                vm.regs[1] = 64;
                vm
            })
            .collect();
        time(|| {
            for vm in &mut vms {
                black_box(vm.run(&program, 50_000));
            }
        })
    })
}

/// One random §7.2 binary mutation of a padded driver image.
fn mutate(rng: &mut SimRng) -> f64 {
    const OPS: usize = 500;
    let image = with_cold_section(net_rx(), 30);
    median_ns(OPS as u64, || {
        let mut images = vec![image.clone(); OPS];
        time(|| {
            for img in &mut images {
                black_box(apply_random_fault(img, rng));
            }
        })
    })
}

/// Assembling a small counting loop.
fn assemble() -> f64 {
    const OPS: usize = 20_000;
    median_ns(OPS as u64, || {
        time(|| {
            for _ in 0..OPS {
                let mut a = Asm::new();
                let top = a.label();
                let done = a.label();
                a.emit(Instr::MovImm(2, 0));
                a.bind(top);
                a.jge_to(3, 0, done);
                a.emit(Instr::AddImm(3, 1));
                a.jmp_to(top);
                a.bind(done);
                a.emit(Instr::Halt);
                black_box(a.finish());
            }
        })
    })
}

/// One evaluation of the generic recovery policy (the per-failure
/// decision).
fn policy_eval() -> f64 {
    const OPS: usize = 20_000;
    let script = PolicyScript::generic();
    let input = PolicyInput {
        component: names::ETH_RTL8139.to_string(),
        reason: reason::EXCEPTION,
        repetition: 3,
        params: vec!["ops@example.org".to_string()],
        backoff_base: None,
        backoff_cap: None,
    };
    median_ns(OPS as u64, || {
        time(|| {
            for _ in 0..OPS {
                black_box(script.run(black_box(&input)));
            }
        })
    })
}

/// Parsing the generic recovery policy.
fn policy_parse() -> f64 {
    const OPS: usize = 5_000;
    median_ns(OPS as u64, || {
        time(|| {
            for _ in 0..OPS {
                black_box(PolicyScript::generic());
            }
        })
    })
}

/// `kill_by_user` of the RTL8139 driver on a booted machine, then 100 ms
/// of virtual time in which RS restarts it; in ns. Counts the kills after
/// which the driver was not back up in `unrecovered`.
fn kill_recover(seed: u64, unrecovered: &mut u32) -> f64 {
    median_ns(1, || {
        let mut os = Os::builder()
            .seed(seed)
            .with_network(NicKind::Rtl8139)
            .boot();
        let spent = time(|| {
            os.kill_by_user(names::ETH_RTL8139);
            os.run_for(SimDuration::from_millis(100));
        });
        if !os.is_up(names::ETH_RTL8139) {
            *unrecovered += 1;
        }
        spent
    })
}
