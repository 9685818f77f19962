//! Driver-level integration tests: each driver runs as a real process
//! against its device model, driven by a probe client speaking the wire
//! protocols.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status, reply_ack, tag_request};
use phoenix_drivers::libdriver::{Driver, FaultPort};
use phoenix_drivers::proto::{bdev, cdev, drv, eth, status};
use phoenix_drivers::{
    AudioDriver, DiskDriver, Dp8390Driver, PrinterDriver, RamDiskDriver, Rtl8139Driver,
};
use phoenix_fault::{encode, Instr};
use phoenix_hw::bus::{Bus, WireConfig};
use phoenix_hw::disk::{synth_sector, DiskDevice, SECTOR};
use phoenix_hw::dp8390::{Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::{Rtl8139, Rtl8139Config};
use phoenix_hw::{AudioDac, PeerCtx, Printer, RemotePeer};
use phoenix_kernel::memory::GrantAccess;
use phoenix_kernel::privileges::{IpcFilter, KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{DeviceId, Endpoint, Message};

type Hook = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Probe {
    hook: Hook,
}
impl Process for Probe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        (self.hook)(ctx, &event);
    }
}

const DEV: DeviceId = DeviceId(1);
const IRQ: u8 = 5;

fn sata_rig(sectors: u64, seed: u64) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(sectors, seed)));
    let drv_ep = sys.spawn_boot(
        "blk.sata",
        // The real registration grants block drivers SafeCopy on top of
        // the baseline (they serve reads through client grants).
        Privileges::driver(DEV, IRQ).with_calls([
            KernelCall::Devio,
            KernelCall::IrqCtl,
            KernelCall::IommuMap,
            KernelCall::SafeCopy,
        ]),
        Box::new(Driver::new(DiskDriver::sata(DEV, IRQ, FaultPort::new()))),
    );
    (sys, bus, drv_ep)
}

#[test]
fn block_driver_serves_reads_through_grants() {
    let (mut sys, mut bus, drv_ep) = sata_rig(128, 42);
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = got.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let g = ctx
                        .grant_create(drv_ep, 0, 2 * SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 7)
                            .with_param(1, 2)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    assert_eq!(reply.mtype, bdev::REPLY);
                    assert_eq!(reply.param(0), status::OK);
                    assert_eq!(reply.param(1), 2 * SECTOR as u64);
                    *g2.borrow_mut() = ctx.mem_read(0, 2 * SECTOR).unwrap();
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    let data = got.borrow();
    assert_eq!(&data[..SECTOR], synth_sector(42, 7).as_slice());
    assert_eq!(&data[SECTOR..], synth_sector(42, 8).as_slice());
}

#[test]
fn block_driver_rejects_bad_grant_and_busy_overlap() {
    let (mut sys, mut bus, drv_ep) = sata_rig(128, 1);
    let replies: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = replies.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    // Two overlapping requests: the second sees EAGAIN.
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 0)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 1)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    let first_ok = reply.param(0) == status::OK
                        && r2.borrow().iter().all(|&r| r != status::OK);
                    r2.borrow_mut().push(reply.param(0));
                    if first_ok {
                        // Driver idle again: a WRITE whose grant denies the
                        // driver read access must fail with EINVAL.
                        let wo = ctx
                            .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                            .expect("grant");
                        let _ = ctx.sendrec(
                            drv_ep,
                            Message::new(bdev::WRITE)
                                .with_param(0, 2)
                                .with_param(1, 1)
                                .with_param(2, u64::from(wo.0)),
                        );
                    }
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    let rs = replies.borrow();
    assert!(rs.contains(&status::EAGAIN), "overlap rejected: {rs:?}");
    assert!(
        rs.contains(&status::EINVAL),
        "write via write-only grant rejected: {rs:?}"
    );
    assert!(rs.contains(&status::OK), "first read served: {rs:?}");
}

#[test]
fn block_driver_panics_on_out_of_range_request() {
    // The driver's own VM-validated consistency check (lba+count beyond
    // capacity) fires as an internal panic — defect class 1.
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 1000) // way past capacity
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    assert!(!sys.is_live(drv_ep), "driver died of its own sanity check");
    assert!(sys.trace().find("consistency check failed").is_some());
}

#[test]
fn driver_answers_heartbeats_with_echoed_nonce() {
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    let pongs: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let p2 = pongs.clone();
    sys.spawn_boot(
        "rs",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.send(drv_ep, Message::new(drv::HB_PING).with_param(0, 777));
                }
                ProcEvent::Message(m) if m.mtype == drv::HB_PONG => {
                    p2.borrow_mut().push(m.param(0));
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    assert_eq!(pongs.borrow().as_slice(), &[777]);
}

#[test]
fn driver_exits_cleanly_on_sigterm() {
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    sys.run_until_idle(&mut bus, 100);
    sys.kill_by_user(drv_ep, phoenix_kernel::types::Signal::Term);
    sys.run_until_idle(&mut bus, 100);
    assert!(
        !sys.is_live(drv_ep),
        "SIGTERM triggers the libdriver clean exit"
    );
}

#[test]
fn ramdisk_driver_round_trips_without_hardware() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let region = RamDiskDriver::region(8);
    let mut privs = Privileges::server();
    privs.address_space = 256 * 1024;
    let drv_ep = sys.spawn_boot(
        "blk.ram",
        privs,
        Box::new(Driver::new(RamDiskDriver::new(
            region.clone(),
            FaultPort::new(),
        ))),
    );
    let done = Rc::new(RefCell::new(false));
    let d2 = done.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.mem_write(0, &vec![0xEE; SECTOR]).unwrap();
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Read)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::WRITE)
                            .with_param(0, 3)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    assert_eq!(reply.param(0), status::OK);
                    *d2.borrow_mut() = true;
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 200);
    assert!(*done.borrow());
    assert_eq!(&region.borrow()[3 * SECTOR..3 * SECTOR + 4], &[0xEE; 4]);
}

/// Echo peer: reflects every frame back to the host.
struct Echo;
impl RemotePeer for Echo {
    fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]) {
        ctx.send_to_host(frame.to_vec());
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn eth_rig(dp: bool) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let fp = FaultPort::new();
    let drv_ep = if dp {
        bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
        sys.spawn_boot(
            "eth.dp8390",
            // Net drivers may push received frames to their client.
            Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
            Box::new(Driver::new(Dp8390Driver::new(DEV, IRQ, fp))),
        )
    } else {
        bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
        sys.spawn_boot(
            "eth.rtl8139",
            Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
            Box::new(Driver::new(Rtl8139Driver::new(DEV, IRQ, fp))),
        )
    };
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Echo));
    (sys, bus, drv_ep)
}

fn eth_echo_scenario(dp: bool) {
    let (mut sys, mut bus, drv_ep) = eth_rig(dp);
    let received: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = received.clone();
    sys.spawn_boot(
        "inet",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::INIT));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } if reply.mtype == eth::INIT_REPLY => {
                    assert_eq!(reply.param(0), status::OK);
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(eth::WRITE).with_data(b"hello ethernet".to_vec()),
                    );
                }
                ProcEvent::Message(m) if m.mtype == eth::RECV => {
                    r2.borrow_mut().push(m.data.clone());
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 2000);
    assert_eq!(
        received.borrow().as_slice(),
        &[b"hello ethernet".to_vec()],
        "echoed frame delivered through the rx path"
    );
}

#[test]
fn rtl8139_driver_echo_roundtrip() {
    eth_echo_scenario(false);
}

#[test]
fn dp8390_driver_echo_roundtrip() {
    eth_echo_scenario(true);
}

#[test]
fn mutated_rx_path_kills_the_driver_with_an_exception() {
    // Overwrite the first instructions with a wild load: the next
    // received frame traps the driver — defect class 2, exactly what the
    // campaign measures.
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let fp = FaultPort::new();
    bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Echo));
    let drv_ep = sys.spawn_boot(
        "eth.dp8390",
        Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
        Box::new(Driver::new(Dp8390Driver::new(DEV, IRQ, fp.clone()))),
    );
    sys.spawn_boot(
        "inet",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::INIT));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } if reply.mtype == eth::INIT_REPLY => {
                    // Delay the transmit so the harness can mutate the
                    // driver's code before the echo comes back.
                    let _ = ctx.set_alarm(phoenix_simcore::time::SimDuration::from_millis(10), 0);
                }
                ProcEvent::Alarm { .. } => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::WRITE).with_data(vec![1; 64]));
                }
                _ => {}
            }),
        }),
    );
    // Run past INIT but not past the delayed WRITE.
    sys.run_until(&mut bus, phoenix_simcore::time::SimTime::from_micros(5_000));
    let code = fp.code_of("eth.dp8390").expect("driver published its code");
    code.borrow_mut()[0] = encode(Instr::MovImm(1, 0xFFFF));
    code.borrow_mut()[1] = encode(Instr::LoadB(0, 1, 0xFFFF));
    sys.run_until(
        &mut bus,
        phoenix_simcore::time::SimTime::from_micros(100_000),
    );
    assert!(
        !sys.is_live(drv_ep),
        "rx of the echoed frame trapped the driver"
    );
    assert!(sys.trace().find("MmuFault").is_some() || sys.trace().find("died").is_some());
}

/// A stream-driver rig: the printer (1 KB/s, 4 KB FIFO) or the audio DAC,
/// optionally checkpointed against a stand-in data store that has no
/// snapshot on record and acknowledges every save.
fn stream_rig(audio: bool, ckpt: bool) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let device: Box<dyn phoenix_hw::Device> = if audio {
        Box::new(AudioDac::new(176_400))
    } else {
        Box::new(Printer::new(1024))
    };
    bus.add_device(DEV, IRQ, device);
    let ds = sys.spawn_boot(
        "ds",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(|ctx, ev| {
                if let ProcEvent::Request { call, msg } = ev {
                    let reply = match msg.mtype {
                        ckpt::RESTORE => {
                            Message::new(ckpt::RESTORE_REPLY).with_param(0, ckpt_status::NOT_FOUND)
                        }
                        _ => Message::new(ckpt::SAVE_REPLY).with_param(0, ckpt_status::OK),
                    };
                    let _ = ctx.reply(*call, reply);
                }
            }),
        }),
    );
    let privs = Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::AllowAll);
    let fp = FaultPort::new();
    let drv: Box<dyn Process> = match (audio, ckpt) {
        (false, false) => Box::new(Driver::new(PrinterDriver::new(DEV, IRQ, fp))),
        (false, true) => Box::new(Driver::new(
            PrinterDriver::new(DEV, IRQ, fp).with_checkpointing(ds),
        )),
        (true, false) => Box::new(Driver::new(AudioDriver::new(DEV, IRQ, fp))),
        (true, true) => Box::new(Driver::new(
            AudioDriver::new(DEV, IRQ, fp).with_checkpointing(ds),
        )),
    };
    let name = if audio { "chr.audio" } else { "chr.printer" };
    let drv_ep = sys.spawn_boot(name, privs, drv);
    (sys, bus, drv_ep)
}

/// Sends `writes` to the driver one at a time (each after the previous
/// reply) and returns the replies.
fn stream_replies(
    sys: &mut System,
    bus: &mut Bus,
    drv_ep: Endpoint,
    writes: Vec<Message>,
) -> Vec<Message> {
    let replies: Rc<RefCell<Vec<Message>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = replies.clone();
    let mut queue = writes.into_iter();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                match ev {
                    ProcEvent::Start => {}
                    ProcEvent::Reply {
                        result: Ok(reply), ..
                    } => r2.borrow_mut().push(reply.clone()),
                    _ => return,
                }
                if let Some(msg) = queue.next() {
                    let _ = ctx.sendrec(drv_ep, msg);
                }
            }),
        }),
    );
    sys.run_until_idle(bus, 2000);
    replies.take()
}

#[test]
fn printer_driver_applies_backpressure() {
    let write = |n: usize| Message::new(cdev::WRITE).with_data(vec![b'x'; n]);
    for audio in [false, true] {
        let (mut sys, mut bus, drv_ep) = stream_rig(audio, false);
        // 6 KB into the printer's 4 KB FIFO: the driver must truncate.
        // The DAC queues the whole block, up to 64 KiB.
        let mut writes = vec![write(6144), write(0)];
        if audio {
            writes.push(write(65_537));
        }
        let got = stream_replies(&mut sys, &mut bus, drv_ep, writes);
        assert_eq!(got.len(), 2 + usize::from(audio), "audio={audio}");
        assert_eq!(got[0].param(0), status::OK);
        let acc = got[0].param(1);
        if audio {
            assert_eq!(acc, 6144, "whole-block acceptance");
        } else {
            assert!(acc > 0 && acc <= 4096, "partial acceptance: {acc}");
        }
        assert_eq!(
            got[1].param(0),
            status::EINVAL,
            "empty write, audio={audio}"
        );
        if audio {
            assert_eq!(got[2].param(0), status::EINVAL, "over-64 KiB write");
        }

        // Checkpointed: a logged resend of an already-committed offset is
        // acked as a duplicate, without a second save.
        let (mut sys, mut bus, drv_ep) = stream_rig(audio, true);
        let logged = |seq: u64| tag_request(write(100), seq, 0);
        let got = stream_replies(&mut sys, &mut bus, drv_ep, vec![logged(1), logged(2)]);
        assert_eq!(got.len(), 2, "audio={audio}");
        for (reply, seq) in got.iter().zip(1..) {
            assert_eq!(reply.param(0), status::OK, "audio={audio} seq={seq}");
            assert_eq!(reply.param(1), 100);
            assert_eq!(reply_ack(reply), Some((100, seq)));
        }
        assert_eq!(
            sys.metrics().counter("ckpt.dedup_bytes"),
            100,
            "audio={audio}"
        );
        assert_eq!(sys.metrics().counter("ckpt.saves"), 1, "audio={audio}");
    }
}
