//! Character device drivers: printer, audio, and SCSI CD burner.
//!
//! These drivers cannot be transparently recovered (§6.3): "it is
//! impossible to tell whether data was lost" across a crash, so errors are
//! pushed to the application layer. The drivers themselves are ordinary
//! stateless request servers; what makes them special is what their
//! *clients* must do after a failure (reissue the print job, tolerate a
//! hiccup, or tell the user the disc is ruined).
//!
//! With the `phoenix-ckpt` subsystem enabled (`with_checkpointing`), the
//! stream drivers (printer, audio) and the input driver (keyboard)
//! escape that verdict: requests tagged with a write-ahead-log sequence
//! and stream offset are deduplicated against a consumed-progress
//! cursor, the cursor is checkpointed to the data store at quiescent
//! points, and a restarted incarnation lazily restores it before serving
//! its first request — making "how much of the stream was consumed"
//! decidable. The CD burner deliberately stays uncheckpointed: its side
//! effect (the laser) is external and unrepeatable, so a half-burned
//! disc remains the paper's irrecoverable case.

use std::marker::PhantomData;

use phoenix_ckpt::proto::{ack_reply, request_wal};
use phoenix_ckpt::{ConsumedCursor, DriverCkpt, RestoreEvent, SpareTail};
use phoenix_hw::chardev::{audio_regs, printer_regs, scsi_cmd, scsi_regs, scsi_status};
use phoenix_hw::uart::uart_regs;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, DeviceId, Endpoint, IpcError, IrqLine, Message};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::libdriver::{DriverLogic, FaultPort, GuardedRoutine};
use crate::proto::{cdev, drv, status};
use crate::routines;

/// Emits the timeline `replay` event the first time a restored driver
/// serves a logged request — the phase anchor between the episode's
/// publish and the client's byte-exact resumption.
fn emit_replay_event(ctx: &mut Ctx<'_>, ckpt: &mut DriverCkpt, offset: u64, dup_bytes: u64) {
    let Some((rid, span)) = ckpt.take_replay_tag() else {
        return;
    };
    let ev = ctx
        .event(
            TraceLevel::Info,
            "serving replayed log entries past restored watermark".to_string(),
        )
        .with_field("ev", "replay")
        .with_field("offset", offset)
        .with_field("dup_bytes", dup_bytes)
        .in_recovery(rid)
        .with_parent_opt(span);
    ctx.trace_event(ev);
}

/// Answers `call` with a bare `cdev::REPLY` carrying status `st`.
fn reply_status(ctx: &mut Ctx<'_>, call: CallId, st: u64) {
    let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, st));
}

/// Alarm token driving a warm spare's tail polls.
const TOK_TAIL: u64 = 0x7A11;

/// The dormant half of a hot-standby stream driver: spawned by RS beside
/// a healthy primary under the `standby.<name>` identity, it stays off
/// the device entirely — no IRQ registration, no fault-port publication,
/// no device init — and shadows the primary's checkpoint record through
/// sequence-gated tail polls. At `drv::PROMOTE` the host driver runs its
/// deferred device bring-up and adopts the tailed watermark, skipping
/// the cold path's execute + restore round-trips.
struct StandbyRole {
    tail: SpareTail,
    period: SimDuration,
    polling: bool,
}

impl StandbyRole {
    fn new(ds: Endpoint, key: &str) -> Self {
        StandbyRole {
            tail: SpareTail::new(ds, key),
            period: SimDuration::from_millis(100),
            polling: false,
        }
    }

    /// Handles `drv::STANDBY`: adopt RS's tail-poll period and start
    /// polling — the cadence stays a policy decision, not a driver one.
    // analyze:recovery-root
    fn on_standby(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let us = msg.param(0);
        if us > 0 {
            self.period = SimDuration::from_micros(us);
        }
        if !self.polling {
            self.polling = true;
            self.arm(ctx);
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.set_alarm(self.period, TOK_TAIL).is_err() {
            ctx.metrics().incr("ckpt.tail_alarm_failed");
            self.polling = false;
        }
    }

    /// Tail alarm tick: poll the store, then re-arm.
    // analyze:recovery-root
    fn on_alarm(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOK_TAIL || !self.polling {
            return;
        }
        self.tail.poll(ctx);
        self.arm(ctx);
    }
}

/// What one stream device adds to [`StreamDriver`]: its identity, its
/// bring-up, its write limit and footprint, and how bytes reach it.
pub trait StreamDevice: 'static {
    /// Checkpoint key and trace label (`"printer"`, `"audio"`).
    const KEY: &'static str;
    /// Largest WRITE payload served; longer ones are answered EINVAL.
    const MAX_WRITE: usize = usize::MAX;
    /// Fault-VM memory for a `len`-byte payload.
    fn vm_len(len: usize) -> usize;
    /// Device bring-up after the IRQ is enabled. Stays panic-free: it
    /// runs on the recovery path. The analyzer does not follow `D::`
    /// calls, so each non-empty impl is marked as a recovery root.
    fn bring_up(_ctx: &mut Ctx<'_>, _dev: DeviceId) {}
    /// Hands `data` to the device: `Some(bytes taken)`, possibly 0, or
    /// `None` when the device could not be driven (answered EIO).
    fn sink(ctx: &mut Ctx<'_>, dev: DeviceId, data: &[u8]) -> Option<usize>;
}

/// Printer: feeds the device FIFO, applying backpressure by accepting
/// only as many bytes as the FIFO has room for. The client (`lpd`) loops
/// until everything is accepted.
pub enum Printer {}

impl StreamDevice for Printer {
    const KEY: &'static str = "printer";

    fn vm_len(len: usize) -> usize {
        len.max(16) + 16
    }

    fn sink(ctx: &mut Ctx<'_>, dev: DeviceId, data: &[u8]) -> Option<usize> {
        let free = ctx.devio_read(dev, printer_regs::FIFO_FREE).unwrap_or(0) as usize;
        let take = data.len().min(free);
        if take > 0 {
            let _ = ctx.devio_write_block(dev, printer_regs::DATA, &data[..take]);
        }
        Some(take)
    }
}

/// Audio: DMA-stages each sample block into the DAC's queue, whole or
/// not at all.
pub enum Audio {}

impl StreamDevice for Audio {
    const KEY: &'static str = "audio";
    const MAX_WRITE: usize = 64 * 1024;

    fn vm_len(len: usize) -> usize {
        len + 16
    }

    // analyze:recovery-root
    fn bring_up(ctx: &mut Ctx<'_>, dev: DeviceId) {
        if ctx.iommu_map(dev, 0, 0, 64 * 1024).is_err() {
            ctx.metrics().incr("drv.iommu_map_failed");
        }
        if ctx.devio_write(dev, audio_regs::CTRL, 1).is_err() {
            ctx.metrics().incr("drv.device_init_failed");
        }
    }

    fn sink(ctx: &mut Ctx<'_>, dev: DeviceId, data: &[u8]) -> Option<usize> {
        let queued = ctx.mem_write(0, data).is_ok()
            && ctx.devio_write(dev, audio_regs::BUF_ADDR, 0).is_ok()
            && ctx
                .devio_write(dev, audio_regs::BUF_LEN, data.len() as u32)
                .is_ok()
            && ctx.devio_write(dev, audio_regs::START, 1).is_ok();
        queued.then_some(data.len())
    }
}

/// The printer driver.
pub type PrinterDriver = StreamDriver<Printer>;
/// The audio driver.
pub type AudioDriver = StreamDriver<Audio>;

/// A WRITE reply: OK if any byte was accepted (else EAGAIN — the client
/// retries), the accepted count, and the VM routine's payload byte-sum
/// `csum` echoed as `1 + sum` so the VFS sentinel can verify the driver
/// processed the payload it was sent.
fn write_reply(accepted: u64, csum: u32) -> Message {
    let st = if accepted > 0 {
        status::OK
    } else {
        status::EAGAIN
    };
    Message::new(cdev::REPLY)
        .with_param(0, st)
        .with_param(1, accepted)
        .with_param(2, 1 + u64::from(csum))
}

/// A stream driver (printer, audio): serves WRITEs into its device `D`,
/// optionally deduplicating write-ahead-logged requests against a
/// checkpointed consumed watermark, and optionally booting as a warm
/// spare.
pub struct StreamDriver<D> {
    dev: DeviceId,
    irq: IrqLine,
    routine: GuardedRoutine,
    fault_port: FaultPort,
    /// Checkpoint client; `None` = the paper's original error-push mode.
    ckpt: Option<DriverCkpt>,
    /// Bytes committed into the device (the consumed watermark).
    cursor: ConsumedCursor,
    /// Warm-spare state; `Some` while dormant, cleared at promotion.
    standby: Option<StandbyRole>,
    device: PhantomData<D>,
}

impl<D: StreamDevice> StreamDriver<D> {
    /// Creates the driver.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        StreamDriver {
            dev,
            irq,
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
            ckpt: None,
            cursor: ConsumedCursor::new(),
            standby: None,
            device: PhantomData,
        }
    }

    /// Enables checkpoint/replay support: the consumed watermark is
    /// snapshotted to the data store after every commit, and logged
    /// requests are deduplicated against it after a restart.
    pub fn with_checkpointing(mut self, ds: Endpoint) -> Self {
        self.ckpt = Some(DriverCkpt::new(ds, D::KEY));
        self
    }

    /// Configures this incarnation as a warm spare (implies
    /// checkpointing): it boots dormant — off the device — and goes live
    /// only on RS's promote message.
    pub fn standby(mut self, ds: Endpoint) -> Self {
        self = self.with_checkpointing(ds);
        self.standby = Some(StandbyRole::new(ds, D::KEY));
        self
    }

    /// Device bring-up, shared by a primary's init and a spare's
    /// promotion. Stays panic-free: it runs on the recovery path.
    fn go_live(&mut self, ctx: &mut Ctx<'_>) {
        // Under the primary name: a spare `standby.chr.printer` goes live
        // as `chr.printer`.
        let name = ctx.self_name();
        let name = name.strip_prefix("standby.").unwrap_or(name).to_string();
        self.fault_port.publish(&name, self.routine.live());
        if ctx.irq_enable(self.irq).is_err() {
            ctx.metrics().incr("drv.irq_enable_failed");
        }
        D::bring_up(ctx, self.dev);
    }

    /// Handles `drv::PROMOTE`: deferred device bring-up, fault-port
    /// publication under the primary name, and warm adoption of the
    /// tailed watermark — no restore round-trip is ever issued.
    // analyze:recovery-root
    fn promote(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some(role) = self.standby.take() else {
            return; // already live (duplicate promote)
        };
        // RS's recovery-episode tag, which the first served request
        // stamps on its `replay` timeline event.
        let rid = RecoveryId::from_wire(msg.param(0));
        let span = SpanId::from_wire(msg.param(1));
        if let Some(mark) = role.tail.watermark() {
            self.cursor.restore(mark);
        }
        if let Some(ckpt) = self.ckpt.as_mut() {
            ckpt.adopt_warm(role.tail.seq(), rid, span);
        }
        self.go_live(ctx);
        ctx.metrics().incr("drv.promotions");
        let ev = ctx
            .event(TraceLevel::Info, format!("{} standby went live", D::KEY))
            .with_field("ev", "promote_live")
            .with_field("seq", role.tail.seq())
            .in_recovery_opt(rid)
            .with_parent_opt(span);
        ctx.trace_event(ev);
    }

    /// Serves a validated WRITE (the fault point has already run);
    /// `csum` is the VM routine's payload byte-sum (see [`write_reply`]).
    fn serve_write(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message, csum: u32) {
        ctx.metrics().incr("cdev.writes");
        let wal = self.ckpt.as_ref().and_then(|_| request_wal(msg));
        let Some((seq, offset)) = wal else {
            // Legacy path: the device takes what it can; the client loops.
            let reply = match D::sink(ctx, self.dev, &msg.data) {
                Some(taken) => write_reply(taken as u64, csum),
                None => Message::new(cdev::REPLY).with_param(0, status::EIO),
            };
            let _ = ctx.reply(call, reply);
            return;
        };
        let plan = self.cursor.plan(offset, &msg.data);
        if plan.dup_bytes > 0 {
            ctx.metrics().add("ckpt.dedup_bytes", plan.dup_bytes);
        }
        if plan.gap_bytes > 0 {
            // Watermark lost (missing/corrupt snapshot): the caller's log
            // is authoritative — it only ever acks committed bytes.
            ctx.metrics().incr("ckpt.watermark_jumps");
        }
        let mut taken = 0;
        if !plan.fresh.is_empty() {
            let Some(n) = D::sink(ctx, self.dev, plan.fresh) else {
                let reply = Message::new(cdev::REPLY).with_param(0, status::EIO);
                let _ = ctx.reply(call, ack_reply(reply, self.cursor.committed(), seq));
                return;
            };
            taken = n as u64;
        }
        if taken > 0 {
            self.cursor.commit_at(plan.start, taken);
        }
        let consumed = self.cursor.committed();
        if let Some(ckpt) = self.ckpt.as_mut() {
            emit_replay_event(ctx, ckpt, offset, plan.dup_bytes);
            if taken > 0 {
                // Quiescent point: the commit is complete, ack not yet
                // sent — snapshot before acknowledging.
                ckpt.save(ctx, consumed.to_le_bytes().to_vec());
            }
        }
        let reply = write_reply(plan.dup_bytes + taken, csum);
        let _ = ctx.reply(call, ack_reply(reply, consumed, seq));
    }
}

impl<D: StreamDevice> DriverLogic for StreamDriver<D> {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.standby.is_some() {
            // Dormant spare: the primary owns the device — stay off it.
            ctx.trace(TraceLevel::Info, format!("{} standby dormant", D::KEY));
            return;
        }
        self.go_live(ctx);
        ctx.trace(TraceLevel::Info, format!("{} driver ready", D::KEY));
    }

    fn message(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        match msg.mtype {
            drv::STANDBY => {
                if let Some(role) = self.standby.as_mut() {
                    role.on_standby(ctx, msg);
                }
            }
            drv::PROMOTE => self.promote(ctx, msg),
            _ => {}
        }
    }

    fn alarm(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(role) = self.standby.as_mut() {
            role.on_alarm(ctx, token);
        }
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match msg.mtype {
            cdev::OPEN => reply_status(ctx, call, status::OK),
            cdev::WRITE => {
                let data = &msg.data;
                if data.is_empty() || data.len() > D::MAX_WRITE {
                    reply_status(ctx, call, status::EINVAL);
                    return;
                }
                if let Some(ckpt) = self.ckpt.as_mut() {
                    if ckpt.park_until_restored(ctx, call, msg.clone()) {
                        return; // served after the snapshot restore
                    }
                }
                let vm = self.routine.run(ctx, D::vm_len(data.len()), |vm| {
                    vm.mem[0..data.len()].copy_from_slice(data);
                    vm.regs[routines::reg::A0 as usize] = data.len() as u32;
                });
                let Some(vm) = vm else {
                    return; // dying
                };
                let csum = vm.regs[routines::reg::RES as usize];
                self.serve_write(ctx, call, msg, csum);
            }
            _ => reply_status(ctx, call, status::EINVAL),
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: &Result<Message, IpcError>) {
        if let Some(role) = self.standby.as_mut() {
            if role.tail.on_reply(ctx, call, result) {
                return;
            }
        }
        let Some(ckpt) = self.ckpt.as_mut() else {
            return;
        };
        let Some((event, parked)) = ckpt.on_reply(ctx, call, result) else {
            return;
        };
        if let RestoreEvent::Restored(snap) = &event {
            if let Some(mark) = snap.as_watermark() {
                self.cursor.restore(mark);
            }
        }
        for (call, msg) in parked {
            self.request(ctx, call, &msg);
        }
    }
}

/// SCSI CD burner driver. Burn state lives *in the device*; a restarted
/// driver that continues a burn will present the wrong chunk sequence and
/// the device will (correctly) ruin the disc — the §6.3 case where the
/// error must be reported to the user.
pub struct ScsiCdDriver {
    dev: DeviceId,
    irq: IrqLine,
    /// Chunk request awaiting the device's write-complete interrupt.
    pending: Option<CallId>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
}

impl ScsiCdDriver {
    /// Creates the SCSI CD driver.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        ScsiCdDriver {
            dev,
            irq,
            pending: None,
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
        }
    }

    fn device_status(&self, ctx: &mut Ctx<'_>) -> u32 {
        ctx.devio_read(self.dev, scsi_regs::STATUS)
            .unwrap_or(scsi_status::RUINED)
    }
}

impl DriverLogic for ScsiCdDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        ctx.iommu_map(self.dev, 0, 0, 64 * 1024)
            .expect("map burn buffer");
        ctx.trace(TraceLevel::Info, "scsi cd driver ready".to_string());
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match msg.mtype {
            cdev::OPEN => {
                let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, status::OK));
            }
            cdev::BURN_START => {
                let total = msg.param(0) as u32;
                let _ = ctx.devio_write(self.dev, scsi_regs::TOTAL_CHUNKS, total);
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::START_BURN);
                let st = if self.device_status(ctx) == scsi_status::BURNING {
                    status::OK
                } else {
                    status::EIO
                };
                let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, st));
            }
            cdev::BURN_CHUNK => {
                let seq = msg.param(0) as u32;
                let data = &msg.data;
                if data.is_empty() || data.len() > 64 * 1024 {
                    let _ = ctx.reply(
                        call,
                        Message::new(cdev::REPLY).with_param(0, status::EINVAL),
                    );
                    return;
                }
                let ok = self.routine.run(ctx, data.len() + 16, |vm| {
                    vm.mem[0..data.len()].copy_from_slice(data);
                    vm.regs[routines::reg::A0 as usize] = data.len() as u32;
                });
                if ok.is_none() {
                    return;
                }
                if ctx.mem_write(0, data).is_err() {
                    let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, status::EIO));
                    return;
                }
                let _ = ctx.devio_write(self.dev, scsi_regs::CHUNK_SEQ, seq);
                let _ = ctx.devio_write(self.dev, scsi_regs::DMA_ADDR, 0);
                let _ = ctx.devio_write(self.dev, scsi_regs::CHUNK_LEN, data.len() as u32);
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK);
                match self.device_status(ctx) {
                    scsi_status::BURNING => {
                        // The laser is writing; reply on the completion
                        // interrupt so the client is paced by the medium.
                        self.pending = Some(call);
                    }
                    _ => {
                        // Disc ruined: error pushed up to the application.
                        let _ =
                            ctx.reply(call, Message::new(cdev::REPLY).with_param(0, status::EIO));
                    }
                }
            }
            cdev::BURN_FINALIZE => {
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::FINALIZE);
                let st = if self.device_status(ctx) == scsi_status::COMPLETE {
                    status::OK
                } else {
                    status::EIO
                };
                let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, st));
            }
            _ => {
                let _ = ctx.reply(
                    call,
                    Message::new(cdev::REPLY).with_param(0, status::EINVAL),
                );
            }
        }
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        let Some(call) = self.pending.take() else {
            return;
        };
        let st = match self.device_status(ctx) {
            scsi_status::BURNING | scsi_status::COMPLETE => status::OK,
            _ => status::EIO,
        };
        let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, st));
    }
}

/// Keyboard/serial input driver (the §6.3 *input* case).
///
/// The driver drains the UART's tiny hardware FIFO into its own line
/// buffer on every interrupt, and serves [`cdev::READ`] requests from that
/// buffer. The buffer is ordinary process state: when the driver crashes,
/// **every byte it had drained but not yet delivered is lost** — "input
/// might be lost because it can only be read from the controller once."
pub struct KeyboardDriver {
    dev: DeviceId,
    irq: IrqLine,
    /// Drained-but-undelivered input; dies with the driver — unless it
    /// is checkpointed to the data store after every change.
    line_buf: Vec<u8>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
    /// Checkpoint client; `None` = the paper's original lossy mode.
    ckpt: Option<DriverCkpt>,
}

impl KeyboardDriver {
    /// Creates the keyboard driver.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        KeyboardDriver {
            dev,
            irq,
            line_buf: Vec::new(),
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
            ckpt: None,
        }
    }

    /// Enables line-buffer checkpointing: input drained from the UART
    /// (readable only once) survives a driver restart because the buffer
    /// is snapshotted outside the driver after every change.
    pub fn with_checkpointing(mut self, ds: Endpoint) -> Self {
        self.ckpt = Some(DriverCkpt::new(ds, "kbd"));
        self
    }

    fn save_line_buf(&mut self, ctx: &mut Ctx<'_>) {
        let payload = self.line_buf.clone();
        if let Some(ckpt) = self.ckpt.as_mut() {
            if ckpt.ready() {
                ckpt.save(ctx, payload);
            }
        }
    }
}

impl DriverLogic for KeyboardDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        ctx.trace(TraceLevel::Info, "keyboard driver ready".to_string());
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match msg.mtype {
            cdev::OPEN => {
                let _ = ctx.reply(call, Message::new(cdev::REPLY).with_param(0, status::OK));
            }
            cdev::READ => {
                if let Some(ckpt) = self.ckpt.as_mut() {
                    if ckpt.park_until_restored(ctx, call, msg.clone()) {
                        return; // served after the snapshot restore
                    }
                }
                let want = (msg.param(0) as usize).min(4096);
                let n = want.min(self.line_buf.len());
                let mut csum = 0u32;
                if n > 0 {
                    // The per-byte processing loop runs on the fault VM so
                    // the §7.2 campaign can target input drivers too.
                    let data = self.line_buf[..n].to_vec();
                    let vm = self.routine.run(ctx, n + 16, |vm| {
                        vm.mem[0..n].copy_from_slice(&data);
                        vm.regs[routines::reg::A0 as usize] = n as u32;
                    });
                    let Some(vm) = vm else {
                        return; // dying; buffered input dies with us
                    };
                    csum = vm.regs[routines::reg::RES as usize];
                }
                let data: Vec<u8> = self.line_buf.drain(..n).collect();
                if let Some(ckpt) = self.ckpt.as_mut() {
                    emit_replay_event(ctx, ckpt, 0, n as u64);
                }
                if n > 0 {
                    // Delivered bytes must leave the snapshot, or a later
                    // restore would re-deliver them.
                    self.save_line_buf(ctx);
                }
                // Echo the routine's byte-sum only when it ran (n > 0);
                // 0 = no echo, so empty reads stay sentinel-neutral.
                let echo = if n > 0 { 1 + u64::from(csum) } else { 0 };
                let _ = ctx.reply(
                    call,
                    Message::new(cdev::REPLY)
                        .with_param(0, status::OK)
                        .with_param(1, n as u64)
                        .with_param(2, echo)
                        .with_data(data),
                );
            }
            _ => {
                let _ = ctx.reply(
                    call,
                    Message::new(cdev::REPLY).with_param(0, status::EINVAL),
                );
            }
        }
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        // Drain the hardware FIFO completely: it is tiny, and anything
        // left there risks an overrun on the next arrival.
        let mut drained = 0usize;
        loop {
            let avail = ctx.devio_read(self.dev, uart_regs::AVAILABLE).unwrap_or(0) as usize;
            if avail == 0 {
                break;
            }
            match ctx.devio_read_block(self.dev, uart_regs::DATA, avail) {
                Ok(bytes) => {
                    drained += bytes.len();
                    self.line_buf.extend_from_slice(&bytes);
                }
                Err(_) => break,
            }
        }
        if let Some(ckpt) = self.ckpt.as_mut() {
            // Input can arrive before the first READ: start the restore
            // now so drained-but-undelivered bytes get merged (restored
            // prefix first) instead of shadowing the snapshot.
            ckpt.ensure_restore(ctx);
        }
        if drained > 0 {
            self.save_line_buf(ctx);
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: &Result<Message, IpcError>) {
        let Some(ckpt) = self.ckpt.as_mut() else {
            return;
        };
        let Some((event, parked)) = ckpt.on_reply(ctx, call, result) else {
            return;
        };
        if let RestoreEvent::Restored(snap) = &event {
            // Restored bytes were drained before the crash — they come
            // first; anything drained since the restart follows them.
            let mut merged = snap.payload.clone();
            merged.extend_from_slice(&self.line_buf);
            self.line_buf = merged;
        }
        self.save_line_buf(ctx);
        for (call, msg) in parked {
            self.request(ctx, call, &msg);
        }
    }
}
