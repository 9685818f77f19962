//! The process manager.
//!
//! PM is the parent of all system processes: it executes programs on
//! behalf of the reincarnation server (which lacks the spawn privilege
//! itself), delivers signals, and — being the parent — receives every
//! child's exit status from the kernel, which it forwards to RS as a
//! `SIGCHLD` report "according to the POSIX specification" (§5.1).

use std::collections::BTreeMap;

use phoenix_ckpt::driver::{DriverCkpt, RestoreEvent};
use phoenix_drivers::proto::drv;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, ExitReason, KillOrigin, Message, Signal};
use phoenix_simcore::trace::TraceLevel;

use crate::faultplane::{garble_message, FaultAction, FaultPlane, FaultState};
use crate::proto::{pack_endpoint, pm, unpack_endpoint};

/// Status codes in PM replies.
pub mod pm_status {
    /// Success.
    pub const OK: u64 = 0;
    /// Unknown program.
    pub const NO_PROGRAM: u64 = 2;
    /// Target endpoint is stale.
    pub const NO_PROCESS: u64 = 3;
    /// Caller is not authorized.
    pub const DENIED: u64 = 13;
}

/// The process manager server.
#[derive(Debug, Default)]
pub struct ProcessManager {
    /// Who receives SIGCHLD forwards (the reincarnation server).
    reaper: Option<Endpoint>,
    /// Process records: program name -> endpoint of the most recent
    /// incarnation PM started for it. This is PM's session state; it is
    /// externalized so a restarted PM still knows what it runs.
    records: BTreeMap<String, Endpoint>,
    /// Process-record checkpoint client (crash-only contract).
    ckpt: Option<DriverCkpt>,
    /// Records changed since the last checkpoint save.
    dirty: bool,
    /// Injected-defect latches (microreboot campaign).
    fault: FaultState,
}

impl ProcessManager {
    /// Creates the process manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables process-record checkpointing against the data store at
    /// `ds`: the reaper binding and started-service records are saved on
    /// every change and rehydrated lazily after a microreboot.
    pub fn with_checkpointing(mut self, ds: Endpoint) -> Self {
        self.ckpt = Some(DriverCkpt::new(ds, "pm.records"));
        self
    }

    /// Attaches the server fault plane (campaign defect injection).
    pub fn with_fault_plane(mut self, plane: &FaultPlane, name: &str) -> Self {
        self.fault = FaultState::attached(plane, name);
        self
    }

    fn encode_reason(reason: &ExitReason) -> (u64, u64) {
        match reason {
            ExitReason::Exited(code) => (0, *code as u64),
            ExitReason::Panicked(_) => (1, 0),
            ExitReason::Exception(k) => (2, *k as u64),
            ExitReason::Signaled(_, KillOrigin::User) => (3, 1),
            ExitReason::Signaled(_, KillOrigin::System) => (3, 0),
        }
    }

    // ---------------- process-record externalization ----------------

    fn push_ep(out: &mut Vec<u8>, ep: Endpoint) {
        out.extend_from_slice(&ep.slot().to_le_bytes());
        out.extend_from_slice(&ep.generation().to_le_bytes());
    }

    fn read_ep(buf: &[u8], at: &mut usize) -> Option<Endpoint> {
        let slot = u16::from_le_bytes(buf.get(*at..*at + 2)?.try_into().ok()?);
        let generation = u32::from_le_bytes(buf.get(*at + 2..*at + 6)?.try_into().ok()?);
        *at += 6;
        Some(Endpoint::new(slot, generation))
    }

    /// Serializes the reaper binding and the started-service records.
    fn encode_records(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self.reaper {
            Some(ep) => {
                out.push(1);
                Self::push_ep(&mut out, ep);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.records.len() as u16).to_le_bytes());
        for (name, &ep) in &self.records {
            out.push(name.len() as u8);
            out.extend_from_slice(name.as_bytes());
            Self::push_ep(&mut out, ep);
        }
        out
    }

    /// Rehydrates the process records. A live reaper binding delivered
    /// after the restart (RS re-registers on respawn) wins over the
    /// snapshot. Returns `false` if the payload does not parse.
    fn apply_records(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) -> bool {
        let mut at = 0usize;
        let Some(&has_reaper) = payload.get(at) else {
            return false;
        };
        at += 1;
        let reaper = if has_reaper == 1 {
            match Self::read_ep(payload, &mut at) {
                Some(ep) => Some(ep),
                None => return false,
            }
        } else {
            None
        };
        let Some(count_bytes) = payload.get(at..at + 2) else {
            return false;
        };
        let count = u16::from_le_bytes(count_bytes.try_into().unwrap_or([0; 2]));
        at += 2;
        let mut records = Vec::new();
        for _ in 0..count {
            let Some(&nlen) = payload.get(at) else {
                return false;
            };
            at += 1;
            let Some(raw) = payload.get(at..at + nlen as usize) else {
                return false;
            };
            let name = String::from_utf8_lossy(raw).to_string();
            at += nlen as usize;
            let Some(ep) = Self::read_ep(payload, &mut at) else {
                return false;
            };
            records.push((name, ep));
        }
        if self.reaper.is_none() {
            self.reaper = reaper;
        }
        for (name, ep) in records {
            self.records.entry(name).or_insert(ep);
        }
        ctx.metrics().incr("pm.records_restored");
        true
    }

    /// Sends a caller-facing reply through the injected-garble filter.
    fn caller_reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        let msg = if self.fault.garbling() {
            ctx.metrics().incr("pm.garbled_replies");
            garble_message(msg)
        } else {
            msg
        };
        let _ = ctx.reply(call, msg);
    }
}

impl Process for ProcessManager {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match self.fault.poll() {
            FaultAction::Crash => {
                ctx.metrics().incr("pm.injected_crash");
                ctx.panic("injected server defect: wild store");
                return;
            }
            FaultAction::Stall => {
                ctx.metrics().incr("pm.stalled_events");
                return;
            }
            FaultAction::Garble | FaultAction::None => {}
        }
        self.dispatch(ctx, event);
        // Quiescent-point save; `ckpt` is lent out so the encoder can
        // borrow `self`.
        let mut ckpt = self.ckpt.take();
        self.dirty = DriverCkpt::save_when_quiescent(ckpt.as_mut(), ctx, self.dirty, || {
            self.encode_records()
        });
        self.ckpt = ckpt;
    }
}

impl ProcessManager {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Message(msg) if msg.mtype == drv::HB_PING => {
                // RS liveness ping: with no START/KILL in flight a wedged
                // PM would leave no stalled request to audit, so RS pings
                // it like a driver. The pong goes through the garble
                // filter — a corrupting PM mangles it, which RS reads the
                // same as silence.
                let mut pong = Message::new(drv::HB_PONG);
                if self.fault.garbling() {
                    ctx.metrics().incr("pm.garbled_replies");
                    pong = garble_message(pong);
                }
                let _ = ctx.send(msg.source, pong);
            }
            ProcEvent::Message(msg) if msg.mtype == pm::REGISTER => {
                if self.reaper != Some(msg.source) {
                    self.reaper = Some(msg.source);
                    self.dirty = true;
                }
                ctx.trace(
                    TraceLevel::Info,
                    format!("exit reports will go to {}", msg.source),
                );
            }
            ProcEvent::Request { call, msg } => {
                if let Some(ckpt) = self.ckpt.as_mut() {
                    if ckpt.park_until_restored(ctx, call, msg.clone()) {
                        return;
                    }
                }
                self.handle_request(ctx, call, msg);
            }
            ProcEvent::Reply { call, result } => {
                let ckpt_outcome = match self.ckpt.as_mut() {
                    Some(ckpt) => ckpt.on_reply(ctx, call, &result),
                    None => None,
                };
                if let Some((restore, parked)) = ckpt_outcome {
                    if let RestoreEvent::Restored(snap) = restore {
                        if !self.apply_records(ctx, &snap.payload) {
                            ctx.metrics().incr("pm.records_restore_garbage");
                        }
                    }
                    for (parked_call, parked_msg) in parked {
                        self.handle_request(ctx, parked_call, parked_msg);
                    }
                }
            }
            ProcEvent::ChildExited(status) => {
                // Forward the exit to the reincarnation server — this is
                // the SIGCHLD + wait() path that makes defect classes 1-3
                // immediately visible (§5.1).
                if let Some(reaper) = self.reaper {
                    let (kind, detail) = Self::encode_reason(&status.reason);
                    let (s, g) = pack_endpoint(status.endpoint);
                    let _ = ctx.send(
                        reaper,
                        Message::new(pm::SIGCHLD)
                            .with_param(0, s)
                            .with_param(1, g)
                            .with_param(2, kind)
                            .with_param(3, detail)
                            .with_data(status.name.into_bytes()),
                    );
                }
            }
            _ => {}
        }
    }

    /// Serves one START/KILL request (also the replay path for requests
    /// parked behind a record restore).
    fn handle_request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        match msg.mtype {
            pm::START => {
                // Only the registered reaper (RS) may start services.
                if self.reaper != Some(msg.source) {
                    self.caller_reply(
                        ctx,
                        call,
                        Message::new(pm::START_REPLY).with_param(0, pm_status::DENIED),
                    );
                    return;
                }
                let program = String::from_utf8_lossy(&msg.data).to_string();
                let version = match msg.param(0) {
                    0 => None,
                    v => Some(v as u32),
                };
                match ctx.sys_spawn(&program, version) {
                    Ok(ep) => {
                        self.records.insert(program, ep);
                        self.dirty = true;
                        let (s, g) = pack_endpoint(ep);
                        self.caller_reply(
                            ctx,
                            call,
                            Message::new(pm::START_REPLY)
                                .with_param(0, pm_status::OK)
                                .with_param(1, s)
                                .with_param(2, g),
                        );
                    }
                    Err(_) => {
                        self.caller_reply(
                            ctx,
                            call,
                            Message::new(pm::START_REPLY).with_param(0, pm_status::NO_PROGRAM),
                        );
                    }
                }
            }
            pm::KILL => {
                if self.reaper != Some(msg.source) {
                    self.caller_reply(
                        ctx,
                        call,
                        Message::new(pm::KILL_REPLY).with_param(0, pm_status::DENIED),
                    );
                    return;
                }
                let target = unpack_endpoint(msg.param(0), msg.param(1));
                let signal = if msg.param(2) == 1 {
                    Signal::Kill
                } else {
                    Signal::Term
                };
                let st = match ctx.sys_kill(target, signal) {
                    Ok(()) => pm_status::OK,
                    Err(_) => pm_status::NO_PROCESS,
                };
                self.caller_reply(ctx, call, Message::new(pm::KILL_REPLY).with_param(0, st));
            }
            _ => {
                self.caller_reply(
                    ctx,
                    call,
                    Message::new(pm::KILL_REPLY).with_param(0, pm_status::DENIED),
                );
            }
        }
    }
}
