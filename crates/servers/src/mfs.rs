//! The MINIX-style file server (MFS) with transparent block-driver
//! recovery (§6.2).
//!
//! Disk block I/O is idempotent, so when the kernel aborts an IPC
//! rendezvous because the disk driver died, MFS *marks the request
//! pending*, waits for the data store to announce the restarted driver's
//! new endpoint, re-opens its minor devices, and reissues the failed
//! operations — transparently to the applications above it.
//!
//! MFS can also act as the §5.1 arbiter input: if a driver sends a
//! malformed reply (protocol violation) or fails to answer within a
//! deadline, MFS files a complaint with the reincarnation server asking
//! for replacement.
//!
//! The server is generic over the on-disk format ([`Volume`]): the native
//! format ([`crate::fsfmt::MfsVolume`]) and FAT16
//! ([`crate::fsfat::FatVolume`], Fig. 5's second file server) share one
//! copy of the recovery machinery and differ only in how they mount, look
//! up names, and map file offsets to sectors.

use std::collections::VecDeque;

use phoenix_ckpt::driver::{DriverCkpt, RestoreEvent};
use phoenix_drivers::proto::{bdev, status};
use phoenix_hw::disk::SECTOR;
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::faultplane::{garble_message, FaultAction, FaultPlane, FaultState};
use crate::fsfmt::MfsVolume;
use crate::proto::{ds, evidence, fs, pack_endpoint, rs as rsp, unpack_endpoint};

/// I/O buffer: offset 0 of MFS memory, room for one maximal transfer.
const IO_BUF: usize = 0;
/// Largest single driver request (256 sectors).
const MAX_CHUNK_SECTORS: u64 = 256;
/// Driver response deadline before MFS complains to RS.
const DRIVER_DEADLINE: SimDuration = SimDuration::from_secs(5);
/// Pause before retrying a chunk the driver answered with EAGAIN. An
/// immediate reissue spins a tight IPC loop against a still-busy device
/// (hundreds of round trips per device op), which under message chaos all
/// but guarantees one EAGAIN reply is eventually lost — wedging MFS until
/// the response deadline convicts a perfectly healthy driver. Pacing the
/// retry past the typical device op keeps it to a handful of exchanges.
const RETRY_DELAY: SimDuration = SimDuration::from_millis(1);
/// Checksum-mismatch retries before the active op fails with EIO. Matches
/// RS's complaint quorum, so the retries file exactly the evidence needed
/// for a restart of a driver that persistently miscomputes.
const CSUM_RETRIES: u32 = 3;
/// One in `SCRUB_SAMPLE` read chunks is re-read and compared (the
/// sampled read-back scrub of the fail-silent sentinel).
const SCRUB_SAMPLE: u64 = 8;

/// Byte-sum of the 16-byte request descriptor the driver validates —
/// mirrors the checksum `routines::disk_request` computes, so MFS can
/// cross-check the driver's echoed value.
fn descriptor_sum(lba: u64, count: u64, capacity: u64) -> u32 {
    let mut d = [0u8; 16];
    d[0..4].copy_from_slice(&(lba as u32).to_le_bytes());
    d[4..8].copy_from_slice(&(count as u32).to_le_bytes());
    d[8..12].copy_from_slice(&(capacity as u32).to_le_bytes());
    d.iter().map(|&b| u32::from(b)).sum()
}

/// What a volume wants next while mounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountStep {
    /// Read `sectors` sectors at `lba` and hand them to the next step.
    Read {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u64,
    },
    /// Mounted, with this many files.
    Done(usize),
    /// The sectors did not decode (reason, for the trace).
    Bad(&'static str),
}

/// An on-disk format served by [`FileServer`]: everything that differs
/// between volume types. Mounting starts by reading sector 0 (superblock
/// or boot sector); the rest is the format's own plan.
pub trait Volume: Default {
    /// Counter prefix: `<KEY>.reads`, `sentinel.<KEY>.*`, ...
    const KEY: &'static str;
    /// Whether WRITE is served; a read-only volume answers EINVAL.
    const WRITABLE: bool;
    /// Decodes the sectors read for mount step `step` (0 = sector 0) and
    /// names the next read.
    fn mount_step(&mut self, step: u8, data: &[u8]) -> MountStep;
    /// Resolves a client-supplied name to `(file index, size)`.
    fn lookup(&self, name: &str) -> Option<(usize, u64)>;
    /// Size of `file` in bytes; `None` if there is no such file.
    fn file_size(&self, file: usize) -> Option<u64>;
    /// Maps a byte offset in `file` to `(lba, offset-within-sector)`.
    fn locate(&self, file: usize, offset: u64) -> Option<(u64, usize)>;
    /// Physically contiguous sectors from the sector holding `offset`.
    fn contiguous_sectors_at(&self, file: usize, offset: u64) -> u64;
    /// Serializes the mounted metadata for the crash-only checkpoint.
    /// Only volumes served `with_checkpointing` override this.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    /// Rehydrates the mounted metadata from [`Volume::snapshot`] output;
    /// `false`, leaving `self` untouched, if the payload does not parse.
    fn restore(&mut self, _payload: &[u8]) -> bool {
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MountState {
    NotMounted,
    /// Awaiting the sectors for this mount step.
    Reading(u8),
    Mounted,
}

#[derive(Debug)]
enum OpKind {
    /// Internal mount I/O.
    Mount,
    /// Client read: reply with data.
    Read { client: CallId },
    /// Client write: reply with byte count.
    Write { client: CallId, data: Vec<u8> },
}

#[derive(Debug)]
struct Active {
    kind: OpKind,
    /// Absolute file position of the next byte to transfer (reads) or the
    /// next byte to write.
    file_pos: u64,
    /// Total bytes still to transfer.
    remaining: u64,
    /// Bytes assembled so far (reads).
    assembled: Vec<u8>,
    /// File index (usize::MAX during mount).
    file: usize,
    // Current chunk at the driver:
    chunk_lba: u64,
    chunk_sectors: u64,
    chunk_skip: usize,
    grant: Option<GrantId>,
    driver_call: Option<CallId>,
    /// Sequence number used by the response-deadline alarm.
    seq: u64,
    /// Set when the rendezvous was aborted: retry on driver restart.
    waiting_driver: bool,
    /// Checksum-mismatch retries consumed by the current op.
    csum_retries: u32,
    /// Data of the first read of a sampled chunk, awaiting the re-read
    /// for comparison (`None` = not scrubbing).
    scrub: Option<Vec<u8>>,
}

/// The file server, over on-disk format `V`.
pub struct FileServer<V: Volume> {
    ds: Endpoint,
    rs: Endpoint,
    driver_key: String,
    driver: Option<Endpoint>,
    driver_open: bool,
    open_call: Option<CallId>,
    /// Sequence number of the response-deadline alarm guarding the
    /// current reopen: the reply delivery can be lost in flight (chaos),
    /// which completes the rendezvous without MFS ever hearing back, so
    /// awaiting it unguarded would wedge the server forever.
    open_seq: Option<u64>,
    check_call: Option<CallId>,
    /// Sequence number of a pending EAGAIN-backoff alarm; the retry
    /// reissues the active chunk when it fires.
    retry_seq: Option<u64>,
    mount: MountState,
    vol: V,
    queue: VecDeque<(CallId, Message)>,
    active: Option<Active>,
    next_seq: u64,
    /// Recovery episode behind the driver update currently being
    /// reintegrated (from the DS CHECK reply); tags the reopen/reissue
    /// trace events with the causing episode.
    recovery: Option<RecoveryId>,
    recovery_parent: Option<SpanId>,
    /// Device capacity in sectors, from the driver's OPEN reply; feeds
    /// the descriptor-checksum cross-check.
    capacity: u64,
    /// Read chunks completed, for scrub sampling.
    scrub_chunks: u64,
    /// Cache-metadata checkpoint client (crash-only contract): the
    /// mounted volume metadata is externalized so a restarted
    /// incarnation rehydrates without re-reading the disk.
    ckpt: Option<DriverCkpt>,
    /// Mount metadata changed since the last checkpoint save.
    dirty: bool,
    /// Injected-defect latches (microreboot campaign).
    fault: FaultState,
}

impl<V: Volume> FileServer<V> {
    /// Creates the server bound to the block driver published under
    /// `driver_key` (e.g. `"blk.sata"`). `ds` and `rs` are the data store
    /// and reincarnation server endpoints.
    pub fn new(ds: Endpoint, rs: Endpoint, driver_key: &str) -> Self {
        FileServer {
            ds,
            rs,
            driver_key: driver_key.to_string(),
            driver: None,
            driver_open: false,
            open_call: None,
            open_seq: None,
            check_call: None,
            retry_seq: None,
            mount: MountState::NotMounted,
            vol: V::default(),
            queue: VecDeque::new(),
            active: None,
            next_seq: 1,
            recovery: None,
            recovery_parent: None,
            capacity: 0,
            scrub_chunks: 0,
            ckpt: None,
            dirty: false,
            fault: FaultState::detached(),
        }
    }

    /// Attaches the server fault plane (campaign defect injection).
    pub fn with_fault_plane(mut self, plane: &FaultPlane, name: &str) -> Self {
        self.fault = FaultState::attached(plane, name);
        self
    }

    /// Bumps the volume's own counter `<KEY>.<what>`.
    fn count(ctx: &mut Ctx<'_>, what: &str) {
        ctx.metrics().incr(&format!("{}.{what}", V::KEY));
    }

    /// Bumps the volume's sentinel counter `sentinel.<KEY>.<what>`.
    fn count_sentinel(ctx: &mut Ctx<'_>, what: &str) {
        ctx.metrics().incr(&format!("sentinel.{}.{what}", V::KEY));
    }

    /// Rehydrates mount metadata from a restored snapshot. Returns
    /// `false` (leaving a clean slate, so the normal mount path runs) if
    /// the payload does not parse.
    fn apply_mount(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) -> bool {
        if !self.vol.restore(payload) {
            return false;
        }
        self.mount = MountState::Mounted;
        Self::count(ctx, "mount_restored");
        true
    }

    /// Sends a client-facing reply through the injected-garble filter.
    fn client_reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        let msg = if self.fault.garbling() {
            Self::count(ctx, "garbled_replies");
            garble_message(msg)
        } else {
            msg
        };
        let _ = ctx.reply(call, msg);
    }

    fn driver_ready(&self) -> bool {
        self.driver.is_some() && self.driver_open
    }

    fn ds_check(&mut self, ctx: &mut Ctx<'_>) {
        if self.check_call.is_none() {
            self.check_call = ctx.sendrec(self.ds, Message::new(ds::CHECK)).ok();
        }
    }

    // [recovery:begin]
    fn complain(&mut self, ctx: &mut Ctx<'_>, kind: u32, why: &str) {
        // [recovery] §5.1 input 5: ask RS to replace the malfunctioning
        // [recovery] driver; RS verifies our authority and weighs the
        // [recovery] evidence class before acting.
        ctx.trace(
            TraceLevel::Warn,
            format!("complaining about {}: {why}", self.driver_key),
        );
        Self::count(ctx, "complaints");
        Self::count_sentinel(ctx, evidence::name(kind));
        let key = self.driver_key.clone();
        let (slot, generation) = self.driver.map(pack_endpoint).unwrap_or((0, 0));
        let _ = ctx.sendrec(
            self.rs,
            Message::new(rsp::COMPLAIN)
                .with_param(0, u64::from(kind))
                .with_param(1, slot)
                .with_param(2, generation)
                .with_data(key.into_bytes()),
        );
    }

    /// Handles a checksum-class sentinel violation: complain (the
    /// low-confidence evidence accumulates toward RS's quorum) and retry
    /// the chunk a bounded number of times; if the driver keeps
    /// miscomputing, fail the op so the client is not stuck while RS's
    /// restart is in flight.
    fn csum_violation(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        self.complain(ctx, evidence::CRC_MISMATCH, why);
        let Some(a) = self.active.as_mut() else {
            return;
        };
        a.scrub = None;
        if a.csum_retries < CSUM_RETRIES {
            a.csum_retries += 1;
            Self::count_sentinel(ctx, "csum_retries");
            self.issue_chunk(ctx);
        } else {
            self.finish_active(ctx, status::EIO);
        }
    }
    // [recovery:end]

    /// Issues (or reissues) the current chunk to the driver.
    fn issue_chunk(&mut self, ctx: &mut Ctx<'_>) {
        let Some(driver) = self.driver else {
            if let Some(a) = self.active.as_mut() {
                a.waiting_driver = true;
            }
            return;
        };
        let Some(a) = self.active.as_mut() else {
            return;
        };
        let bytes = (a.chunk_sectors * SECTOR as u64) as usize;
        let write = matches!(a.kind, OpKind::Write { .. });
        if write {
            // Stage the chunk's data in the I/O buffer.
            if let OpKind::Write { data, .. } = &a.kind {
                let start = (a.file_pos - a.chunk_skip as u64) as usize;
                // file_pos is sector-aligned for writes; chunk data slice:
                let done = data.len() - a.remaining as usize;
                let _ = start;
                let chunk = &data[done..done + bytes];
                if ctx.mem_write(IO_BUF, chunk).is_err() {
                    ctx.trace(TraceLevel::Error, "io buffer write failed".to_string());
                    return;
                }
            }
        }
        let access = if write {
            GrantAccess::Read
        } else {
            GrantAccess::Write
        };
        let grant = match ctx.grant_create(driver, IO_BUF, bytes, access) {
            Ok(g) => g,
            Err(e) => {
                ctx.trace(TraceLevel::Error, format!("grant failed: {e}"));
                return;
            }
        };
        let mtype = if write { bdev::WRITE } else { bdev::READ };
        let msg = Message::new(mtype)
            .with_param(0, a.chunk_lba)
            .with_param(1, a.chunk_sectors)
            .with_param(2, u64::from(grant.0));
        let seq = self.next_seq;
        self.next_seq += 1;
        match ctx.sendrec(driver, msg) {
            Ok(call) => {
                let Some(a) = self.active.as_mut() else {
                    let _ = ctx.grant_revoke(grant);
                    return;
                };
                a.grant = Some(grant);
                a.driver_call = Some(call);
                a.seq = seq;
                a.waiting_driver = false;
                // Response deadline (complaint input, §5.1).
                let _ = ctx.set_alarm(DRIVER_DEADLINE, seq);
            }
            Err(_) => {
                // Driver died between publish and send: wait for restart.
                let _ = ctx.grant_revoke(grant);
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.grant = None;
                a.driver_call = None;
                a.waiting_driver = true;
                Self::count(ctx, "pending_aborts");
            }
        }
    }

    /// Computes the next chunk for the active op and sends it.
    fn start_next_chunk(&mut self, ctx: &mut Ctx<'_>) {
        let Some(a) = self.active.as_mut() else {
            return;
        };
        match a.kind {
            OpKind::Mount => {
                // Mount chunks are set up explicitly in `begin_mount` /
                // `mount_continue`.
            }
            OpKind::Read { .. } | OpKind::Write { .. } => {
                // A corrupt or stale externalized file table could leave
                // the position out of bounds after a restore: fail the op,
                // don't kill the incarnation.
                let Some((lba, in_off)) = self.vol.locate(a.file, a.file_pos) else {
                    self.finish_active(ctx, status::EIO);
                    return;
                };
                let contiguous = self.vol.contiguous_sectors_at(a.file, a.file_pos);
                let want_bytes = in_off as u64 + a.remaining;
                let sectors = want_bytes
                    .div_ceil(SECTOR as u64)
                    .min(contiguous)
                    .min(MAX_CHUNK_SECTORS);
                a.chunk_lba = lba;
                a.chunk_sectors = sectors;
                a.chunk_skip = in_off;
            }
        }
        self.issue_chunk(ctx);
    }

    fn finish_active(&mut self, ctx: &mut Ctx<'_>, st: u64) {
        let Some(a) = self.active.take() else {
            return;
        };
        match a.kind {
            OpKind::Mount => {
                // handled by mount_continue; only failures land here
                ctx.trace(TraceLevel::Error, format!("mount I/O failed: {st}"));
                self.mount = MountState::NotMounted;
            }
            OpKind::Read { client } => {
                let reply = if st == status::OK {
                    Message::new(fs::DATA_REPLY)
                        .with_param(0, status::OK)
                        .with_param(1, a.assembled.len() as u64)
                        .with_data(a.assembled)
                } else {
                    Message::new(fs::DATA_REPLY).with_param(0, st)
                };
                self.client_reply(ctx, client, reply);
            }
            OpKind::Write { client, data } => {
                let reply = if st == status::OK {
                    Message::new(fs::DATA_REPLY)
                        .with_param(0, status::OK)
                        .with_param(1, data.len() as u64)
                } else {
                    Message::new(fs::DATA_REPLY).with_param(0, st)
                };
                self.client_reply(ctx, client, reply);
            }
        }
        self.pump(ctx);
    }

    fn begin_mount(&mut self, ctx: &mut Ctx<'_>) {
        self.mount = MountState::Reading(0);
        self.active = Some(Active {
            kind: OpKind::Mount,
            file_pos: 0,
            remaining: SECTOR as u64,
            assembled: Vec::new(),
            file: usize::MAX,
            chunk_lba: 0,
            chunk_sectors: 1,
            chunk_skip: 0,
            grant: None,
            driver_call: None,
            seq: 0,
            waiting_driver: false,
            csum_retries: 0,
            scrub: None,
        });
        self.issue_chunk(ctx);
    }

    fn mount_continue(&mut self, ctx: &mut Ctx<'_>, data: Vec<u8>) {
        let MountState::Reading(step) = self.mount else {
            return;
        };
        match self.vol.mount_step(step, &data) {
            MountStep::Bad(why) => {
                ctx.trace(TraceLevel::Error, why.to_string());
                self.active = None;
                self.mount = MountState::NotMounted;
            }
            MountStep::Read { lba, sectors } => {
                self.mount = MountState::Reading(step.saturating_add(1));
                let Some(a) = self.active.as_mut() else {
                    self.mount = MountState::NotMounted;
                    return;
                };
                a.chunk_lba = lba;
                a.chunk_sectors = sectors;
                self.issue_chunk(ctx);
            }
            MountStep::Done(files) => {
                self.mount = MountState::Mounted;
                self.active = None;
                self.dirty = true;
                ctx.trace(TraceLevel::Info, format!("mounted: {files} files"));
                self.pump(ctx);
            }
        }
    }

    /// Starts queued work when idle.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.active.is_some() || !self.driver_ready() {
            return;
        }
        if self.mount != MountState::Mounted {
            if self.mount == MountState::NotMounted {
                self.begin_mount(ctx);
            }
            return;
        }
        while let Some((call, msg)) = self.queue.pop_front() {
            match msg.mtype {
                fs::OPEN => {
                    let name = String::from_utf8_lossy(&msg.data);
                    let reply = match self.vol.lookup(&name) {
                        Some((idx, size)) => Message::new(fs::OPEN_REPLY)
                            .with_param(0, status::OK)
                            .with_param(1, idx as u64)
                            .with_param(2, size),
                        None => Message::new(fs::OPEN_REPLY).with_param(0, status::ENODEV),
                    };
                    self.client_reply(ctx, call, reply);
                }
                fs::READ => {
                    let (file, offset, len) = (msg.param(0) as usize, msg.param(1), msg.param(2));
                    let Some(size) = self.vol.file_size(file) else {
                        self.client_reply(
                            ctx,
                            call,
                            Message::new(fs::DATA_REPLY).with_param(0, status::EINVAL),
                        );
                        continue;
                    };
                    let len = len.min(size.saturating_sub(offset));
                    if len == 0 {
                        self.client_reply(
                            ctx,
                            call,
                            Message::new(fs::DATA_REPLY)
                                .with_param(0, status::OK)
                                .with_param(1, 0),
                        );
                        continue;
                    }
                    Self::count(ctx, "reads");
                    self.active = Some(Active {
                        kind: OpKind::Read { client: call },
                        file_pos: offset,
                        remaining: len,
                        assembled: Vec::with_capacity(len as usize),
                        file,
                        chunk_lba: 0,
                        chunk_sectors: 0,
                        chunk_skip: 0,
                        grant: None,
                        driver_call: None,
                        seq: 0,
                        waiting_driver: false,
                        csum_retries: 0,
                        scrub: None,
                    });
                    self.start_next_chunk(ctx);
                    return;
                }
                fs::WRITE => {
                    let (file, offset) = (msg.param(0) as usize, msg.param(1));
                    let data = msg.data.clone();
                    let aligned = offset % SECTOR as u64 == 0 && data.len() % SECTOR == 0;
                    let in_file = self
                        .vol
                        .file_size(file)
                        .is_some_and(|size| offset + data.len() as u64 <= size);
                    if !V::WRITABLE || data.is_empty() || !aligned || !in_file {
                        self.client_reply(
                            ctx,
                            call,
                            Message::new(fs::DATA_REPLY).with_param(0, status::EINVAL),
                        );
                        continue;
                    }
                    Self::count(ctx, "writes");
                    self.active = Some(Active {
                        kind: OpKind::Write {
                            client: call,
                            data: data.clone(),
                        },
                        file_pos: offset,
                        remaining: data.len() as u64,
                        assembled: Vec::new(),
                        file,
                        chunk_lba: 0,
                        chunk_sectors: 0,
                        chunk_skip: 0,
                        grant: None,
                        driver_call: None,
                        seq: 0,
                        waiting_driver: false,
                        csum_retries: 0,
                        scrub: None,
                    });
                    self.start_next_chunk(ctx);
                    return;
                }
                _ => {
                    self.client_reply(
                        ctx,
                        call,
                        Message::new(fs::DATA_REPLY).with_param(0, status::EINVAL),
                    );
                }
            }
        }
    }

    // [recovery:begin]
    fn on_driver_published(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        let recovered = self.driver.is_some_and(|old| old != ep);
        self.driver = Some(ep);
        self.driver_open = false;
        // Reinitialize the driver by reopening minor devices (§6.2). The
        // reopen gets the same response deadline as data requests: its
        // reply can be lost in flight, and an unguarded await would leave
        // MFS sitting on client requests with no call open — exactly what
        // the RS progress audit convicts.
        self.open_call = ctx
            .sendrec(ep, Message::new(bdev::OPEN).with_param(0, 0))
            .ok();
        if self.open_call.is_some() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.open_seq = Some(seq);
            let _ = ctx.set_alarm(DRIVER_DEADLINE, seq);
        }
        if recovered {
            Self::count(ctx, "driver_reintegrations");
            let ev = ctx
                .event(TraceLevel::Info, format!("block driver recovered as {ep}"))
                .with_field("ev", "reintegrate")
                .with_field("driver", self.driver_key.as_str())
                .in_recovery_opt(self.recovery)
                .with_parent_opt(self.recovery_parent);
            ctx.trace_event(ev);
        }
    }
    // [recovery:end]

    fn on_driver_reply(&mut self, ctx: &mut Ctx<'_>, result: Result<Message, IpcError>) {
        // Revoke the chunk grant in all cases.
        if let Some(g) = self.active.as_mut().and_then(|a| a.grant.take()) {
            let _ = ctx.grant_revoke(g);
        }
        match result {
            // [recovery:begin]
            Err(_) => {
                // §6.2: "If I/O was in progress at the time of the
                // failure, the IPC rendezvous will be aborted by the
                // kernel, and the file server marks the request as
                // pending", then blocks until the restart notification.
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                a.waiting_driver = true;
                self.driver_open = false;
                Self::count(ctx, "pending_aborts");
                ctx.trace(
                    TraceLevel::Warn,
                    "driver request aborted; marked pending until restart".to_string(),
                );
            }
            // [recovery:end]
            Ok(reply) => {
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                if reply.mtype != bdev::REPLY {
                    // Protocol violation: unexpected message type.
                    a.waiting_driver = true;
                    self.complain(ctx, evidence::BAD_REPLY, "unexpected reply type");
                    return;
                }
                match reply.param(0) {
                    status::OK => {
                        let is_write = matches!(a.kind, OpKind::Write { .. });
                        let is_mount = matches!(a.kind, OpKind::Mount);
                        let bytes = (a.chunk_sectors * SECTOR as u64) as usize;
                        let expect_sum =
                            descriptor_sum(a.chunk_lba, a.chunk_sectors, self.capacity);
                        if reply.param(1) as usize != bytes {
                            a.waiting_driver = true;
                            self.complain(ctx, evidence::SHORT_TRANSFER, "short transfer");
                            return;
                        }
                        // Sentinel: the driver echoes the checksum of the
                        // request descriptor it validated (params[2] =
                        // 1 + sum, 0 = no echo); a disagreement means its
                        // validation path computed garbage.
                        let echo = reply.param(2);
                        if echo != 0 && echo != 1 + u64::from(expect_sum) {
                            self.csum_violation(ctx, "descriptor checksum echo mismatch");
                            return;
                        }
                        if is_mount {
                            let Ok(data) = ctx.mem_read(IO_BUF, bytes) else {
                                ctx.trace(TraceLevel::Error, "io buffer read failed".to_string());
                                self.finish_active(ctx, status::EIO);
                                return;
                            };
                            self.mount_continue(ctx, data);
                            return;
                        }
                        if is_write {
                            let Some(a) = self.active.as_mut() else {
                                return;
                            };
                            let take = bytes as u64;
                            a.file_pos += take;
                            a.remaining -= take.min(a.remaining);
                        } else {
                            let Ok(data) = ctx.mem_read(IO_BUF, bytes) else {
                                ctx.trace(TraceLevel::Error, "io buffer read failed".to_string());
                                self.finish_active(ctx, status::EIO);
                                return;
                            };
                            let Some(a) = self.active.as_mut() else {
                                return;
                            };
                            match a.scrub.take() {
                                Some(expected) => {
                                    // Second read of a scrubbed chunk: the
                                    // two reads must agree byte for byte.
                                    if data != expected {
                                        Self::count_sentinel(ctx, "scrub_mismatch");
                                        self.csum_violation(ctx, "read-back scrub mismatch");
                                        return;
                                    }
                                    Self::count_sentinel(ctx, "scrub_ok");
                                }
                                None => {
                                    self.scrub_chunks += 1;
                                    if self.scrub_chunks.is_multiple_of(SCRUB_SAMPLE) {
                                        // Sampled read-back scrub: re-read
                                        // the same chunk and compare before
                                        // trusting the data.
                                        Self::count_sentinel(ctx, "scrubs");
                                        let Some(a) = self.active.as_mut() else {
                                            return;
                                        };
                                        a.scrub = Some(data);
                                        self.issue_chunk(ctx);
                                        return;
                                    }
                                }
                            }
                            let Some(a) = self.active.as_mut() else {
                                return;
                            };
                            let start = a.chunk_skip;
                            let take = (bytes - start).min(a.remaining as usize);
                            a.assembled.extend_from_slice(&data[start..start + take]);
                            a.file_pos += take as u64;
                            a.remaining -= take as u64;
                        }
                        let remaining = self.active.as_ref().map_or(0, |a| a.remaining);
                        if remaining == 0 {
                            self.finish_active(ctx, status::OK);
                        } else {
                            // [recovery] continue with the next chunk of a
                            // multi-chunk transfer.
                            self.start_next_chunk(ctx);
                        }
                    }
                    status::EAGAIN => {
                        // Driver busy (e.g. a duplicated delivery raced the
                        // op already at the device): back off past the op
                        // instead of hammering the driver with a same-tick
                        // reissue loop.
                        Self::count(ctx, "retries");
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.retry_seq = Some(seq);
                        let _ = ctx.set_alarm(RETRY_DELAY, seq);
                    }
                    _ => {
                        self.finish_active(ctx, status::EIO);
                    }
                }
            }
        }
    }
}

impl FileServer<MfsVolume> {
    /// Enables cache-metadata checkpointing: the superblock and inode
    /// table are saved to the DS store at mount time and rehydrated
    /// lazily after a microreboot, skipping the disk re-read.
    pub fn with_checkpointing(mut self) -> Self {
        self.ckpt = Some(DriverCkpt::new(self.ds, "mount"));
        self
    }
}

impl<V: Volume> Process for FileServer<V> {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match self.fault.poll() {
            FaultAction::Crash => {
                Self::count(ctx, "injected_crash");
                ctx.panic("injected server defect: wild store");
                return;
            }
            FaultAction::Stall => {
                Self::count(ctx, "stalled_events");
                return;
            }
            FaultAction::Garble | FaultAction::None => {}
        }
        self.dispatch(ctx, event);
        // Quiescent-point save (the mount metadata only changes at mount
        // time); `ckpt` is lent out so the encoder can borrow `self`.
        let mut ckpt = self.ckpt.take();
        self.dirty =
            DriverCkpt::save_when_quiescent(ckpt.as_mut(), ctx, self.dirty, || self.vol.snapshot());
        self.ckpt = ckpt;
    }
}

impl<V: Volume> FileServer<V> {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let key = "blk.*".to_string();
                let _ = ctx.sendrec(
                    self.ds,
                    Message::new(ds::SUBSCRIBE).with_data(key.into_bytes()),
                );
            }
            ProcEvent::Notify { from } if from == self.ds => {
                self.ds_check(ctx);
            }
            ProcEvent::Request { call, msg } => {
                if let Some(ckpt) = self.ckpt.as_mut() {
                    if ckpt.park_until_restored(ctx, call, msg.clone()) {
                        return;
                    }
                }
                self.queue.push_back((call, msg));
                self.pump(ctx);
            }
            ProcEvent::Reply { call, result } => {
                let ckpt_outcome = match self.ckpt.as_mut() {
                    Some(ckpt) => ckpt.on_reply(ctx, call, &result),
                    None => None,
                };
                if let Some((restore, parked)) = ckpt_outcome {
                    if let RestoreEvent::Restored(snap) = restore {
                        if !self.apply_mount(ctx, &snap.payload) {
                            Self::count(ctx, "mount_restore_garbage");
                        }
                    }
                    for (parked_call, parked_msg) in parked {
                        self.queue.push_back((parked_call, parked_msg));
                    }
                    self.pump(ctx);
                    return;
                }
                if Some(call) == self.check_call {
                    self.check_call = None;
                    if let Ok(reply) = result {
                        if reply.mtype == ds::CHECK_REPLY && reply.param(0) == 0 {
                            let key = String::from_utf8_lossy(&reply.data).to_string();
                            let ep = unpack_endpoint(reply.param(1), reply.param(2));
                            if key == self.driver_key {
                                self.recovery = RecoveryId::from_wire(reply.param(3));
                                self.recovery_parent = SpanId::from_wire(reply.param(4));
                                self.on_driver_published(ctx, ep);
                            }
                            // Drain any further queued updates.
                            self.ds_check(ctx);
                        }
                    }
                    return;
                }
                if Some(call) == self.open_call {
                    self.open_call = None;
                    self.open_seq = None;
                    match result {
                        Ok(reply) if reply.mtype == bdev::REPLY && reply.param(0) == status::OK => {
                            self.driver_open = true;
                            // OPEN replies carry the device capacity, which
                            // feeds the descriptor-checksum cross-check.
                            self.capacity = reply.param(1);
                            // [recovery:begin]
                            // Reissue the pending request, then resume
                            // normal operation (§6.2). The episode id is
                            // consumed here: whatever happens next is
                            // ordinary operation again.
                            let rid = self.recovery.take();
                            let parent = self.recovery_parent.take();
                            if self.active.as_ref().is_some_and(|a| a.waiting_driver) {
                                let ev = ctx
                                    .event(TraceLevel::Info, "reissue pending io".to_string())
                                    .with_field("ev", "resume")
                                    .with_field("driver", self.driver_key.as_str())
                                    .in_recovery_opt(rid)
                                    .with_parent_opt(parent);
                                ctx.trace_event(ev);
                                Self::count(ctx, "reissues");
                                self.issue_chunk(ctx);
                            } else {
                                self.pump(ctx);
                            }
                            // [recovery:end]
                        }
                        Ok(_) => {
                            // A restarted driver answering its reopen with
                            // garbage is as defective as one that never
                            // answers: complain so RS replaces it instead
                            // of waiting forever for a publish that will
                            // never come.
                            self.complain(
                                ctx,
                                evidence::BAD_REPLY,
                                "garbled reply to device reopen",
                            );
                        }
                        // Died before answering: the kernel already told
                        // RS; the restart publish retriggers the reopen.
                        Err(_) => {}
                    }
                    return;
                }
                if self.active.as_ref().and_then(|a| a.driver_call) == Some(call) {
                    self.on_driver_reply(ctx, result);
                }
                // Replies to SUBSCRIBE / COMPLAIN need no action.
            }
            // [recovery:begin]
            ProcEvent::Alarm { token } => {
                // Reopen deadline: no usable reply to the post-restart
                // OPEN within the window. The reply may have been lost in
                // flight (the rendezvous is closed, so no abort will ever
                // wake us) — complain so RS restarts the driver and the
                // resulting publish retriggers the reopen.
                if self.open_seq == Some(token) {
                    self.open_seq = None;
                    self.open_call = None;
                    self.complain(ctx, evidence::DEADLINE, "no reply to device reopen");
                    return;
                }
                // EAGAIN backoff expired: reissue the active chunk (unless
                // something else — a driver restart — already did).
                if self.retry_seq == Some(token) {
                    self.retry_seq = None;
                    let idle = self
                        .active
                        .as_ref()
                        .is_some_and(|a| a.driver_call.is_none() && !a.waiting_driver);
                    if idle {
                        self.issue_chunk(ctx);
                    }
                    return;
                }
                // Driver response deadline: if the same request is still
                // outstanding, the driver "fails to respond to a request"
                // (§5.1) and we ask RS to replace it.
                let stuck = self
                    .active
                    .as_ref()
                    .is_some_and(|a| a.driver_call.is_some() && a.seq == token);
                if stuck {
                    if let Some(a) = self.active.as_mut() {
                        a.driver_call = None;
                        a.waiting_driver = true;
                        if let Some(g) = a.grant.take() {
                            let _ = ctx.grant_revoke(g);
                        }
                    }
                    self.complain(ctx, evidence::DEADLINE, "no response within deadline");
                }
            }
            // [recovery:end]
            _ => {}
        }
    }
}
