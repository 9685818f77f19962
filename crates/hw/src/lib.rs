//! Emulated hardware for the Phoenix failure-resilient OS.
//!
//! The paper's experiments run against real devices (a RealTek 8139 NIC, a
//! DP8390 NIC inside Bochs, a SATA disk); this crate provides register-level
//! models of those devices plus the character devices of §6.3, all behind a
//! [`bus::Bus`] that implements the kernel's `Platform` trait.
//!
//! * [`bus`] — the device bus, the [`bus::Device`] trait, and the wire +
//!   [`bus::RemotePeer`] plumbing that connects a NIC model to a simulated
//!   far end (the "Internet server" of Fig. 7).
//! * [`rtl8139`] — RealTek 8139 with a DMA rx ring in driver memory.
//! * [`dp8390`] — DP8390/NE2000 with card-local memory and remote DMA.
//! * [`disk`] — SATA disk and floppy with synthetic content and realistic
//!   timing; disk I/O is idempotent, which is what makes transparent block
//!   driver recovery possible (§6.2).
//! * [`chardev`] — printer, audio DAC, and SCSI CD burner, whose streams
//!   cannot be transparently replayed (§6.3).
//!
//! Device models can be *wedged* by buggy driver writes (configurable
//! probability) such that only [`bus::Bus::hard_reset`] — the "low-level
//! BIOS reset" of §7.2 — revives them.

pub mod bus;
pub mod chardev;
pub mod disk;
pub mod dp8390;
pub mod rtl8139;
pub mod uart;

pub use bus::{Bus, DevCtx, Device, PeerCtx, RemotePeer, WireConfig};
pub use chardev::{AudioDac, Printer, ScsiCdBurner};
pub use disk::{DiskDevice, DiskModel, DiskTiming};
pub use dp8390::Dp8390;
pub use rtl8139::Rtl8139;
pub use uart::Uart;
