//! # rcb-channel
//!
//! The slotted, single-hop, single-channel wireless substrate of the paper's
//! network model (§1.2):
//!
//! * time is divided into discrete **slots**;
//! * in a slot each node **sends**, **listens**, or **sleeps**; sending and
//!   listening cost one unit of energy, sleeping is free;
//! * if two or more messages are sent in a slot, a **collision** occurs and
//!   listeners hear only noise (clear-channel assessment distinguishes
//!   *noise* from a *clear* slot, but cannot tell jamming from collisions);
//! * an **ℓ-uniform adversary** partitions the nodes into at most ℓ groups,
//!   each of which experiences its own jamming schedule; jamming one group
//!   for one slot costs the adversary one unit;
//! * the broadcast message `m` is **authenticated**: the adversary may spoof
//!   other payloads (nack/ack, in the Theorem 5 model) but cannot forge `m`.
//!
//! This crate is purely mechanism: given everyone's actions for a slot, it
//! resolves what each listener hears and charges the energy ledger. Policy
//! (protocols, adversary strategies) lives in `rcb-core`, `rcb-baselines`,
//! and `rcb-adversary`.

pub mod battery;
pub mod ledger;
pub mod message;
pub mod partition;
pub mod slot;
pub mod trace;

pub use battery::{BankruptcyReport, Battery};
pub use ledger::EnergyLedger;
pub use message::{Payload, PayloadKind};
pub use partition::Partition;
pub use slot::{
    resolve_slot, Action, ChannelState, GroupOutOfRange, JamDecision, Reception, SlotResolution,
};
pub use trace::{Group0State, ReceptionKind, SlotRecord, Trace};

/// Index of a node in the system. The broadcast sender is conventionally
/// node 0 in the 1-to-n protocol and "Alice" in the 1-to-1 protocol.
pub type NodeId = usize;

/// A discrete time slot index.
pub type Slot = u64;

/// Index of a jamming-partition group (ℓ-uniform adversary, §1.2).
pub type GroupId = usize;
