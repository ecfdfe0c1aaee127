//! # rcb-adversary
//!
//! Adversary strategies for the paper's threat model (§1.2): an *adaptive*
//! jammer that knows the protocol and every action taken in **previous**
//! slots, but not the random bits of the current slot. Her budget is finite
//! and unknown to the good nodes; each (group, slot) jammed costs one unit,
//! as does each spoofed transmission (Theorem 5 model).
//!
//! Two granularities of strategy exist, matching the two simulation engines:
//!
//! * [`RepetitionAdversary`] — plans a whole 2^i-slot repetition at once;
//!   every planned jammer is one, and runs on every engine. Lemma 1 of the
//!   paper proves that within a phase/repetition, jamming a *suffix* is
//!   without loss of generality, so the canonical plans are suffix plans;
//!   explicit slot sets serve the non-canonical jammers of E11;
//! * [`SlotAdversary`] — consulted every slot by the exact engine, which
//!   runs a repetition strategy through [`RepAsSlotAdversary`];
//!   [`slot_strategies`] holds the few that no plan can express.
//!
//! The lower-bound constructions get dedicated modules: [`threshold`]
//! implements Theorem 2's `a_i·b_i > 1/T` rule and [`spoof`] the Theorem 5
//! jam-or-impersonate choice.

pub mod adapter;
pub mod error;
pub mod rep_strategies;
pub mod slot_strategies;
pub mod spoof;
pub mod threshold;
pub mod traits;

pub use adapter::{JamTarget, RepAsSlotAdversary};
pub use error::AdversaryConfigError;
pub use rep_strategies::{
    BanditBlocker, BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, RandomRep, SuffixFractionRep,
};
pub use slot_strategies::{NackSpoofer, NoJam, ReactiveJammer};
pub use spoof::SpoofScenario;
pub use threshold::ThresholdAdversary;
pub use traits::{
    JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary, SlotAdversary, SlotContext,
    SlotObservation,
};
