//! Cross-engine conformance harness.
//!
//! The fast engines ([`crate::duel`], [`crate::fast`]) must agree with the
//! exact slot-level engine ([`crate::exact`]) *in distribution* — they
//! consume randomness differently, so trajectories cannot match run-for-run.
//! This module packages the two tools that check the agreement:
//!
//! * [`differ`] — a statistical differ: paired trial batches on both
//!   engines over a grid of (profile, adversary, budget) cells, with
//!   Mann–Whitney and Kolmogorov–Smirnov verdicts per metric. Both engines
//!   run **the same** adversary policy — the exact engine through
//!   [`rcb_adversary::RepAsSlotAdversary`] — so a rejection means engine
//!   drift, not adversary drift.
//! * [`replay`] — a trace-level replayer: feeds a slot log recorded by the
//!   exact engine through the phase-level state machines
//!   ([`AliceState`](rcb_core::one_to_one::state::AliceState) /
//!   [`BobState`](rcb_core::one_to_one::state::BobState)) to localize the
//!   first slot at which semantics drift, something a distributional
//!   verdict cannot do.
//!
//! The `rcbsim conformance` CLI subcommand runs the default grid.

pub mod differ;
pub mod replay;

pub use differ::{
    default_grid, run_grid, AdversarySpec, Cell, CellReport, ConformanceConfig, GridReport,
    MetricVerdict,
};
pub use replay::{
    replay_broadcast_trace, replay_duel_trace, BroadcastReplay, Divergence, DuelReplay,
};
