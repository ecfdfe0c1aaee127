//! Re-armable protocol sessions: construct once, run many times.
//!
//! The engine entry points ([`run_duel`](crate::duel::run_duel),
//! [`run_broadcast`](crate::fast::run_broadcast),
//! [`run_cohort`](crate::cohort::run_cohort),
//! [`run_exact`](crate::exact::run_exact)) follow a construct-run-discard
//! lifecycle: every execution
//! allocates fresh protocol state, runs it to completion, and drops it. A
//! *session* keeps the allocation alive across executions:
//! [`Session::rearm`] resets protocol state, epoch position, and cost
//! ledgers to slot 0 **without reallocating**, and hands the next run a
//! fresh RNG stream. After `rearm(seed)`, a session's run is bit-identical
//! to a freshly constructed instance at `seed` (certified by the golden
//! suite in `crates/sim/tests/rearm_equivalence.rs`).
//!
//! Sessions are the substrate of the streaming workload
//! ([`crate::scenario::StreamWorkload`]): a queue of messages drains
//! through one re-armed session while a single adversary budget spans the
//! stream. The adversary is therefore *not* owned by the session — the
//! caller lends it per run, deciding between runs whether its budget
//! persists ([`crate::scenario::StreamAlloc::Persistent`]) or refills
//! ([`RepetitionAdversary::rearm`],
//! [`crate::scenario::StreamAlloc::PerMessage`]).
//!
//! Three session types live with their engines ([`DuelSession`],
//! [`BroadcastSession`], [`CohortSession`]); this module adds the
//! slot-granular [`ExactBroadcastSession`] and the [`Session`] trait that
//! unifies the broadcast-shaped ones for the streaming loop.

use rcb_adversary::traits::RepetitionAdversary;
use rcb_adversary::RepAsSlotAdversary;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
use rcb_core::one_to_one::profile::DuelProfile;
use rcb_core::protocol::{Rearm, SlotProtocol};
use rcb_mathkit::rng::RcbRng;

use crate::cohort::CohortSession;
use crate::deadline::Deadline;
use crate::duel::DuelSession;
use crate::error::SimError;
use crate::exact::{run_exact_in, ExactConfig, ExactScratch};
use crate::fast::BroadcastSession;
use crate::faults::FaultPlan;
use crate::outcome::{BroadcastOutcome, DuelOutcome};

/// A re-armable protocol execution: state is retained between runs and
/// reset in place by [`rearm`](Session::rearm).
///
/// Contract: `rearm(seed)` followed by `run(..)` produces an outcome (and
/// consumes adversary state) bit-identical to a freshly constructed
/// session at `seed` running the same adversary. A session must be armed
/// — just constructed, or re-armed since its previous run — before each
/// `run` call; running twice without a `rearm` in between continues the
/// RNG stream over terminal protocol state and is unspecified.
pub trait Session {
    /// The engine's outcome type ([`DuelOutcome`] or [`BroadcastOutcome`]).
    type Outcome;

    /// Resets protocol state, epoch position, and cost ledgers to slot 0
    /// without reallocating, and replaces the RNG with `RcbRng::new(seed)`.
    fn rearm(&mut self, seed: u64);

    /// Runs one execution against `adversary` on the session's RNG.
    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (Self::Outcome, Option<SimError>);
}

impl<P: DuelProfile> Session for DuelSession<P> {
    type Outcome = DuelOutcome;

    fn rearm(&mut self, seed: u64) {
        DuelSession::rearm(self, seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (DuelOutcome, Option<SimError>) {
        DuelSession::run(self, adversary, deadline)
    }
}

impl Session for BroadcastSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        BroadcastSession::rearm(self, seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        BroadcastSession::run(self, adversary, deadline)
    }
}

impl Session for CohortSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        CohortSession::rearm(self, seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        CohortSession::run(self, adversary, deadline)
    }
}

/// A re-armable slot-granular 1-to-n execution: one [`OneToNSlotNode`] per
/// node driven by the exact engine, with the node vector, schedule,
/// partition, and [`ExactScratch`] (ledger + per-slot buffers) all retained
/// across runs. [`rearm`](Self::rearm) resets each node via [`Rearm`] and
/// zeroes the ledger in place.
#[derive(Debug)]
pub struct ExactBroadcastSession {
    n: usize,
    nodes: Vec<OneToNSlotNode>,
    schedule: OneToNSchedule,
    partition: Partition,
    scratch: ExactScratch,
    config: ExactConfig,
    faults: FaultPlan,
    rng: RcbRng,
}

impl ExactBroadcastSession {
    /// # Panics
    ///
    /// Panics on `n == 0`, an empty or out-of-range `sources` list, or an
    /// invalid fault plan — the same preconditions the fast engines assert.
    pub fn new(
        params: OneToNParams,
        n: usize,
        sources: Vec<usize>,
        config: ExactConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(
            sources.iter().all(|&s| s < n),
            "source id out of range (n = {n})"
        );
        assert!(faults.validate().is_ok(), "invalid fault plan");
        let nodes: Vec<OneToNSlotNode> = (0..n)
            .map(|u| OneToNSlotNode::new(params, sources.contains(&u)))
            .collect();
        Self {
            n,
            nodes,
            schedule: OneToNSchedule::new(params),
            partition: Partition::uniform(n),
            scratch: ExactScratch::new(n),
            config,
            faults,
            rng: RcbRng::new(seed),
        }
    }

    /// Re-arms every node, the ledger, and the fault flags to slot 0 on a
    /// fresh RNG stream, reusing every allocation.
    pub fn rearm(&mut self, seed: u64) {
        for node in &mut self.nodes {
            node.rearm();
        }
        self.scratch.rearm();
        self.rng = RcbRng::new(seed);
    }

    /// Runs one execution against `adversary` on the session's RNG. The
    /// session must be armed (just constructed, or [`rearm`](Self::rearm)
    /// since the previous run). The repetition adversary is wrapped in a
    /// fresh [`RepAsSlotAdversary`] per run — its per-repetition cursor
    /// starts clean while the borrowed strategy's budget carries over.
    pub fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        let mut refs: Vec<&mut dyn SlotProtocol> = Vec::with_capacity(self.n);
        for node in self.nodes.iter_mut() {
            refs.push(node);
        }
        let mut adv = RepAsSlotAdversary::broadcast(adversary, self.n);
        let (out, err) = run_exact_in(
            &mut self.scratch,
            &mut refs,
            &mut adv,
            &self.schedule,
            &self.partition,
            &mut self.rng,
            self.config,
            None,
            &self.faults,
            deadline,
        );
        let informed = self.nodes.iter().filter(|v| v.received_message()).count();
        (
            BroadcastOutcome {
                n: self.n,
                informed,
                all_informed: informed == self.n,
                all_terminated: out.completed,
                safety_terminations: 0, // not tracked at slot granularity
                node_costs: (0..self.n).map(|u| out.ledger.node_cost(u)).collect(),
                adversary_cost: out.ledger.adversary_cost(),
                slots: out.slots,
                last_epoch: 0, // not tracked by the exact engine
                truncated: !out.completed,
            },
            err,
        )
    }
}

impl Session for ExactBroadcastSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        ExactBroadcastSession::rearm(self, seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        ExactBroadcastSession::run(self, adversary, deadline)
    }
}
