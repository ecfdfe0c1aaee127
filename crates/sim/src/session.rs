//! Protocol sessions: the one engine lifecycle.
//!
//! Every engine runs through a *session*: construct once at a seed, run,
//! and [`Session::rearm`] to run again. A session owns its RNG and its
//! allocations; `rearm` resets protocol state, epoch position, and cost
//! ledgers to slot 0 **without reallocating**, and hands the next run a
//! fresh RNG stream. A run still allocates its outcome (per-node costs),
//! and the exact broadcast session a little more (see
//! [`ExactBroadcastSession`]). After `rearm(seed)`, a session's run is bit-identical
//! to a freshly constructed session at `seed` (certified by the golden
//! suite in `crates/sim/tests/rearm_equivalence.rs`).
//!
//! Three session types live with their engines
//! ([`DuelSession`](crate::duel::DuelSession),
//! [`BroadcastSession`](crate::fast::BroadcastSession),
//! [`CohortSession`](crate::cohort::CohortSession)); this module adds the
//! slot-granular [`ExactBroadcastSession`] and the [`Session`] trait.
//! [`crate::scenario::ScenarioSpec`] maps a (workload, engine) pair to one
//! of them: a single trial runs it once on the trial's RNG, a stream
//! ([`crate::scenario::StreamWorkload`]) drains its message queue through
//! one re-armed session while a single adversary budget spans the stream.
//! The adversary is therefore *not* owned by the session — the caller
//! lends it per run, deciding between runs whether its budget persists
//! ([`crate::scenario::StreamAlloc::Persistent`]) or refills
//! ([`RepetitionAdversary::rearm`],
//! [`crate::scenario::StreamAlloc::PerMessage`]). Only the exact engine
//! keeps a caller-RNG entry point, [`run_exact`](crate::exact::run_exact),
//! for protocol sets no spec can name.

use rcb_adversary::traits::RepetitionAdversary;
use rcb_adversary::RepAsSlotAdversary;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
use rcb_core::protocol::{Rearm, SlotProtocol};
use rcb_mathkit::rng::RcbRng;

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::exact::{run_exact_in, ExactConfig, ExactScratch};
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;

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
    /// The engine's outcome type ([`DuelOutcome`](crate::outcome::DuelOutcome)
    /// or [`BroadcastOutcome`]).
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

/// Crate-private access to a session's own generator, for [`run_on`].
pub(crate) trait OwnsRng {
    fn rng_mut(&mut self) -> &mut RcbRng;
}

/// Runs an armed `session` once on the caller's `rng` instead of its own
/// stream. The two generators are swapped in and out around the run, so
/// the outcome, the error, and `rng`'s final position are exactly those of
/// the engine loop drawing from `rng` directly. This is how a spec's
/// single trial runs as a one-shot session.
pub(crate) fn run_on<S: Session + OwnsRng>(
    session: &mut S,
    rng: &mut RcbRng,
    adversary: &mut dyn RepetitionAdversary,
    deadline: &Deadline,
) -> (S::Outcome, Option<SimError>) {
    std::mem::swap(session.rng_mut(), rng);
    let result = session.run(adversary, deadline);
    std::mem::swap(session.rng_mut(), rng);
    result
}

/// A re-armable slot-granular 1-to-n execution: one [`OneToNSlotNode`] per
/// node driven by the exact engine, with the node vector, schedule,
/// partition, and [`ExactScratch`] (ledger, fault gate, per-slot buffers)
/// all retained across runs. [`rearm`](Self::rearm) resets each node via
/// [`Rearm`] and zeroes the ledger in place. Each run still allocates four
/// `n`-entry vectors: the `&mut dyn SlotProtocol` view of the nodes that
/// the slot loop takes, the [`RepAsSlotAdversary`] wrapper's activity
/// flags, the ledger clone in the engine's outcome and the outcome's node
/// costs. They are small next to a loop over every slot (not measured).
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
        assert!(faults.validate(n).is_ok(), "invalid fault plan");
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
}

impl Session for ExactBroadcastSession {
    type Outcome = BroadcastOutcome;

    /// Re-arms every node and the ledger to slot 0 on a fresh RNG stream,
    /// without allocating (each run arms the fault gate).
    fn rearm(&mut self, seed: u64) {
        for node in &mut self.nodes {
            node.rearm();
        }
        self.scratch.rearm();
        self.rng = RcbRng::new(seed);
    }

    /// The repetition adversary is wrapped in a fresh
    /// [`RepAsSlotAdversary`] per run — its per-repetition cursor starts
    /// clean while the borrowed strategy's budget carries over.
    fn run(
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

impl OwnsRng for ExactBroadcastSession {
    fn rng_mut(&mut self) -> &mut RcbRng {
        &mut self.rng
    }
}
