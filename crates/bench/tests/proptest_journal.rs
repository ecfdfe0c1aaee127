//! Property tests for the crash-safe run journal: every outcome kind and
//! engine error round-trips through flush → load over the full `u64`
//! range (far above the 2^53 an `f64` holds exactly), and torn-tail
//! recovery — a truncated final record line is detected and dropped,
//! never fatal and never silently misread.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rcb_sim::error::SimError;
use rcb_sim::journal::{Journal, JournalKind, TrialRecord};
use rcb_sim::outcome::StreamOutcome;
use rcb_sim::{BroadcastOutcome, DuelOutcome, Outcome};

/// A unique, absent temp path per proptest case (cases run in one process).
fn case_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "rcb_proptest_journal_{}_{tag}_{n}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// An outcome of kind `tag % 3` whose every field is drawn from `w`.
fn outcome_from(tag: u8, w: &[u64], node_costs: Vec<u64>) -> Outcome {
    match tag % 3 {
        0 => Outcome::Duel(DuelOutcome {
            delivered: w[0] & 1 == 1,
            bob_premature: w[1] & 1 == 1,
            alice_cost: w[2],
            bob_cost: w[3],
            adversary_cost: w[4],
            slots: w[5],
            delivery_slot: (w[6] & 1 == 1).then_some(w[7]),
            last_epoch: w[8] as u32,
            truncated: w[9] & 1 == 1,
        }),
        1 => Outcome::Broadcast(BroadcastOutcome {
            n: w[0] as usize,
            informed: w[1] as usize,
            all_informed: w[2] & 1 == 1,
            all_terminated: w[3] & 1 == 1,
            safety_terminations: w[4] as usize,
            node_costs,
            adversary_cost: w[5],
            slots: w[6],
            last_epoch: w[7] as u32,
            truncated: w[8] & 1 == 1,
        }),
        _ => Outcome::Stream(StreamOutcome {
            n: w[0] as usize,
            arrivals: w[1],
            delivered: w[2],
            truncated_msgs: w[3],
            slots: w[4],
            adversary_cost: w[5],
            max_cost: w[6],
            queue_area: w[7],
            max_queue: w[8],
            latency_p50: w[9],
            latency_p95: w[10],
            latency_max: w[11],
            truncated: w[12] & 1 == 1,
        }),
    }
}

/// No error, or one of the three variants, with fields drawn from `a`, `b`.
fn error_from(tag: u8, a: u64, b: u64) -> Option<SimError> {
    match tag % 4 {
        0 => None,
        1 => Some(SimError::SlotBudgetExhausted {
            max_slots: a,
            slots: b,
        }),
        2 => Some(SimError::EpochBudgetExhausted {
            max_epoch: a as u32,
            slots: b,
        }),
        _ => Some(SimError::DeadlineExceeded { slots: b }),
    }
}

/// The draws behind one record: outcome tag, field words, node costs, and
/// the error's tag and fields.
type RawRecord = (u8, Vec<u64>, Vec<u64>, (u8, u64, u64));

fn raw_record() -> impl Strategy<Value = RawRecord> {
    (
        any::<u8>(),
        prop::collection::vec(any::<u64>(), 13..14),
        prop::collection::vec(any::<u64>(), 0..8),
        (any::<u8>(), any::<u64>(), any::<u64>()),
    )
}

fn record((tag, words, costs, (err, a, b)): RawRecord) -> TrialRecord {
    (outcome_from(tag, &words, costs), error_from(err, a, b))
}

proptest! {
    /// Every record — any outcome kind, any error, every word drawn from
    /// the full `u64` range, under any (spec, trial) key — survives
    /// flush → load exactly, and so do the header's kind and fingerprint.
    #[test]
    fn records_round_trip_the_full_u64_range(
        sweep in any::<bool>(),
        fingerprint in any::<u64>(),
        raw in prop::collection::vec(((0usize..4, any::<u64>()), raw_record()), 0..8),
    ) {
        let path = case_path("round_trip");
        let kind = if sweep { JournalKind::Sweep } else { JournalKind::Scenario };
        let mut journal = Journal::create(&path, kind, fingerprint).expect("create");
        let mut expected = BTreeMap::new();
        for ((spec, trial), raw) in raw {
            let record = record(raw);
            // A repeated key replaces its record, in the journal as here.
            journal.append(spec, trial, record.clone());
            expected.insert((spec, trial), record);
        }
        journal.flush().expect("flush");

        let back = Journal::load(&path).expect("load");
        prop_assert_eq!((back.kind(), back.fingerprint()), (kind, fingerprint));
        prop_assert!(!back.dropped_tail());
        prop_assert_eq!(back.len(), expected.len());
        for (&(spec, trial), record) in &expected {
            prop_assert_eq!(back.get(spec, trial), Some(record));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Crash-window recovery: cutting the file anywhere inside the final
    /// record line loses exactly that record — the load succeeds, every
    /// earlier record is intact, and `dropped_tail` reports whether a torn
    /// fragment (rather than a clean line boundary) was discarded.
    #[test]
    fn torn_final_record_is_dropped_not_fatal(
        raw in prop::collection::vec(raw_record(), 2..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let records: Vec<TrialRecord> = raw.into_iter().map(record).collect();
        let path = case_path("torn_tail");
        let mut journal = Journal::create(&path, JournalKind::Sweep, 7).expect("create");
        for (t, record) in records.iter().enumerate() {
            journal.append(0, t as u64, record.clone());
        }
        journal.flush().expect("flush");

        // Records are written in (spec, trial) order, so the final line is
        // the last trial's; it spans (last_line_start, len-1].
        let text = std::fs::read_to_string(&path).expect("read");
        let trimmed = text.trim_end_matches('\n');
        let last_line_start = trimmed.rfind('\n').expect("header + records") + 1;
        let span = trimmed.len() - last_line_start;
        let cut = last_line_start + ((span as f64) * cut_fraction) as usize;
        std::fs::write(&path, &text[..cut]).expect("truncate");

        let back = Journal::load(&path).expect("a torn tail must never be fatal");
        let kept = records.len() - 1;
        prop_assert_eq!(back.len(), kept, "exactly the last record is lost");
        prop_assert_eq!(
            back.dropped_tail(),
            cut > last_line_start,
            "a fragment was dropped iff the cut left one"
        );
        for (t, record) in records[..kept].iter().enumerate() {
            prop_assert_eq!(back.get(0, t as u64), Some(record), "record {} damaged", t);
        }
        std::fs::remove_file(&path).ok();
    }
}
