//! Property tests for the crash-safe run journal: every outcome kind and
//! engine error round-trips through append → load over the full `u64`
//! range (far above the 2^53 an `f64` holds exactly), and a kill anywhere
//! — the file cut at any byte after its header — loses only the torn
//! record, which a resume truncates and re-runs.

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
    /// append → load exactly, and so do the header's kind and fingerprint.
    #[test]
    fn records_round_trip_the_full_u64_range(
        sweep in any::<bool>(),
        fingerprint in any::<u64>(),
        raw in prop::collection::vec(((0usize..4, any::<u64>()), raw_record()), 0..8),
    ) {
        let path = case_path("round_trip");
        let kind = if sweep { JournalKind::Sweep } else { JournalKind::Scenario };
        let journal = Journal::create(&path, kind, fingerprint).expect("create");
        // Each trial is appended once; a repeated key keeps its last draw.
        let expected: BTreeMap<(usize, u64), TrialRecord> =
            raw.into_iter().map(|(key, raw)| (key, record(raw))).collect();
        for (&(spec, trial), record) in &expected {
            journal.append(spec, trial, record).expect("append");
        }

        let back = Journal::load(&path).expect("load");
        prop_assert_eq!((back.kind(), back.fingerprint()), (kind, fingerprint));
        prop_assert!(!back.dropped_tail());
        prop_assert_eq!(back.len(), expected.len());
        for (&(spec, trial), record) in &expected {
            prop_assert_eq!(back.get(spec, trial), Some(record));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Kill anywhere: cutting the file at any byte after the header keeps
    /// exactly the whole records before the cut. `open_resume` succeeds,
    /// truncates the torn fragment, and once the missing records are
    /// appended a fresh load sees the uncut record set with no dropped
    /// tail and no corruption.
    #[test]
    fn torn_final_record_is_dropped_not_fatal(
        raw in prop::collection::vec(raw_record(), 1..6),
        cut_fraction in 0.0f64..=1.0,
    ) {
        let records: Vec<TrialRecord> = raw.into_iter().map(record).collect();
        let path = case_path("torn_tail");
        let journal = Journal::create(&path, JournalKind::Sweep, 7).expect("create");
        let header_len = std::fs::metadata(&path).expect("stat").len() as usize;
        for (t, record) in records.iter().enumerate() {
            journal.append(0, t as u64, record).expect("append");
        }
        drop(journal);

        let text = std::fs::read_to_string(&path).expect("read");
        let cut = header_len + ((text.len() - header_len) as f64 * cut_fraction) as usize;
        std::fs::write(&path, &text[..cut]).expect("truncate");
        let kept = text[header_len..cut].matches('\n').count();
        let whole = text[..cut].rfind('\n').expect("the header line") + 1;

        let resumed = Journal::open_resume(&path, JournalKind::Sweep, 7)
            .expect("a torn tail must never be fatal");
        prop_assert_eq!(resumed.len(), kept, "exactly the whole records survive");
        prop_assert_eq!(resumed.dropped_tail(), cut > whole, "a fragment was dropped iff the cut left one");
        for (t, record) in records.iter().enumerate() {
            let t = t as u64;
            let expected = (t < kept as u64).then_some(record);
            prop_assert_eq!(resumed.get(0, t), expected, "record {} after the cut", t);
            if expected.is_none() {
                resumed.append(0, t, record).expect("append");
            }
        }
        drop(resumed);

        let back = Journal::load(&path).expect("no corruption after the resume");
        prop_assert!(!back.dropped_tail());
        prop_assert_eq!(back.len(), records.len());
        for (t, record) in records.iter().enumerate() {
            prop_assert_eq!(back.get(0, t as u64), Some(record));
        }
        std::fs::remove_file(&path).ok();
    }
}
