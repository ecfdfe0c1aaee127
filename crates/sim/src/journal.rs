//! Checksummed run journals: crash-safe checkpoints that make long sweeps
//! resumable. This module is the only one that knows the on-disk format.
//!
//! A journal is a text file of space-separated words. Line 1 is the
//! **header** — the format version, the consumer [`JournalKind`], and the
//! [`ScenarioSpec` fingerprint](crate::scenario::ScenarioSpec::fingerprint)
//! (or a grid-level fold of several). Every other line is one trial
//! **record**: the spec's index in the run's list, the trial index, the
//! outcome and error words, and the [`fnv1a`] fold of every word before
//! it as exactly 16 hex digits:
//!
//! ```text
//! rcb_journal 3 scenario 24663ae1c7913ade
//! 0 0 0 1 0 3448 2448 65024 130560 1 68024 15 0 0 b696cff74ba8bb15
//! ```
//!
//! Words are decimal `u64`s. An outcome is a tag word (0 duel, 1
//! broadcast, 2 stream), then its fields in declaration order: a bool is
//! 0 or 1, an `Option` is a presence word plus a value (0 when absent),
//! and `node_costs` is prefixed with its length. An error is a tag word
//! (0 none, 1 slot budget, 2 epoch budget, 3 deadline), then its fields.
//!
//! Durability model: the journal is a write-ahead log. [`Journal::create`]
//! writes the header at once, so an unwritable path fails before any work
//! runs, and refuses a path that already exists. The file stays open in
//! append mode, and [`Journal::append`] writes each record as one line
//! the moment its trial finishes, so a process killed by any signal — a
//! SIGKILL or an OOM kill included — keeps every finished trial. Lines
//! are in completion order; a record's `(spec, trial)` key, not its
//! position, says which trial it is. There is no fsync: the contract
//! covers process death, not power loss.
//!
//! A process dying mid-`write` leaves a torn final line, which is why
//! [`Journal::load`] tolerates one malformed, checksum-failing or
//! unterminated **final** line: it is dropped and re-run, not fatal, and
//! [`Journal::open_resume`] truncates it before appending. The same damage
//! anywhere earlier is a hard [`JournalError::Corrupt`] — silent data loss
//! in the middle of a journal must never look like a short run — and so
//! is a record whose checksum verifies but whose words do not decode, or
//! a second record for one trial. Records are decoded at load, before any
//! trial runs.
//!
//! Resume contract: [`Journal::open_resume`] refuses (typed) a journal
//! whose kind or fingerprint does not match the run being resumed. The
//! runner skips completed trials; everything else re-runs from the same
//! seed fold, so a resumed run is bit-identical to an uninterrupted one.
//! Deadline-cut results (wall-clock dependent) are never appended.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::error::SimError;
use crate::outcome::{BroadcastOutcome, DuelOutcome, StreamOutcome};
use crate::scenario::{fnv1a, Outcome, FNV_OFFSET};

/// On-disk format version (the second header word). Version 3 is the
/// word format; versions 1 and 2 were JSONL and are refused.
const JOURNAL_VERSION: u64 = 3;

/// One journaled trial: its outcome and typed engine error.
pub type TrialRecord = (Outcome, Option<SimError>);

/// Which consumer wrote a journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// `rcbsim scenario run --journal`: one registry spec.
    Scenario,
    /// `rcbsim exp --journal-dir`: one budget sweep's spec list.
    Sweep,
}

impl fmt::Display for JournalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JournalKind::Scenario => "scenario",
            JournalKind::Sweep => "sweep",
        })
    }
}

/// Typed journal failures. `Io`, `Corrupt` and `Version` mean the file is
/// unusable; `Exists` and the two mismatch variants are *refusals* — the
/// file is intact, but writing over it or resuming from it would lose
/// results or splice in results from another run.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    Io(String),
    /// [`Journal::create`] found a file at the path.
    Exists(PathBuf),
    /// A malformed, checksum-failing or undecodable line (a malformed,
    /// checksum-failing or unterminated final line is dropped instead).
    Corrupt {
        line: usize,
        reason: String,
    },
    /// A journal in another format version.
    Version(u64),
    /// The journal's fingerprint does not match the run being resumed.
    FingerprintMismatch {
        expected: u64,
        found: u64,
    },
    /// The journal was written by a different consumer kind.
    KindMismatch {
        expected: JournalKind,
        found: JournalKind,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Exists(path) => write!(
                f,
                "journal {path} already exists: continue it with `--resume {path}`, \
                 or choose a new path",
                path = path.display()
            ),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::Version(v) => write!(
                f,
                "unsupported journal version {v} (this build reads version {JOURNAL_VERSION})"
            ),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint mismatch: this run is {expected:016x}, \
                 the journal records {found:016x} — refusing to splice results \
                 from different work"
            ),
            JournalError::KindMismatch { expected, found } => write!(
                f,
                "journal kind mismatch: expected a `{expected}` journal, found `{found}`"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A journal file: the records it held when opened, and — unless it was
/// opened read-only by [`load`](Journal::load) — the file itself, open for
/// [`append`](Journal::append).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    kind: JournalKind,
    fingerprint: u64,
    records: BTreeMap<(usize, u64), TrialRecord>,
    dropped_tail: bool,
    file: Option<Mutex<File>>,
    appended: AtomicUsize,
}

impl Journal {
    /// A fresh, empty journal, its header written to `path` at once, so an
    /// unwritable path is a typed [`JournalError::Io`] before any work
    /// runs, then opened for appending by
    /// [`open_resume`](Journal::open_resume). An existing file at `path`
    /// is never overwritten: that is
    /// [`JournalError::Exists`].
    pub fn create(
        path: impl Into<PathBuf>,
        kind: JournalKind,
        fingerprint: u64,
    ) -> Result<Journal, JournalError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| match e.kind() {
                ErrorKind::AlreadyExists => JournalError::Exists(path.clone()),
                _ => io_error(&path, e),
            })?;
        let header = format!("rcb_journal {JOURNAL_VERSION} {kind} {fingerprint:016x}\n");
        file.write_all(header.as_bytes())
            .map_err(|e| io_error(&path, e))?;
        Journal::open_resume(path, kind, fingerprint)
    }

    /// Loads and decodes a journal, read-only. A malformed,
    /// checksum-failing or unterminated **final** record line (the
    /// crash-window artifact) is dropped and reported via
    /// [`dropped_tail`](Journal::dropped_tail); the same damage on any
    /// earlier line, and a checksummed record that does not decode on any
    /// line, is [`JournalError::Corrupt`].
    pub fn load(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        Journal::read(path.into()).map(|(journal, _)| journal)
    }

    /// [`load`](Journal::load), plus the byte length of the header and the
    /// whole records: everything before a dropped tail.
    fn read(path: PathBuf) -> Result<(Journal, u64), JournalError> {
        let text = std::fs::read_to_string(&path).map_err(|e| io_error(&path, e))?;
        let (header, body) = text.split_once('\n').ok_or(JournalError::Corrupt {
            line: 1,
            reason: "the header line is cut short".into(),
        })?;
        let (kind, fingerprint) = parse_header(header)?;
        let mut journal = Journal {
            path,
            kind,
            fingerprint,
            records: BTreeMap::new(),
            dropped_tail: false,
            file: None,
            appended: AtomicUsize::new(0),
        };
        let mut whole = header.len() + 1;
        let mut torn: Option<JournalError> = None;
        for (i, line) in body.split_inclusive('\n').enumerate() {
            if let Some(err) = torn.take() {
                // The damaged line was not the final one after all.
                return Err(err);
            }
            let corrupt = |reason| JournalError::Corrupt {
                line: i + 2,
                reason,
            };
            let words = line
                .strip_suffix('\n')
                .ok_or_else(|| "the record line is cut short".to_string())
                .and_then(checked_words);
            match words {
                Ok(words) => {
                    let (key, record) = decode(&words).map_err(corrupt)?;
                    if journal.records.insert(key, record).is_some() {
                        return Err(corrupt(format!(
                            "second record for spec {} trial {}",
                            key.0, key.1
                        )));
                    }
                    whole += line.len();
                }
                Err(reason) => torn = Some(corrupt(reason)),
            }
        }
        journal.dropped_tail = torn.is_some();
        Ok((journal, whole as u64))
    }

    /// [`load`](Journal::load), then refuse (typed) a journal whose kind
    /// or fingerprint does not match the run being resumed, then open it
    /// for [`append`](Journal::append) — after truncating a torn final
    /// line, which would otherwise become mid-file damage.
    pub fn open_resume(
        path: impl Into<PathBuf>,
        kind: JournalKind,
        fingerprint: u64,
    ) -> Result<Journal, JournalError> {
        let (mut journal, whole) = Journal::read(path.into())?;
        if journal.kind != kind {
            return Err(JournalError::KindMismatch {
                expected: kind,
                found: journal.kind,
            });
        }
        if journal.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                expected: fingerprint,
                found: journal.fingerprint,
            });
        }
        let io = |e| io_error(&journal.path, e);
        let file = OpenOptions::new()
            .append(true)
            .open(&journal.path)
            .map_err(io)?;
        if journal.dropped_tail {
            file.set_len(whole).map_err(io)?;
        }
        journal.file = Some(Mutex::new(file));
        Ok(journal)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn kind(&self) -> JournalKind {
        self.kind
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Was a torn final line discarded at load time?
    pub fn dropped_tail(&self) -> bool {
        self.dropped_tail
    }

    /// Records loaded plus records appended since.
    pub fn len(&self) -> usize {
        self.records.len() + self.appended.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Was trial `trial` of spec `spec` among the records loaded?
    pub fn contains(&self, spec: usize, trial: u64) -> bool {
        self.records.contains_key(&(spec, trial))
    }

    /// The loaded record of trial `trial` of spec `spec`.
    pub fn get(&self, spec: usize, trial: u64) -> Option<&TrialRecord> {
        self.records.get(&(spec, trial))
    }

    /// Writes trial `trial` of spec `spec` to the file as one line, in a
    /// single `write_all` under a lock, so concurrent workers never
    /// interleave. Append each trial once: a second record for a trial
    /// makes the next load fail as [`JournalError::Corrupt`]. A journal
    /// opened by [`load`](Journal::load) is read-only.
    pub fn append(
        &self,
        spec: usize,
        trial: u64,
        record: &TrialRecord,
    ) -> Result<(), JournalError> {
        let file = self.file.as_ref().ok_or_else(|| {
            JournalError::Io(format!("{}: opened read-only", self.path.display()))
        })?;
        let mut words = vec![spec as u64, trial];
        encode_outcome(&record.0, &mut words);
        encode_error(&record.1, &mut words);
        let mut line = String::new();
        for w in &words {
            write!(line, "{w} ").expect("writing to a String");
        }
        writeln!(line, "{:016x}", fnv1a(FNV_OFFSET, &words)).expect("writing to a String");
        file.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write_all(line.as_bytes())
            .map_err(|e| io_error(&self.path, e))?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn io_error(path: &Path, e: std::io::Error) -> JournalError {
    JournalError::Io(format!("{}: {e}", path.display()))
}

/// Reads `rcb_journal <version> <kind> <fingerprint:016x>`. The JSONL
/// headers of versions 1 and 2 (`{"rcb_journal":2,...`) are recognised so
/// they are refused by version, never misread.
fn parse_header(line: &str) -> Result<(JournalKind, u64), JournalError> {
    let corrupt = |reason: &str| JournalError::Corrupt {
        line: 1,
        reason: reason.to_string(),
    };
    let rest = line
        .strip_prefix("rcb_journal ")
        .or_else(|| line.strip_prefix("{\"rcb_journal\":"))
        .ok_or_else(|| corrupt("not an rcb journal header"))?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let version = rest[..digits]
        .parse::<u64>()
        .map_err(|_| corrupt("the journal header has no version"))?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Version(version));
    }
    let fields: Vec<&str> = rest[digits..].split(' ').collect();
    let kind = match fields[..] {
        ["", "scenario", _] => JournalKind::Scenario,
        ["", "sweep", _] => JournalKind::Sweep,
        _ => {
            return Err(corrupt(
                "the header is not `rcb_journal 3 <kind> <fingerprint>`",
            ))
        }
    };
    let fingerprint = hex_word(fields[2]).ok_or_else(|| corrupt("bad journal fingerprint"))?;
    Ok((kind, fingerprint))
}

/// Exactly 16 hex digits.
fn hex_word(text: &str) -> Option<u64> {
    let hex = text.len() == 16 && text.bytes().all(|b| b.is_ascii_hexdigit());
    u64::from_str_radix(text, 16).ok().filter(|_| hex)
}

/// A record line's words, once its trailing checksum verifies.
fn checked_words(line: &str) -> Result<Vec<u64>, String> {
    let (body, sum) = line.rsplit_once(' ').ok_or("a record has no checksum")?;
    let recorded = hex_word(sum).ok_or_else(|| format!("bad record checksum `{sum}`"))?;
    let words = body
        .split(' ')
        .map(|w| {
            w.parse::<u64>()
                .map_err(|_| format!("bad record word `{w}`"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let actual = fnv1a(FNV_OFFSET, &words);
    if actual != recorded {
        return Err(format!(
            "record checksum mismatch: recorded {recorded:016x}, computed {actual:016x}"
        ));
    }
    Ok(words)
}

fn encode_outcome(outcome: &Outcome, out: &mut Vec<u64>) {
    match outcome {
        Outcome::Duel(o) => out.extend([
            0,
            o.delivered as u64,
            o.bob_premature as u64,
            o.alice_cost,
            o.bob_cost,
            o.adversary_cost,
            o.slots,
            o.delivery_slot.is_some() as u64,
            o.delivery_slot.unwrap_or(0),
            u64::from(o.last_epoch),
            o.truncated as u64,
        ]),
        Outcome::Broadcast(o) => {
            out.extend([
                1,
                o.n as u64,
                o.informed as u64,
                o.all_informed as u64,
                o.all_terminated as u64,
                o.safety_terminations as u64,
                o.node_costs.len() as u64,
            ]);
            out.extend(&o.node_costs);
            out.extend([
                o.adversary_cost,
                o.slots,
                u64::from(o.last_epoch),
                o.truncated as u64,
            ]);
        }
        Outcome::Stream(o) => out.extend([
            2,
            o.n as u64,
            o.arrivals,
            o.delivered,
            o.truncated_msgs,
            o.slots,
            o.adversary_cost,
            o.max_cost,
            o.queue_area,
            o.max_queue,
            o.latency_p50,
            o.latency_p95,
            o.latency_max,
            o.truncated as u64,
        ]),
    }
}

fn encode_error(err: &Option<SimError>, out: &mut Vec<u64>) {
    match *err {
        None => out.push(0),
        Some(SimError::SlotBudgetExhausted { max_slots, slots }) => {
            out.extend([1, max_slots, slots])
        }
        Some(SimError::EpochBudgetExhausted { max_epoch, slots }) => {
            out.extend([2, u64::from(max_epoch), slots])
        }
        Some(SimError::DeadlineExceeded { slots }) => out.extend([3, slots]),
    }
}

/// A cursor over a record's words; every read checks what it decodes.
struct Words<'a>(std::slice::Iter<'a, u64>);

impl Words<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        self.0
            .next()
            .copied()
            .ok_or_else(|| "the record ends early".into())
    }

    fn u32(&mut self) -> Result<u32, String> {
        let w = self.u64()?;
        u32::try_from(w).map_err(|_| format!("{w} overflows a u32 field"))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let w = self.u64()?;
        usize::try_from(w).map_err(|_| format!("{w} overflows a usize field"))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            w => Err(format!("{w} is not a bool")),
        }
    }

    fn option(&mut self) -> Result<Option<u64>, String> {
        match (self.bool()?, self.u64()?) {
            (true, v) => Ok(Some(v)),
            (false, 0) => Ok(None),
            (false, v) => Err(format!("an absent value carries {v}")),
        }
    }
}

/// Inverse of the encoders: `(spec, trial)` and the record, with every
/// word accounted for.
fn decode(words: &[u64]) -> Result<((usize, u64), TrialRecord), String> {
    let mut w = Words(words.iter());
    let key = (w.usize()?, w.u64()?);
    let outcome = match w.u64()? {
        0 => Outcome::Duel(DuelOutcome {
            delivered: w.bool()?,
            bob_premature: w.bool()?,
            alice_cost: w.u64()?,
            bob_cost: w.u64()?,
            adversary_cost: w.u64()?,
            slots: w.u64()?,
            delivery_slot: w.option()?,
            last_epoch: w.u32()?,
            truncated: w.bool()?,
        }),
        1 => Outcome::Broadcast(BroadcastOutcome {
            n: w.usize()?,
            informed: w.usize()?,
            all_informed: w.bool()?,
            all_terminated: w.bool()?,
            safety_terminations: w.usize()?,
            node_costs: {
                let len = w.usize()?;
                if len > w.0.len() {
                    return Err(format!("{len} node costs in a shorter record"));
                }
                w.0.by_ref().take(len).copied().collect()
            },
            adversary_cost: w.u64()?,
            slots: w.u64()?,
            last_epoch: w.u32()?,
            truncated: w.bool()?,
        }),
        2 => Outcome::Stream(StreamOutcome {
            n: w.usize()?,
            arrivals: w.u64()?,
            delivered: w.u64()?,
            truncated_msgs: w.u64()?,
            slots: w.u64()?,
            adversary_cost: w.u64()?,
            max_cost: w.u64()?,
            queue_area: w.u64()?,
            max_queue: w.u64()?,
            latency_p50: w.u64()?,
            latency_p95: w.u64()?,
            latency_max: w.u64()?,
            truncated: w.bool()?,
        }),
        tag => return Err(format!("unknown outcome tag {tag}")),
    };
    let err = match w.u64()? {
        0 => None,
        1 => Some(SimError::SlotBudgetExhausted {
            max_slots: w.u64()?,
            slots: w.u64()?,
        }),
        2 => Some(SimError::EpochBudgetExhausted {
            max_epoch: w.u32()?,
            slots: w.u64()?,
        }),
        3 => Some(SimError::DeadlineExceeded { slots: w.u64()? }),
        tag => return Err(format!("unknown error tag {tag}")),
    };
    match w.0.len() {
        0 => Ok((key, (outcome, err))),
        extra => Err(format!("{extra} words past the end of the record")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "rcb_journal_test_{}_{name}.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        path
    }

    const FP: u64 = 0x9f86_d081_884c_7d65;

    fn duel(slots: u64) -> TrialRecord {
        let o = DuelOutcome {
            delivered: true,
            bob_premature: false,
            alice_cost: u64::MAX,
            bob_cost: (1 << 53) + 1,
            adversary_cost: 7,
            slots,
            delivery_slot: Some(slots + 1),
            last_epoch: u32::MAX,
            truncated: false,
        };
        (Outcome::Duel(o), None)
    }

    fn broadcast() -> TrialRecord {
        let o = BroadcastOutcome {
            n: 3,
            informed: 2,
            all_informed: false,
            all_terminated: true,
            safety_terminations: 1,
            node_costs: vec![4, u64::MAX, 0],
            adversary_cost: 99,
            slots: 1 << 60,
            last_epoch: 12,
            truncated: true,
        };
        let err = SimError::EpochBudgetExhausted {
            max_epoch: 62,
            slots: 1 << 60,
        };
        (Outcome::Broadcast(o), Some(err))
    }

    fn stream() -> TrialRecord {
        let o = StreamOutcome {
            n: 8,
            arrivals: 5,
            delivered: 4,
            truncated_msgs: 1,
            slots: 10_000,
            adversary_cost: 300,
            max_cost: 77,
            queue_area: 1234,
            max_queue: 3,
            latency_p50: 200,
            latency_p95: 900,
            latency_max: 901,
            truncated: false,
        };
        let err = SimError::SlotBudgetExhausted {
            max_slots: 1 << 40,
            slots: u64::MAX,
        };
        (Outcome::Stream(o), Some(err))
    }

    /// A journal of two duel records at `path`.
    fn two_records(path: &Path) -> Journal {
        let j = Journal::create(path, JournalKind::Sweep, FP).expect("create");
        j.append(0, 0, &duel(100)).expect("append");
        j.append(0, 1, &duel(200)).expect("append");
        j
    }

    /// Replaces the record line `line` (1-based) of the file with `text`.
    fn rewrite_line(path: &Path, line: usize, text: &str) {
        let old = std::fs::read_to_string(path).expect("read");
        let mut lines: Vec<&str> = old.lines().collect();
        lines[line - 1] = text;
        std::fs::write(path, lines.join("\n") + "\n").expect("write");
    }

    /// A record line whose checksum verifies over the given words.
    fn checksummed(words: &[u64]) -> String {
        let body: Vec<String> = words.iter().map(u64::to_string).collect();
        format!("{} {:016x}", body.join(" "), fnv1a(FNV_OFFSET, words))
    }

    #[test]
    fn create_append_load_round_trips_every_outcome_kind() {
        let path = tmp_path("round_trip");
        let j = Journal::create(&path, JournalKind::Sweep, FP).expect("create");
        let records = [duel(1 << 62), broadcast(), stream()];
        for (t, record) in records.iter().enumerate() {
            j.append(1, t as u64, record).expect("append");
        }
        let deadline_cut = (duel(5).0, Some(SimError::DeadlineExceeded { slots: 3 }));
        j.append(0, u64::MAX, &deadline_cut).expect("append");
        assert_eq!(j.len(), 4);

        let back = Journal::load(&path).expect("load");
        assert_eq!((back.kind(), back.fingerprint()), (JournalKind::Sweep, FP));
        assert_eq!(back.len(), 4);
        assert!(!back.dropped_tail());
        for (t, record) in records.iter().enumerate() {
            assert_eq!(back.get(1, t as u64), Some(record));
        }
        assert!(back.contains(0, u64::MAX));
        assert!(!back.contains(2, 0));
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(&format!("rcb_journal 3 sweep {FP:016x}\n")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_reach_the_file_at_once_and_a_loaded_journal_is_read_only() {
        let path = tmp_path("append_at_once");
        let j = Journal::create(&path, JournalKind::Sweep, FP).expect("create");
        j.append(0, 7, &duel(1)).expect("append");
        let back = Journal::load(&path).expect("load while the writer is open");
        assert_eq!(back.get(0, 7), Some(&duel(1)));
        let err = back.append(0, 8, &duel(2)).expect_err("read-only");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let path = tmp_path("torn_tail");
        two_records(&path);
        // Simulate a crash mid-write: truncate the final line.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.trim_end().len() - 10;
        std::fs::write(&path, &text[..cut]).expect("write");

        let back = Journal::load(&path).expect("torn tail must not be fatal");
        assert!(back.dropped_tail());
        assert_eq!(back.len(), 1);
        assert!(back.contains(0, 0));
        assert!(!back.contains(0, 1), "the torn record is gone");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_damage_on_the_final_line_is_also_dropped() {
        let path = tmp_path("flipped_tail");
        two_records(&path);
        // Change a word of the final line without touching its checksum.
        let text = std::fs::read_to_string(&path).expect("read");
        let damaged = text.replace(" 200 ", " 300 ");
        assert_ne!(text, damaged, "the substitution must hit");
        std::fs::write(&path, damaged).expect("write");

        let back = Journal::load(&path).expect("damaged tail must not be fatal");
        assert!(back.dropped_tail());
        assert!(!back.contains(0, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_damage_is_fatal_and_names_the_line() {
        let path = tmp_path("mid_corruption");
        two_records(&path);
        let text = std::fs::read_to_string(&path).expect("read");
        let damaged = text.replace(" 100 ", " 900 ");
        assert_ne!(text, damaged);
        std::fs::write(&path, &damaged).expect("write");
        let err = Journal::load(&path).expect_err("mid-file damage must be fatal");
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err:?}"
        );

        // A torn line followed by an intact one is damage, not a tail.
        rewrite_line(&path, 2, "0 0 0 1");
        let err = Journal::load(&path).expect_err("a short mid-file line");
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_checksummed_record_that_does_not_decode_is_fatal_on_any_line() {
        let path = tmp_path("undecodable");
        let bad_records: [&[u64]; 6] = [
            &[0, 1, 9],                                     // unknown outcome tag
            &[0, 1, 0, 2, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0],    // a bool of 2
            &[0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 5, 0, 0, 0],    // absent value of 5
            &[0, 1, 1, 1, 1, 1, 0, 0, 9, 1, 2],             // 9 node costs, 2 present
            &[0, 1, 2, 8],                                  // a stream cut short
            &[0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 7], // a trailing word
        ];
        for words in bad_records {
            // Mid-file and as the final line: a verified checksum means the
            // line was written whole, so a decode failure is never a tail.
            for line in [2, 3] {
                two_records(&path);
                rewrite_line(&path, line, &checksummed(words));
                let err = Journal::load(&path).expect_err("undecodable record");
                assert!(
                    matches!(err, JournalError::Corrupt { line: l, .. } if l == line),
                    "{words:?} on line {line}: {err:?}"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn a_second_record_for_one_trial_is_fatal() {
        let path = tmp_path("duplicate");
        two_records(&path);
        let text = std::fs::read_to_string(&path).expect("read");
        let second = text.lines().nth(1).expect("a record").to_string();
        rewrite_line(&path, 3, &second);
        let err = Journal::load(&path).expect_err("duplicate record");
        assert!(
            matches!(err, JournalError::Corrupt { line: 3, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_fingerprint_and_kind_mismatches() {
        let path = tmp_path("mismatch");
        Journal::create(&path, JournalKind::Sweep, FP).expect("create");

        assert!(Journal::open_resume(&path, JournalKind::Sweep, FP).is_ok());
        let err =
            Journal::open_resume(&path, JournalKind::Sweep, FP ^ 1).expect_err("wrong fingerprint");
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("refusing"));
        let err = Journal::open_resume(&path, JournalKind::Scenario, FP).expect_err("wrong kind");
        assert!(matches!(err, JournalError::KindMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_and_foreign_formats_are_refused() {
        let path = tmp_path("formats");
        let cases = [
            (
                r#"{"rcb_journal":2,"kind":"scenario","fingerprint":"9f86d081884c7d65","meta":{}}"#,
                JournalError::Version(2),
            ),
            (
                r#"{"rcb_journal":1,"kind":"test","fingerprint":"0000000000005eed"}"#,
                JournalError::Version(1),
            ),
            (
                "rcb_journal 4 sweep 9f86d081884c7d65",
                JournalError::Version(4),
            ),
        ];
        for (header, expected) in cases {
            std::fs::write(&path, format!("{header}\n")).expect("write");
            assert_eq!(Journal::load(&path).expect_err(header), expected);
        }
        assert!(JournalError::Version(2)
            .to_string()
            .contains("unsupported journal version 2"));
        for header in [
            "",
            "rcb_journal 3 test 9f86d081884c7d65",
            "rcb_journal 3 sweep 9f86d081",
            "rcb_journal 3 sweep 9f86d081884c7d65 extra",
        ] {
            std::fs::write(&path, format!("{header}\n")).expect("write");
            let err = Journal::load(&path).expect_err(header);
            assert!(
                matches!(err, JournalError::Corrupt { line: 1, .. }),
                "{header}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = Journal::load("/nonexistent/rcb/run.journal").expect_err("missing file");
        assert!(matches!(err, JournalError::Io(_)));
    }

    #[test]
    fn create_writes_the_header_at_once_and_refuses_bad_paths() {
        let path = tmp_path("created");
        let j = Journal::create(&path, JournalKind::Scenario, FP).expect("create");
        let back = Journal::load(j.path()).expect("the header is on disk before any record");
        assert_eq!(
            (back.kind(), back.fingerprint()),
            (JournalKind::Scenario, FP)
        );
        assert!(back.is_empty());

        let err = Journal::create(&path, JournalKind::Scenario, FP).expect_err("exists");
        assert_eq!(err, JournalError::Exists(path.clone()));
        assert!(err.to_string().contains("--resume"), "{err}");
        std::fs::remove_file(&path).ok();

        let missing = std::env::temp_dir()
            .join(format!("rcb_journal_missing_{}", std::process::id()))
            .join("run.journal");
        let err = Journal::create(missing, JournalKind::Scenario, FP).expect_err("no directory");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_counts_loaded_plus_appended() {
        let path = tmp_path("resume_torn");
        two_records(&path);
        let text = std::fs::read_to_string(&path).expect("read");
        // Cut the final record just before its newline: the checksum
        // verifies, but an unterminated line is still a torn write.
        std::fs::write(&path, &text[..text.len() - 1]).expect("write");

        let j = Journal::open_resume(&path, JournalKind::Sweep, FP).expect("resume");
        assert!(j.dropped_tail());
        assert_eq!(j.len(), 1);
        j.append(0, 1, &duel(200)).expect("append");
        j.append(0, 2, &duel(300)).expect("append");
        assert_eq!(j.len(), 3);

        let back = Journal::load(&path).expect("load");
        assert!(!back.dropped_tail(), "the torn line was truncated");
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(0, 1), Some(&duel(200)));
        std::fs::remove_file(&path).ok();
    }
}
