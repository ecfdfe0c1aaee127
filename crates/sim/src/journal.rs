//! Append-only, checksummed run journals: crash-safe checkpoints that make
//! long sweeps resumable.
//!
//! A journal is a JSONL file. Line 1 is the **header** — the consumer kind
//! (`"scenario"`, `"sweep"`), the [`ScenarioSpec`
//! fingerprint](crate::scenario::ScenarioSpec::fingerprint) (or a
//! grid-level fold of several), and free-form metadata. Every subsequent
//! line is one **record**: a cell key, an arbitrary JSON payload, and an
//! FNV-1a checksum of the payload's canonical compact rendering:
//!
//! ```text
//! {"rcb_journal":2,"kind":"scenario","fingerprint":"9f86d081884c7d65","meta":{...}}
//! {"cell":"spec0/trial0","payload":{...},"fnv":"b94d27b9934d3e08"}
//! ```
//!
//! The trial-record keys and payloads are written by one consumer,
//! [`run_specs_journaled`](crate::executor::run_specs_journaled).
//!
//! Durability model: [`Journal::create`] writes the header at once, so an
//! unwritable path fails before any work runs. After that consumers hold
//! results in memory and call [`Journal::flush`], which rewrites the whole
//! file through a temp file and an atomic rename — a reader (or a resumed
//! run) sees either the old complete journal or the new one, never a
//! blend. The runner flushes once, when a run ends (normally or on a
//! deadline/SIGINT cut), so a process killed outright loses that run's
//! trials. The torn-write window that remains (the process dying
//! mid-`write` before the rename) is exactly why [`Journal::load`]
//! tolerates one unparseable or checksum-failing **final** line: it is
//! dropped and re-run, not fatal. Corruption anywhere earlier is a hard
//! [`JournalError::Corrupt`] — silent data loss in the middle of a journal
//! must never look like a short run.
//!
//! Resume contract: [`Journal::open_resume`] refuses (typed) a journal
//! whose kind or fingerprint does not match the run being resumed. The
//! runner skips completed trials; everything else re-runs from the same
//! seed fold, so a resumed run is bit-identical to an uninterrupted one.
//! Deadline-cut results (wall-clock dependent) are never appended.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::scenario::{fnv1a_bytes, FNV_OFFSET};

/// On-disk format version (the `rcb_journal` header field). Version 2
/// keys every trial record `spec{i}/trial{t}`.
pub const JOURNAL_VERSION: u64 = 2;

/// Identity line of a journal: which consumer wrote it, for which work.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Consumer tag: `"scenario"`, `"sweep"`, …
    pub kind: String,
    /// The spec (or grid) fingerprint the records belong to.
    pub fingerprint: u64,
    /// Free-form consumer metadata (seed, scale, cpus list, …).
    pub meta: Json,
}

impl JournalHeader {
    pub fn new(kind: &str, fingerprint: u64, meta: Json) -> JournalHeader {
        JournalHeader {
            kind: kind.to_string(),
            fingerprint,
            meta,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rcb_journal", Json::Num(JOURNAL_VERSION as f64)),
            ("kind", Json::Str(self.kind.clone())),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("meta", self.meta.clone()),
        ])
    }

    fn from_json(value: &Json) -> Result<JournalHeader, String> {
        match value.get("rcb_journal").and_then(Json::as_u64) {
            Some(JOURNAL_VERSION) => {}
            Some(v) => return Err(format!("unsupported journal version {v}")),
            None => return Err("not an rcb journal (missing `rcb_journal`)".into()),
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("journal header missing `kind`")?
            .to_string();
        let fingerprint = value
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("journal header missing `fingerprint`")?;
        let fingerprint = u64::from_str_radix(fingerprint, 16)
            .map_err(|e| format!("bad journal fingerprint: {e}"))?;
        let meta = value.get("meta").cloned().unwrap_or(Json::Null);
        Ok(JournalHeader {
            kind,
            fingerprint,
            meta,
        })
    }
}

/// Typed journal failures. `Io` and `Corrupt` mean the file is unusable;
/// the two mismatch variants are *refusals* — the journal is intact but
/// belongs to different work, and resuming from it would silently splice
/// results from another run.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    Io(String),
    /// A malformed or checksum-failing line anywhere except the final one.
    Corrupt {
        line: usize,
        reason: String,
    },
    /// The journal's fingerprint does not match the run being resumed.
    FingerprintMismatch {
        expected: u64,
        found: u64,
    },
    /// The journal was written by a different consumer kind.
    KindMismatch {
        expected: String,
        found: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
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

/// An in-memory journal bound to a file path. Records accumulate via
/// [`append`](Journal::append); [`flush`](Journal::flush) persists
/// atomically.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: JournalHeader,
    records: Vec<(String, Json)>,
    index: HashMap<String, usize>,
    dropped_tail: bool,
}

impl Journal {
    /// A fresh, empty journal, its header written to `path` at once
    /// (through the same atomic path as [`flush`](Journal::flush)), so an
    /// unwritable path is a typed [`JournalError::Io`] before any work runs.
    pub fn create(
        path: impl Into<PathBuf>,
        header: JournalHeader,
    ) -> Result<Journal, JournalError> {
        let journal = Journal {
            path: path.into(),
            header,
            records: Vec::new(),
            index: HashMap::new(),
            dropped_tail: false,
        };
        journal.flush()?;
        Ok(journal)
    }

    /// Loads a journal from disk. A torn **final** record line (the
    /// crash-window artifact) is detected — parse failure or checksum
    /// mismatch — and dropped, reported via
    /// [`dropped_tail`](Journal::dropped_tail); the same damage on any
    /// earlier line is [`JournalError::Corrupt`].
    pub fn load(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        let path = path.into();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        // A record line ending without a newline is already suspect: the
        // writer terminates every line. Track that for tail tolerance.
        let mut lines: Vec<&str> = text.split('\n').collect();
        if lines.last() == Some(&"") {
            lines.pop();
        }
        let mut lines = lines.into_iter().enumerate();
        let (_, header_line) = lines.next().ok_or(JournalError::Corrupt {
            line: 1,
            reason: "empty file".into(),
        })?;
        let header = Json::parse(header_line)
            .and_then(|v| JournalHeader::from_json(&v))
            .map_err(|reason| JournalError::Corrupt { line: 1, reason })?;

        let mut journal = Journal {
            path,
            header,
            records: Vec::new(),
            index: HashMap::new(),
            dropped_tail: false,
        };
        let mut pending: Option<(usize, String)> = None;
        for (i, line) in lines {
            if let Some((line_no, reason)) = pending.take() {
                // The damaged line was not the final one after all.
                return Err(JournalError::Corrupt {
                    line: line_no + 1,
                    reason,
                });
            }
            match parse_record(line) {
                Ok((cell, payload)) => journal.insert(cell, payload),
                Err(reason) => pending = Some((i, reason)),
            }
        }
        if pending.is_some() {
            journal.dropped_tail = true;
        }
        Ok(journal)
    }

    /// [`load`](Journal::load), then refuse (typed) a journal whose kind
    /// or fingerprint does not match the run being resumed.
    pub fn open_resume(
        path: impl Into<PathBuf>,
        kind: &str,
        fingerprint: u64,
    ) -> Result<Journal, JournalError> {
        let journal = Journal::load(path)?;
        if journal.header.kind != kind {
            return Err(JournalError::KindMismatch {
                expected: kind.to_string(),
                found: journal.header.kind,
            });
        }
        if journal.header.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                expected: fingerprint,
                found: journal.header.fingerprint,
            });
        }
        Ok(journal)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Was a torn final line discarded at load time?
    pub fn dropped_tail(&self) -> bool {
        self.dropped_tail
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn contains(&self, cell: &str) -> bool {
        self.index.contains_key(cell)
    }

    pub fn get(&self, cell: &str) -> Option<&Json> {
        self.index.get(cell).map(|&i| &self.records[i].1)
    }

    /// Cell keys in append order.
    pub fn cells(&self) -> impl Iterator<Item = &str> {
        self.records.iter().map(|(cell, _)| cell.as_str())
    }

    /// Records a cell result. Re-appending an existing cell replaces its
    /// payload in place (resume paths re-derive identical payloads, so
    /// this is idempotence, not mutation).
    pub fn append(&mut self, cell: impl Into<String>, payload: Json) {
        self.insert(cell.into(), payload);
    }

    fn insert(&mut self, cell: String, payload: Json) {
        match self.index.get(&cell) {
            Some(&i) => self.records[i].1 = payload,
            None => {
                self.index.insert(cell.clone(), self.records.len());
                self.records.push((cell, payload));
            }
        }
    }

    /// Persists atomically: the full JSONL content is written to
    /// `<path>.tmp` and renamed over `<path>`, so readers see either the
    /// previous complete journal or this one.
    pub fn flush(&self) -> Result<(), JournalError> {
        let mut out = String::new();
        out.push_str(&self.header.to_json().render_compact());
        out.push('\n');
        for (cell, payload) in &self.records {
            out.push_str(&render_record(cell, payload));
            out.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        let io = |e: std::io::Error| JournalError::Io(format!("{}: {e}", self.path.display()));
        std::fs::write(&tmp, out.as_bytes()).map_err(io)?;
        std::fs::rename(&tmp, &self.path).map_err(io)
    }
}

fn render_record(cell: &str, payload: &Json) -> String {
    let body = payload.render_compact();
    let fnv = fnv1a_bytes(FNV_OFFSET, body.as_bytes());
    Json::obj(vec![
        ("cell", Json::Str(cell.to_string())),
        ("payload", payload.clone()),
        ("fnv", Json::Str(format!("{fnv:016x}"))),
    ])
    .render_compact()
}

fn parse_record(line: &str) -> Result<(String, Json), String> {
    let value = Json::parse(line)?;
    let cell = value
        .get("cell")
        .and_then(Json::as_str)
        .ok_or("record missing `cell`")?
        .to_string();
    let payload = value.get("payload").ok_or("record missing `payload`")?;
    let recorded = value
        .get("fnv")
        .and_then(Json::as_str)
        .ok_or("record missing `fnv`")?;
    let recorded = u64::from_str_radix(recorded, 16).map_err(|e| format!("bad record fnv: {e}"))?;
    let actual = fnv1a_bytes(FNV_OFFSET, payload.render_compact().as_bytes());
    if actual != recorded {
        return Err(format!(
            "record checksum mismatch: recorded {recorded:016x}, computed {actual:016x}"
        ));
    }
    Ok((cell, payload.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rcb_journal_test_{}_{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn sample_header() -> JournalHeader {
        JournalHeader::new(
            "sweep",
            0x9f86_d081_884c_7d65,
            Json::obj(vec![("seed", Json::Str("2014".into()))]),
        )
    }

    #[test]
    fn create_append_flush_load_round_trips() {
        let path = tmp_path("round_trip");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append(
            "pass1/duel_clean",
            Json::obj(vec![("checksum", Json::Str("00ff".into()))]),
        );
        j.append(
            "pass1/duel_jammed",
            Json::obj(vec![("checksum", Json::Str("abcd".into()))]),
        );
        j.flush().expect("flush");

        let back = Journal::load(&path).expect("load");
        assert_eq!(back.header(), &sample_header());
        assert_eq!(back.len(), 2);
        assert!(back.contains("pass1/duel_clean"));
        assert!(!back.dropped_tail());
        assert_eq!(
            back.get("pass1/duel_jammed")
                .and_then(|p| p.get("checksum"))
                .and_then(Json::as_str),
            Some("abcd")
        );
        assert_eq!(
            back.cells().collect::<Vec<_>>(),
            vec!["pass1/duel_clean", "pass1/duel_jammed"],
            "append order survives"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reappending_a_cell_replaces_in_place() {
        let path = tmp_path("reappend");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append("c", Json::Num(1.0));
        j.append("c", Json::Num(2.0));
        assert_eq!(j.len(), 1);
        assert_eq!(j.get("c"), Some(&Json::Num(2.0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let path = tmp_path("torn_tail");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append("a", Json::Num(1.0));
        j.append("b", Json::Num(2.0));
        j.flush().expect("flush");

        // Simulate a crash mid-write: truncate the final line.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.trim_end().len() - 10;
        std::fs::write(&path, &text[..cut]).expect("write");

        let back = Journal::load(&path).expect("torn tail must not be fatal");
        assert!(back.dropped_tail());
        assert_eq!(back.len(), 1);
        assert!(back.contains("a"));
        assert!(!back.contains("b"), "the torn record is gone");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_damage_on_the_final_line_is_also_dropped() {
        let path = tmp_path("flipped_tail");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append("a", Json::Num(1.0));
        j.append("b", Json::Num(2.0));
        j.flush().expect("flush");

        // Flip the payload of the final line without touching its fnv:
        // still valid JSON, but the checksum no longer matches.
        let text = std::fs::read_to_string(&path).expect("read");
        let damaged = text.replace(r#""payload":2,"#, r#""payload":3,"#);
        assert_ne!(text, damaged, "the substitution must hit");
        std::fs::write(&path, damaged).expect("write");

        let back = Journal::load(&path).expect("damaged tail must not be fatal");
        assert!(back.dropped_tail());
        assert!(!back.contains("b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = tmp_path("mid_corruption");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append("a", Json::Num(1.0));
        j.append("b", Json::Num(2.0));
        j.flush().expect("flush");

        let text = std::fs::read_to_string(&path).expect("read");
        let damaged = text.replace(r#""payload":1,"#, r#""payload":9,"#);
        assert_ne!(text, damaged);
        std::fs::write(&path, damaged).expect("write");

        let err = Journal::load(&path).expect_err("mid-file damage must be fatal");
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_fingerprint_and_kind_mismatches() {
        let path = tmp_path("mismatch");
        Journal::create(&path, sample_header()).expect("create");

        let fp = sample_header().fingerprint;
        assert!(Journal::open_resume(&path, "sweep", fp).is_ok());
        let err = Journal::open_resume(&path, "sweep", fp ^ 1).expect_err("wrong fingerprint");
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("refusing"));
        let err = Journal::open_resume(&path, "scenario", fp).expect_err("wrong kind");
        assert!(matches!(err, JournalError::KindMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = Journal::load("/nonexistent/rcb/journal.jsonl").expect_err("missing file");
        assert!(matches!(err, JournalError::Io(_)));
    }

    #[test]
    fn create_writes_the_header_at_once_and_fails_on_a_missing_directory() {
        let path = tmp_path("created");
        let j = Journal::create(&path, sample_header()).expect("create");
        let back = Journal::load(j.path()).expect("the header is on disk before any flush");
        assert_eq!(back.header(), &sample_header());
        assert!(back.is_empty());
        std::fs::remove_file(&path).ok();

        let missing = std::env::temp_dir()
            .join(format!("rcb_journal_missing_{}", std::process::id()))
            .join("journal.jsonl");
        let err = Journal::create(missing, sample_header()).expect_err("no such directory");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
    }

    #[test]
    fn flush_is_idempotent_and_atomic_over_rewrites() {
        let path = tmp_path("rewrite");
        let mut j = Journal::create(&path, sample_header()).expect("create");
        j.append("a", Json::Num(1.0));
        j.flush().expect("first flush");
        j.append("b", Json::Num(2.0));
        j.flush().expect("second flush");

        let back = Journal::load(&path).expect("load");
        assert_eq!(back.len(), 2);
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "the temp file is consumed by the rename"
        );
        std::fs::remove_file(&path).ok();
    }
}
