//! Property tests for the crash-safe run journal and the JSON layer under
//! it: `Json::Str` round trips over the full scalar range, raw and forced
//! through `\uXXXX` surrogate-pair escapes; record payloads across the
//! same range; and torn-tail recovery — a truncated final record line is
//! detected and dropped, never fatal and never silently misread.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rcb_sim::journal::{Journal, JournalHeader};
use rcb_sim::json::Json;

/// Builds a valid Unicode string from arbitrary code points, exercising
/// escapes, multi-byte characters, and astral-plane surrogate pairs.
fn string_from(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
        .collect()
}

/// A unique temp path per proptest case (cases run in one process).
fn case_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rcb_proptest_journal_{}_{tag}_{n}.jsonl",
        std::process::id()
    ))
}

fn header_from(kind_codes: &[u32], fingerprint: u64) -> JournalHeader {
    JournalHeader::new(
        &string_from(kind_codes),
        fingerprint,
        Json::obj(vec![("note", Json::Str(string_from(kind_codes)))]),
    )
}

proptest! {
    /// `Json::Str` survives render → parse for every Unicode scalar,
    /// including astral-plane characters the renderer emits raw.
    #[test]
    fn json_strings_round_trip_over_the_full_char_range(
        codes in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let s = string_from(&codes);
        let text = Json::Str(s.clone()).render();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "reparse failed: {:?}", back.err());
        let parsed = back.unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// The same strings forced through `\uXXXX` escaping — every char
    /// encoded as its UTF-16 units, so non-BMP characters arrive as
    /// surrogate pairs the parser must recombine.
    #[test]
    fn json_forced_utf16_escapes_round_trip(
        codes in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let s = string_from(&codes);
        let mut text = String::from("[\"");
        for unit in s.encode_utf16() {
            text.push_str(&format!("\\u{unit:04x}"));
        }
        text.push_str("\"]");
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "reparse failed: {:?}", back.err());
        let arr = back.unwrap();
        let items = arr.as_arr().expect("array document");
        prop_assert_eq!(items[0].as_str(), Some(s.as_str()));
    }

    /// Every record — arbitrary Unicode cell keys, arbitrary Unicode
    /// string payloads, arbitrary header metadata — survives
    /// flush → load byte-exactly, with append order and the per-record
    /// FNV-1a checksums intact.
    #[test]
    fn journal_records_round_trip_the_full_scalar_range(
        kind in prop::collection::vec(any::<u32>(), 1..8),
        fingerprint in any::<u64>(),
        cells in prop::collection::vec(
            (prop::collection::vec(any::<u32>(), 0..12),
             prop::collection::vec(any::<u32>(), 0..24)),
            0..8,
        ),
    ) {
        let path = case_path("round_trip");
        let header = header_from(&kind, fingerprint);
        let mut journal = Journal::create(&path, header.clone()).expect("create");
        let mut expected: Vec<(String, String)> = Vec::new();
        for (i, (key_codes, payload_codes)) in cells.iter().enumerate() {
            // The index prefix keeps keys unique: a duplicate key is
            // replace-in-place by contract, which would change the count.
            let key = format!("cell{i}/{}", string_from(key_codes));
            let payload = string_from(payload_codes);
            journal.append(&key, Json::obj(vec![("v", Json::Str(payload.clone()))]));
            expected.push((key, payload));
        }
        journal.flush().expect("flush");

        let back = Journal::load(&path).expect("load");
        prop_assert_eq!(back.header(), &header);
        prop_assert!(!back.dropped_tail());
        prop_assert_eq!(back.len(), expected.len());
        let keys: Vec<&str> = back.cells().collect();
        for (i, (key, payload)) in expected.iter().enumerate() {
            prop_assert_eq!(keys[i], key.as_str(), "append order must survive");
            let got = back.get(key).and_then(|p| p.get("v")).and_then(Json::as_str);
            prop_assert_eq!(got, Some(payload.as_str()));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Crash-window recovery: cutting the file anywhere inside the final
    /// record line loses exactly that record — the load succeeds, every
    /// earlier record is intact, and `dropped_tail` reports whether a torn
    /// fragment (rather than a clean line boundary) was discarded.
    #[test]
    fn torn_final_record_is_dropped_not_fatal(
        payload_codes in prop::collection::vec(
            prop::collection::vec(any::<u32>(), 0..16),
            2..6,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let path = case_path("torn_tail");
        let mut journal = Journal::create(&path, header_from(&[0x70], 7)).expect("create");
        for (i, codes) in payload_codes.iter().enumerate() {
            journal.append(
                format!("cell{i}"),
                Json::obj(vec![("v", Json::Str(string_from(codes)))]),
            );
        }
        journal.flush().expect("flush");

        let text = std::fs::read_to_string(&path).expect("read");
        // The final record line spans (last_line_start, len-1]; pick a cut
        // inside it, then walk back to a char boundary so the file stays
        // valid UTF-8 (a mid-code-point tear is an IO-level concern the
        // line-level tolerance does not model).
        let trimmed = text.trim_end_matches('\n');
        let last_line_start = trimmed.rfind('\n').expect("header + records") + 1;
        let span = trimmed.len() - last_line_start;
        let mut cut = last_line_start + ((span as f64) * cut_fraction) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        std::fs::write(&path, &text[..cut]).expect("truncate");

        let back = Journal::load(&path).expect("a torn tail must never be fatal");
        prop_assert_eq!(back.len(), payload_codes.len() - 1, "exactly the last record is lost");
        prop_assert_eq!(
            back.dropped_tail(),
            cut > last_line_start,
            "a fragment was dropped iff the cut left one"
        );
        for (i, codes) in payload_codes[..payload_codes.len() - 1].iter().enumerate() {
            let got = back
                .get(&format!("cell{i}"))
                .and_then(|p| p.get("v"))
                .and_then(Json::as_str)
                .map(str::to_string);
            prop_assert_eq!(got, Some(string_from(codes)), "record {} damaged", i);
        }
        std::fs::remove_file(&path).ok();
    }
}
