//! A journaled `rcbsim scenario run` killed outright (SIGKILL, as an OOM
//! kill would) keeps every trial it finished, and `--resume` completes it
//! with the straight run's determinism checksum.

use std::path::Path;
use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

const RCBSIM: &str = env!("CARGO_BIN_EXE_rcbsim");
/// Eight trials of about half a second each in a release build.
const SCENARIO: &str = "bcast_n256_jammed";
const TRIALS: usize = 8;

/// Complete record lines after the header.
fn records(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|text| text.matches('\n').count().saturating_sub(1))
        .unwrap_or(0)
}

/// The `determinism checksum` line of a finished run.
fn checksum(extra: &[&str]) -> String {
    let out = Command::new(RCBSIM)
        .args(["scenario", "run", SCENARIO])
        .args(extra)
        .output()
        .expect("spawn rcbsim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{extra:?} failed: {stdout}");
    stdout
        .lines()
        .find(|l| l.starts_with("determinism checksum"))
        .unwrap_or_else(|| panic!("{extra:?} printed no checksum: {stdout}"))
        .to_string()
}

#[test]
fn a_sigkilled_run_keeps_its_finished_trials_and_resumes_bit_identically() {
    let journal =
        std::env::temp_dir().join(format!("rcb_sigkill_test_{}.journal", std::process::id()));
    std::fs::remove_file(&journal).ok();
    let journal_arg = journal.to_str().expect("a UTF-8 temp path");

    let mut child = Command::new(RCBSIM)
        .args(["scenario", "run", SCENARIO, "--journal", journal_arg])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn rcbsim");
    let started = Instant::now();
    while records(&journal) == 0 {
        assert!(
            child.try_wait().expect("poll rcbsim").is_none(),
            "the run ended before any record reached the journal"
        );
        assert!(
            started.elapsed() < Duration::from_secs(300),
            "no record within 300 s"
        );
        sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL rcbsim");
    child.wait().expect("reap rcbsim");

    let kept = records(&journal);
    assert!(
        (1..TRIALS).contains(&kept),
        "{kept} of {TRIALS} records survived the kill"
    );
    assert_eq!(checksum(&["--resume", journal_arg]), checksum(&[]));
    std::fs::remove_file(&journal).ok();
}
