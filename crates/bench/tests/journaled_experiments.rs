//! An experiment that submits its cells as a spec list is journaled by
//! `--journal-dir`: a fresh journal and a full resume from it both print
//! exactly what the unjournaled run prints.

use rcb_bench::experiments::common::SweepControl;
use rcb_bench::experiments::e15_fault_degradation;
use rcb_bench::Scale;

#[test]
fn e15_prints_the_same_report_plain_journaled_and_resumed() {
    let scale = Scale {
        trial_factor: 0,
        ..Scale::quick()
    };
    let dir = std::env::temp_dir().join(format!("rcb_e15_journal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journaled = SweepControl {
        journal_dir: Some(dir.clone()),
        deadline: None,
    };

    let plain = e15_fault_degradation::run(&scale, &SweepControl::default()).expect("plain run");
    let fresh = e15_fault_degradation::run(&scale, &journaled).expect("journaled run");
    let journals: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the journal dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter(|name| {
            let name = name.to_string_lossy();
            name.starts_with("sweep_") && name.ends_with(".journal")
        })
        .collect();
    let resumed = e15_fault_degradation::run(&scale, &journaled).expect("resumed run");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!journals.is_empty(), "E15 wrote no sweep journal");
    assert_eq!(plain.text, fresh.text, "journaling changed the report");
    assert_eq!(plain.text, resumed.text, "resuming changed the report");
}
