//! The committed golden corpus (`golden/`, DESIGN.md § 13) replays in
//! `cargo test`, not only in `scripts/golden.sh`: every task's QoE in
//! every record depends on the simulator's arithmetic, so a change that
//! moves one bit fails here.

use std::fs;
use std::path::{Path, PathBuf};

use ecas_core::record::SessionRecord;
use ecas_core::ReplayVerdict;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden")
}

#[test]
fn every_golden_record_replays_as_pass() {
    let mut paths: Vec<PathBuf> = fs::read_dir(golden_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path().join("record.ecasr"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no golden fixtures found");
    for path in &paths {
        let record = SessionRecord::load(path).unwrap();
        match record.verify().unwrap() {
            ReplayVerdict::Pass { .. } => {}
            other => panic!("{}: {}", path.display(), other.render()),
        }
    }
}

#[test]
fn golden_tablev1_ours_rerecords_byte_identically() {
    let path = golden_dir().join("tablev1-ours/record.ecasr");
    let committed = fs::read(&path).unwrap();
    let fresh = SessionRecord::from_bytes(&committed)
        .unwrap()
        .rerecord()
        .unwrap()
        .to_bytes()
        .unwrap();
    assert!(
        fresh == committed,
        "{}: re-recorded bytes differ ({} vs {} bytes)",
        path.display(),
        fresh.len(),
        committed.len()
    );
}
