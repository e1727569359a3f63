//! `session verify <dir>` end to end: a corpus whose `corpus.json` holds a
//! stale trace hash for one record fails verification and names the
//! field, although the record itself still replays; a record whose header
//! holds an η no runner accepts is its own `FAIL` line.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use ecas_core::record::SECTION_SCENARIO;
use ecas_core::trace::record::RecordContainer;

fn session(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_session"))
        .args(args)
        .output()
        .expect("the session binary runs")
}

/// Records a three-user corpus into a fresh temp directory named by `tag`.
fn record_corpus(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-session-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let corpus = dir.to_str().expect("temp paths are UTF-8");
    let recorded = session(&[
        "batch-record",
        "--users",
        "3",
        "--seed",
        "7",
        "--duration",
        "20",
        corpus,
    ]);
    assert!(recorded.status.success(), "{recorded:?}");
    dir
}

/// Rewrites the record at `path` with its header's `"eta":0.5` set to
/// `1.5`, re-encoding the container so its content hash still holds.
fn set_header_eta(path: &Path) {
    let container = RecordContainer::decode(&fs::read(path).unwrap()).unwrap();
    let mut tampered = RecordContainer::new();
    for section in container.sections() {
        let mut payload = section.payload.clone();
        if section.tag == SECTION_SCENARIO {
            let header = String::from_utf8(payload).unwrap();
            assert!(header.contains("\"eta\":0.5,"), "{header}");
            payload = header.replace("\"eta\":0.5,", "\"eta\":1.5,").into_bytes();
        }
        tampered.push(section.tag, payload);
    }
    fs::write(path, tampered.encode()).unwrap();
}

#[test]
fn verify_names_a_stale_index_trace_hash() {
    let dir = record_corpus("verify");
    let corpus = dir.to_str().expect("temp paths are UTF-8");
    let clean = session(&["verify", corpus]);
    assert!(clean.status.success(), "{clean:?}");

    let index = dir.join("corpus.json");
    let text = fs::read_to_string(&index).unwrap();
    let field = "\"trace_hash\": ";
    let start = text.find(field).unwrap() + field.len();
    let end = start + text[start..].find(',').unwrap();
    let hash: u64 = text[start..end].parse().unwrap();
    let stale = hash ^ 1;
    fs::write(&index, format!("{}{stale}{}", &text[..start], &text[end..])).unwrap();

    let verified = session(&["verify", corpus]);
    let stdout = String::from_utf8(verified.stdout).unwrap();
    assert_eq!(verified.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!(
            ": corpus.json trace_hash {stale} but the record has {hash}\n"
        )),
        "{stdout}"
    );
    assert!(stdout.ends_with("records=3 failures=1\n"), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// A record whose header says η = 1.5 decodes to a typed error, where
/// replaying it used to panic: `verify` gives it one `FAIL` line and
/// still passes the other records.
#[test]
fn a_record_with_an_out_of_range_eta_fails_alone() {
    let dir = record_corpus("eta");
    let corpus = dir.to_str().expect("temp paths are UTF-8");
    let mut records: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ecasr"))
        .collect();
    records.sort();
    assert_eq!(records.len(), 3);
    set_header_eta(&records[0]);

    let verified = session(&["verify", corpus]);
    let stdout = String::from_utf8(verified.stdout).unwrap();
    let stderr = String::from_utf8(verified.stderr).unwrap();
    assert_eq!(verified.status.code(), Some(1), "{stdout}{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    let fail = format!("FAIL {}: ", records[0].display());
    assert!(lines[0].starts_with(&fail), "{stdout}");
    assert!(lines[0].ends_with("eta 1.5 is outside [0, 1]"), "{stdout}");
    for (line, record) in lines[1..].iter().zip(&records[1..]) {
        let pass = format!("PASS {} ", record.display());
        assert!(line.starts_with(&pass), "{stdout}");
    }
    assert_eq!(lines[3..], ["records=3 failures=1"]);
    fs::remove_dir_all(&dir).ok();
}
