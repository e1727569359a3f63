//! `session verify <dir>` end to end: a corpus whose `corpus.json` holds a
//! stale trace hash for one record fails verification and names the
//! field, although the record itself still replays.

use std::fs;
use std::process::{Command, Output};

fn session(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_session"))
        .args(args)
        .output()
        .expect("the session binary runs")
}

#[test]
fn verify_names_a_stale_index_trace_hash() {
    let dir = std::env::temp_dir().join(format!("ecas-session-verify-{}", std::process::id()));
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
