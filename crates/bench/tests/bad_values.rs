//! Bad command-line values end to end: each is a typed error with the
//! binary's documented exit code, never a panic and never a silent
//! default.

use std::fs;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs")
}

/// `tracetool mahimahi` bins by a finite, positive width: anything else
/// is `error: bad bin width …` with exit 1, like tracetool's other bad
/// arguments.
#[test]
fn mahimahi_bin_width_must_be_finite_and_positive() {
    let path = std::env::temp_dir().join(format!("ecas-mahimahi-{}.txt", std::process::id()));
    fs::write(&path, "0\n1\n2\n1000\n1001\n").unwrap();
    let packets = path.to_str().unwrap();
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    for width in ["0", "-1", "nan", "inf", "wide"] {
        let out = run(tracetool, &["mahimahi", packets, width]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "width {width}: {stderr}");
        assert!(!stderr.contains("panicked"), "width {width}: {stderr}");
        assert!(
            stderr.contains("error: bad bin width"),
            "width {width}: {stderr}"
        );
    }
    let out = run(tracetool, &["mahimahi", packets, "0.5"]);
    assert!(out.status.success(), "{out:?}");
    fs::remove_file(&path).ok();
}

/// `oracle_fuzz --cases` takes a count of one or more; a value it cannot
/// use is a usage error naming the flag (exit 2), not a default run.
#[test]
fn oracle_fuzz_cases_must_be_a_positive_count() {
    for cases in ["abc", "0", "-3"] {
        let out = run(env!("CARGO_BIN_EXE_oracle_fuzz"), &["--cases", cases]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--cases {cases}: {stderr}");
        assert!(!stderr.contains("panicked"), "--cases {cases}: {stderr}");
        assert!(stderr.contains("--cases"), "--cases {cases}: {stderr}");
        assert!(out.stdout.is_empty(), "--cases {cases} ran a corpus");
    }
}

/// Asserts `out` is one typed `error:` report with exit `code` that names
/// `what`, and that nothing panicked.
fn assert_typed_error(out: &Output, code: i32, what: &str, case: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{case}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    assert!(stderr.contains("error: "), "{case}: {stderr}");
    assert!(stderr.contains(what), "{case}: {stderr}");
}

/// Session durations run from 4 s (two segments) to an hour. Past an
/// hour, synthesis used to panic (`1e308`) or abort on a failed
/// allocation (`1e9`); below 4 s, `fleet` ran a fleet no corpus could
/// record, and `tracetool generate` wrote a trace no record could name.
/// Each binary now rejects the value before it synthesizes anything.
#[test]
fn session_durations_outside_four_seconds_to_an_hour_are_typed_errors() {
    let fleet = env!("CARGO_BIN_EXE_fleet");
    for duration in ["1e308", "1e9", "3600.5", "2", "3.9"] {
        let out = run(fleet, &["--users", "3", "--duration", duration]);
        assert_typed_error(
            &out,
            2,
            "--duration",
            &format!("fleet --duration {duration}"),
        );
        assert!(out.stdout.is_empty(), "fleet --duration {duration} ran");
    }
    let out = run(fleet, &["--users", "3", "--duration", "4"]);
    assert!(out.status.success(), "fleet --duration 4: {out:?}");
    assert!(
        !out.stdout.is_empty(),
        "fleet --duration 4 printed no report"
    );

    let session = env!("CARGO_BIN_EXE_session");
    let dir = std::env::temp_dir().join(format!("ecas-long-session-{}", std::process::id()));
    let record = dir.join("long.ecasr");
    for seconds in ["1e308", "86400"] {
        let out = run(
            session,
            &["record", "--seconds", seconds, record.to_str().unwrap()],
        );
        let case = format!("session record --seconds {seconds}");
        assert_typed_error(&out, 1, "session duration", &case);
        assert!(!record.exists(), "{case} wrote a record");
    }

    let corpus = dir.join("corpus");
    for duration in ["1e308", "86400"] {
        let out = run(
            session,
            &[
                "batch-record",
                "--users",
                "1",
                "--duration",
                duration,
                corpus.to_str().unwrap(),
            ],
        );
        let case = format!("session batch-record --duration {duration}");
        assert_typed_error(&out, 1, "session duration", &case);
        let written = fs::read_dir(&corpus).map_or(0, |entries| entries.count());
        assert_eq!(written, 0, "{case} wrote into the corpus");
    }

    // `tracetool generate` synthesizes through the same recipes.
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let trace = dir.join("x.bin");
    for seconds in ["2", "7200", "1e9", "NaN"] {
        let args = ["generate", "walking", seconds, "7", trace.to_str().unwrap()];
        let out = run(tracetool, &args);
        let case = format!("tracetool generate walking {seconds}");
        assert_typed_error(&out, 1, "session duration", &case);
        assert!(!trace.exists(), "{case} wrote a trace");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Generates the 4 s quiet-room trace into `dir/t.bin` and returns its
/// path and bytes.
fn quiet_trace(dir: &std::path::Path) -> (String, Vec<u8>) {
    fs::create_dir_all(dir).unwrap();
    let path = dir.join("t.bin").to_str().unwrap().to_string();
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let out = run(tracetool, &["generate", "quiet", "4", "1", &path]);
    assert!(out.status.success(), "{out:?}");
    assert!(run(tracetool, &["inspect", &path]).status.success());
    let bytes = fs::read(&path).unwrap();
    (path, bytes)
}

/// Byte offset of a `.bin` trace's `video_length`: after the magic, the
/// version and the length-prefixed name.
fn video_length_at(bytes: &[u8]) -> usize {
    9 + u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize
}

/// Writes `bytes` with the `f64` at `at` replaced by `value` to `path`.
fn patch_f64(path: &str, bytes: &[u8], at: usize, value: f64) {
    let mut bytes = bytes.to_vec();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    fs::write(path, bytes).unwrap();
}

/// A trace file with an accelerometer sample whose magnitude is not
/// finite (an infinite axis, or one whose square overflows) fails to
/// load: `tracetool inspect` prints an `error:` line and exits 1. Loaded,
/// such a trace made the simulator panic in Eq. (5).
#[test]
fn non_finite_accelerometer_magnitudes_fail_to_load() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let dir = std::env::temp_dir().join(format!("ecas-bad-accel-{}", std::process::id()));
    let (path, good) = quiet_trace(&dir);
    // The last 8 bytes of a `.bin` trace are its last accelerometer z axis.
    for axis in [f64::INFINITY, 1e200] {
        patch_f64(&path, &good, good.len() - 8, axis);
        let out = run(tracetool, &["inspect", &path]);
        assert_typed_error(&out, 1, "non-finite", &format!(".bin z = {axis}"));
    }
    fs::remove_dir_all(&dir).ok();
}

/// A trace whose units lie outside their domain fails to load:
/// `tracetool inspect` prints an `error:` line and exits 1. Every value
/// must be finite, and a video length positive and no longer than any
/// recipe synthesizes. Loaded, such a trace made the simulator panic (a
/// negative or zero length: `video shorter than one segment`; +inf:
/// `capacity overflow`; an infinite throughput: a NaN energy) or abort
/// on a failed allocation (1e12 s).
#[test]
fn out_of_domain_units_fail_to_load() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let dir = std::env::temp_dir().join(format!("ecas-bad-units-{}", std::process::id()));
    let (path, good) = quiet_trace(&dir);
    let video_length = video_length_at(&good);
    // Then data size, average vibration, the length-prefixed description,
    // the seed (flag + u64), the network count and the first sample's time.
    let description_at = video_length + 24;
    let description_len =
        u32::from_le_bytes(good[description_at..description_at + 4].try_into().unwrap());
    let throughput = description_at + 4 + description_len as usize + 9 + 4 + 8;
    let mut cases = vec![
        (video_length, -20.0, "Seconds value -20 was negative"),
        (throughput, -5.0, "Mbps value -5 was negative"),
        (throughput, f64::INFINITY, "non-finite throughput"),
    ];
    for value in [f64::INFINITY, 1e12, 0.0, -0.0] {
        cases.push((video_length, value, "video length"));
    }
    for (at, value, what) in cases {
        patch_f64(&path, &good, at, value);
        let out = run(tracetool, &["inspect", &path]);
        assert_typed_error(&out, 1, what, &format!("byte {at} = {value}"));
    }
    fs::remove_dir_all(&dir).ok();
}

/// Traces have one file format. `generate` and `tablev` refuse an output
/// path that does not end in `.bin` before writing anything, and
/// `inspect` reads a JSON file as a `.bin` with a bad magic.
#[test]
fn traces_are_written_and_read_only_as_bin() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let dir = std::env::temp_dir().join(format!("ecas-bin-only-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    for name in ["t.json", "t", "t.bin.json"] {
        let path = dir.join(name);
        let path = path.to_str().unwrap();
        for args in [
            vec!["generate", "quiet", "4", "1", path],
            vec!["tablev", "1", path],
        ] {
            let out = run(tracetool, &args);
            let case = args.join(" ");
            assert_typed_error(&out, 1, ".bin", &case);
            assert!(out.stdout.is_empty(), "{case} printed a result");
            assert_eq!(
                fs::read_dir(&dir).unwrap().count(),
                0,
                "{case} wrote a file"
            );
        }
    }

    let json = dir.join("t.json");
    fs::write(&json, "{\n  \"meta\": {}\n}\n").unwrap();
    let out = run(tracetool, &["inspect", json.to_str().unwrap()]);
    assert_typed_error(&out, 1, "bad magic", "inspect t.json");
    fs::remove_dir_all(&dir).ok();
}

/// `timeline` names approaches by their figure labels in any case.
#[test]
fn timeline_approach_names_ignore_case() {
    let timeline = env!("CARGO_BIN_EXE_timeline");
    for name in ["rate", "RATE", "Adaptive"] {
        let out = run(timeline, &["1", name, "1"]);
        assert!(out.status.success(), "timeline {name}: {out:?}");
    }
    let out = run(timeline, &["1", "foo", "1"]);
    assert_typed_error(&out, 1, "unknown approach", "timeline foo");
    assert!(out.stdout.is_empty(), "timeline foo printed a timeline");
}

/// `session record --approach` names approaches like `timeline` does.
#[test]
fn session_approach_names_ignore_case() {
    let session = env!("CARGO_BIN_EXE_session");
    let dir = std::env::temp_dir().join(format!("ecas-approach-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let record = dir.join("r.ecasr");
    let path = record.to_str().unwrap();
    for name in ["rate", "RATE", "Adaptive"] {
        let args = ["record", "--seconds", "4", "--approach", name, path];
        let out = run(session, &args);
        assert!(out.status.success(), "session --approach {name}: {out:?}");
    }
    // A usage error: exit 2, `session record: unknown approach "foo"; …`.
    let out = run(session, &["record", "--approach", "foo", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("unknown approach \"foo\""), "{stderr}");
    fs::remove_dir_all(&dir).ok();
}
