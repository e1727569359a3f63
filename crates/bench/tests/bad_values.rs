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

/// A trace file with an accelerometer sample whose magnitude is not
/// finite (an infinite axis, or one whose square overflows) fails to
/// load: `tracetool inspect` prints an `error:` line and exits 1. Loaded,
/// such a trace made the simulator panic in Eq. (5).
#[test]
fn non_finite_accelerometer_magnitudes_fail_to_load() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let dir = std::env::temp_dir().join(format!("ecas-bad-accel-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("t.bin");
    let json = dir.join("t.json");
    for path in [&bin, &json] {
        let path = path.to_str().unwrap();
        let out = run(tracetool, &["generate", "quiet", "4", "1", path]);
        assert!(out.status.success(), "{out:?}");
        assert!(
            run(tracetool, &["inspect", path]).status.success(),
            "{path}"
        );
    }

    // The last 8 bytes of a `.bin` trace are its last accelerometer z axis.
    let good = fs::read(&bin).unwrap();
    for axis in [f64::INFINITY, 1e200] {
        let mut bytes = good.clone();
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&axis.to_le_bytes());
        fs::write(&bin, bytes).unwrap();
        let out = run(tracetool, &["inspect", bin.to_str().unwrap()]);
        assert_typed_error(&out, 1, "non-finite", &format!(".bin z = {axis}"));
    }

    // Only accelerometer samples have a "z" field; JSON reads `1e999` as
    // infinity.
    let good = fs::read_to_string(&json).unwrap();
    let at = good.rfind("\"z\":").unwrap() + "\"z\":".len();
    let end = at + good[at..].find('\n').unwrap();
    for axis in ["1e999", "1e200"] {
        fs::write(&json, format!("{} {axis}{}", &good[..at], &good[end..])).unwrap();
        let out = run(tracetool, &["inspect", json.to_str().unwrap()]);
        assert_typed_error(&out, 1, "non-finite", &format!(".json z = {axis}"));
    }
    fs::remove_dir_all(&dir).ok();
}

/// A JSON trace whose units lie outside their domain fails to load like
/// the same value in a `.bin` trace: `tracetool inspect` prints an
/// `error:` line and exits 1. Loaded, a negative video length would
/// panic the simulator.
#[test]
fn out_of_domain_json_units_fail_to_load() {
    let tracetool = env!("CARGO_BIN_EXE_tracetool");
    let dir = std::env::temp_dir().join(format!("ecas-bad-units-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let json = dir.join("t.json");
    let path = json.to_str().unwrap();
    let out = run(tracetool, &["generate", "quiet", "4", "1", path]);
    assert!(out.status.success(), "{out:?}");
    let good = fs::read_to_string(&json).unwrap();
    for (field, value) in [("video_length", "-20"), ("throughput", "-5")] {
        let key = format!("\"{field}\": ");
        let at = good.find(&key).unwrap() + key.len();
        let end = at + good[at..].find([',', '\n']).unwrap();
        fs::write(&json, format!("{}{value}{}", &good[..at], &good[end..])).unwrap();
        let out = run(tracetool, &["inspect", path]);
        assert_typed_error(&out, 1, "negative", &format!("{field} = {value}"));
    }
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
