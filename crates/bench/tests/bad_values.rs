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
