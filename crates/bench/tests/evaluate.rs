//! `evaluate <scenario.json>` end to end: the template it prints runs to
//! the built-in report byte for byte, and a scenario no grid can run is
//! `error: bad scenario <path>: …` with exit 1, never a panic.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn evaluate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .args(args)
        .output()
        .expect("the evaluate binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-evaluate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn the_printed_template_reproduces_the_default_report() {
    let dir = temp_dir("template");
    let template = evaluate(&["--print-template"]);
    assert!(template.status.success(), "{template:?}");
    assert!(String::from_utf8_lossy(&template.stdout).contains(r#""TableV""#));
    let path = dir.join("template.json");
    fs::write(&path, &template.stdout).unwrap();

    let default = evaluate(&[]);
    let from_file = evaluate(&[path.to_str().unwrap()]);
    assert!(default.status.success() && from_file.status.success());
    assert!(!default.stdout.is_empty());
    assert_eq!(from_file.stdout, default.stdout);
    fs::remove_dir_all(&dir).ok();
}

/// A scenario file over the given JSON values.
fn scenario(traces: &str, approaches: &str, eta: f64, fault: &str) -> String {
    format!(
        r#"{{"name":"bad","traces":{traces},"approaches":{approaches},"eta":{eta},"fault":{fault}}}"#
    )
}

#[test]
fn unrunnable_scenarios_are_typed_errors() {
    let (row_1, pair) = (r#"[{"TableV":{"id":1}}]"#, r#"["Youtube","Ours"]"#);
    let bad_fault = r#"{"seed":1,"outages_per_minute":0.0,"outage_min":1.0,"outage_max":2.0,"failure_probability":2.0,"collapses_per_minute":0.0,"collapse_min":1.0,"collapse_max":2.0,"collapse_factor":0.5}"#;
    let short = r#"[{"Synthetic":{"context":"Walking","seconds":1.0,"seed":1}}]"#;
    let user_3 =
        |seed| format!(r#"{{"Fleet":{{"users":9,"seed":{seed},"index":3,"mean_duration_s":30}}}}"#);
    let twins = format!("[{},{}]", user_3(1), user_3(2));
    let files = [
        scenario(row_1, pair, 1.5, "null"),
        scenario(r#"[{"TableV":{"id":9}}]"#, pair, 0.5, "null"),
        scenario(row_1, r#"["Ours"]"#, 0.5, "null"),
        scenario(row_1, "[]", 0.5, "null"),
        scenario(row_1, pair, 0.5, bad_fault),
        scenario(short, pair, 0.5, "null"),
        scenario(&twins, pair, 0.5, "null"),
        scenario("[]", pair, 0.5, "null"),
    ];
    // What stderr must name, file by file.
    let expected = [
        "eta 1.5 is outside [0, 1]",
        "trace id 9 is out of range",
        "must include Youtube",
        "must include Youtube",
        "invalid fault spec",
        "session duration 1 s",
        "two traces are named u3",
        "at least one trace",
    ];
    let dir = temp_dir("bad");
    for (i, (json, expected)) in files.iter().zip(expected).enumerate() {
        let path = dir.join(format!("case{i}.json"));
        fs::write(&path, json).unwrap();
        let shown = path.to_str().unwrap();
        let out = evaluate(&[shown]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{expected}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let error = format!("error: bad scenario {shown}: ");
        assert!(
            stderr.contains(&error) && stderr.contains(expected),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{expected}: a report was printed");
    }
    // An observed run of a bad scenario creates no artifact directory.
    let obs = dir.join("obs");
    let case_0 = dir.join("case0.json");
    let observed = evaluate(&["--obs", obs.to_str().unwrap(), case_0.to_str().unwrap()]);
    assert_eq!(observed.status.code(), Some(1));
    assert!(!obs.exists(), "{} was created", obs.display());
    fs::remove_dir_all(&dir).ok();
}
