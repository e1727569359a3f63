//! `tracetool` end to end: the `.bin` bytes `tablev 1` writes and the
//! summary `inspect` prints of them are pinned, so a change to the trace
//! writer or reader shows here as well as in the library's own tests.

use std::fs;
use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("the tracetool binary runs")
}

#[test]
fn table_v_row_one_writes_and_inspects_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("ecas-tracetool-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t1.bin");
    let path = path.to_str().unwrap();

    let out = tracetool(&["tablev", "1", path]);
    assert!(out.status.success(), "{out:?}");
    // Table V row 1's content hash, as the sweep's key pin holds it.
    let bytes = fs::read(path).unwrap();
    assert_eq!(bytes.len(), 323_332);
    assert_eq!(ecas_obs::fnv1a_64(&bytes), 0x690b_438c_3390_39b3);

    let out = tracetool(&["inspect", path]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "\
name:           trace1
description:    synthetic regeneration of Table V trace 1 (avg vibration 6.83 m/s^2)
video length:   198 s
data size:      65.1 MB
avg vibration:  6.59 m/s^2
seed:           3970238721
throughput:     p25 6.1 / p50 8.5 / p75 10.6 Mbps (mean 8.5)
signal:         p25 -97.0 / p50 -95.6 / p75 -94.3 dBm
below 5.8 Mbps: 24% of the time
accel channel:  9901 samples at ~50 Hz
"
    );
    fs::remove_dir_all(&dir).ok();
}
