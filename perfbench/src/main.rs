//! `perfbench` — the whole-run benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|grid|grid-warm|corpus> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one `name value unit` line per metric, then one JSON result
//! line. Scratch files go under `.perfbench/` in the working directory;
//! a traced run also leaves its span table there.

use std::path::PathBuf;
use std::process::ExitCode;

use ecas_perfbench::{report, Config, Sizes, Workload};

const USAGE: &str = "usage: perfbench --workload <fleet|grid|grid-warm|corpus> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Scratch and output directory, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::BENCHMARK,
        work_dir: PathBuf::from(OUT_DIR).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        fault: None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match ecas_perfbench::run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(&config.work_dir);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} trace={} jobs={} units={}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        outcome.jobs,
        outcome.units
    );
    if let Some(table) = &outcome.spans {
        let summary = table.summary();
        let unit_s = summary
            .iter()
            .find(|s| s.name.ends_with(".unit"))
            .map_or(0.0, |s| s.total_s);
        eprintln!(
            "{:<22} {:>6} {:>12} {:>12} {:>8}",
            "span", "units", "total_s", "self_s", "share"
        );
        for s in &summary {
            eprintln!(
                "{:<22} {:>6} {:>12.6} {:>12.6} {:>8.4}",
                s.name,
                s.units,
                s.total_s,
                s.self_s,
                if unit_s > 0.0 {
                    s.total_s / unit_s
                } else {
                    0.0
                }
            );
        }
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-seed{}.tsv",
            config.workload.name(),
            config.seed
        ));
        if let Err(e) = table.write_tsv(&path) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for metric in &outcome.lines {
        println!("{}", metric.line());
    }
    println!(
        "{}",
        report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.result
        )
    );
    ExitCode::SUCCESS
}
