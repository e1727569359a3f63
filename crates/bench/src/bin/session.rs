//! `session` — record, replay, verify, diff and inspect `.ecasr`
//! session records and record corpora (see `ecas-core`'s `record` and
//! `corpus` modules, DESIGN.md § 13–14).
//!
//! ```text
//! session record       [scenario flags] <out.ecasr>
//! session batch-record [fleet flags] [--jobs n] [--batch n] <dir>
//! session replay       <record.ecasr>
//! session verify       [--jobs n] [--filter substr] <path>...
//! session inspect      [--json] <record.ecasr>
//! session rerecord     <record.ecasr> <out.ecasr>
//! session diff         <corpus-a> <corpus-b>
//! ```
//!
//! `record` runs a scenario and writes the record; `batch-record` runs
//! a whole fleet (or the Table V set) through the worker pool into a
//! content-addressable corpus directory; `replay` reconstructs the
//! result from the stored event log alone through the replay oracle;
//! `verify` diffs that reconstruction against the stored reference for
//! every given record file or corpus directory (exit 1 on any
//! divergence; a directory also fails on each indexed record that is
//! missing and each record its `corpus.json` does not list) — the
//! golden-corpus CI gate drives it over `golden/**/*.ecasr`; `diff`
//! compares two corpora record-by-record.
//!
//! Exit codes: 0 success, 1 failed verification/divergence or runtime
//! error, 2 usage error (bad flag value, conflicting flags).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ecas_bench::cli::Args;
use ecas_bench::Cli;
use ecas_core::corpus::{self, CorpusOptions, VerifyOptions};
use ecas_core::record::{RecordScenario, RecordedSession, SessionRecord};
use ecas_core::sim::FaultSpec;
use ecas_core::trace::record::RecordContainer;
use ecas_core::trace::Context;
use ecas_core::Approach;

fn cli() -> Cli {
    Cli::new(
        "session",
        "record, replay and verify .ecasr session records",
    )
    .subcommand(
        Cli::new("record", "run a scenario and write a session record")
            .option("--tablev", "id", "use a Table V evaluation trace (1..5)")
            .option(
                "--context",
                "ctx",
                "synthetic context: quiet | walking | vehicle | commute",
            )
            .option("--seconds", "s", "synthetic session duration (default: 60)")
            .option("--seed", "n", "synthetic generator seed (default: 1)")
            .option(
                "--approach",
                "label",
                "controller under test (default: Ours)",
            )
            .option("--eta", "f", "energy/QoE weighting factor (default: 0.5)")
            .option("--fault", "intensity", "fault injection intensity in [0,1]")
            .option("--fault-seed", "n", "fault-injection seed (default: 1)")
            .positional("out", "output record path (.ecasr)"),
    )
    .subcommand(
        Cli::new(
            "batch-record",
            "record a fleet into a keyed corpus directory",
        )
        .switch(
            "--tablev",
            "record the five Table V traces instead of a fleet",
        )
        .option("--users", "n", "fleet size (default: 8)")
        .option("--seed", "n", "fleet seed (default: 1)")
        .option("--duration", "s", "nominal session duration (default: 60)")
        .option(
            "--approach",
            "label",
            "controller under test (default: Ours)",
        )
        .option("--eta", "f", "energy/QoE weighting factor (default: 0.5)")
        .option("--fault", "intensity", "fault injection intensity in [0,1]")
        .option("--fault-seed", "n", "fault-injection seed (default: 1)")
        .option("--jobs", "n", "recording workers (default: auto)")
        .option("--batch", "n", "scenarios per pool dispatch (default: 256)")
        .positional("dir", "corpus output directory"),
    )
    .subcommand(
        Cli::new("replay", "reconstruct the result from the stored log alone")
            .positional("record", "record file (.ecasr)"),
    )
    .subcommand(
        Cli::new(
            "verify",
            "replay each record and diff against its reference",
        )
        .option("--jobs", "n", "verification workers (default: auto)")
        .option(
            "--filter",
            "substr",
            "only verify records whose label contains <substr>",
        )
        .positional("path", "record file (.ecasr) or corpus directory")
        .trailing("paths", "further record files or corpus directories"),
    )
    .subcommand(
        Cli::new("inspect", "print a record's scenario, metrics and timeline")
            .switch("--json", "emit the machine-readable manifest instead")
            .positional("record", "record file (.ecasr)"),
    )
    .subcommand(
        Cli::new(
            "rerecord",
            "re-run a record's scenario and write the fresh record",
        )
        .positional("record", "record file (.ecasr)")
        .positional("out", "output record path (.ecasr)"),
    )
    .subcommand(
        Cli::new(
            "diff",
            "compare two corpora record-by-record at oracle tolerance",
        )
        .positional("corpus-a", "first corpus directory")
        .positional("corpus-b", "second corpus directory"),
    )
}

/// How a subcommand failed: `Usage` is the caller's fault (exit 2, with
/// a hint), `Fail` is a runtime failure (exit 1).
enum CmdError {
    Usage(String),
    Fail(String),
}

impl CmdError {
    fn fail<E: std::fmt::Display>(e: E) -> Self {
        CmdError::Fail(e.to_string())
    }
}

fn main() -> ExitCode {
    let parsed = cli().parse();
    let Some((name, sub)) = parsed.subcommand() else {
        return ExitCode::from(2);
    };
    let result = match name {
        "record" => record(sub),
        "batch-record" => batch_record(sub),
        "replay" => replay(sub),
        "verify" => verify(sub),
        "inspect" => inspect(sub),
        "rerecord" => rerecord(sub),
        "diff" => diff(sub),
        _ => return ExitCode::from(2),
    };
    match result {
        Ok(code) => code,
        Err(CmdError::Usage(msg)) => {
            eprintln!("session {name}: {msg}");
            eprintln!("run `session {name} --help` for usage");
            ExitCode::from(2)
        }
        Err(CmdError::Fail(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The positional at `index`, as a usage error when absent — the parser
/// enforces required positionals, so this is the audited, panic-free
/// path to them (never `positionals()[i]`).
fn positional<'a>(args: &'a Args, index: usize, name: &str) -> Result<&'a str, CmdError> {
    args.positional(index)
        .ok_or_else(|| CmdError::Usage(format!("missing required argument <{name}>")))
}

fn parse_f64(args: &Args, flag: &str, default: f64) -> Result<f64, CmdError> {
    match args.option(flag) {
        Some(v) => v
            .parse()
            .map_err(|e| CmdError::Usage(format!("bad {flag}: {e}"))),
        None => Ok(default),
    }
}

fn parse_u64(args: &Args, flag: &str, default: u64) -> Result<u64, CmdError> {
    match args.option(flag) {
        Some(v) => v
            .parse()
            .map_err(|e| CmdError::Usage(format!("bad {flag}: {e}"))),
        None => Ok(default),
    }
}

/// Rejects flags that the selected mode silently ignored before: each
/// present flag in `flags` is a usage error naming the conflict.
fn reject_ignored(args: &Args, flags: &[&str], conflict: &str) -> Result<(), CmdError> {
    for flag in flags {
        if args.option(flag).is_some() {
            return Err(CmdError::Usage(format!(
                "{flag} has no effect with {conflict}; drop {flag}"
            )));
        }
    }
    Ok(())
}

fn parse_approach(args: &Args) -> Result<Approach, CmdError> {
    let label = args.option("--approach").unwrap_or("Ours");
    Approach::all()
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| {
            let labels: Vec<&str> = Approach::all().iter().map(Approach::label).collect();
            CmdError::Usage(format!(
                "unknown approach {label:?}; known: {}",
                labels.join(", ")
            ))
        })
}

/// Parses `--fault`/`--fault-seed`. A `--fault-seed` without `--fault`
/// used to be silently ignored; it is a usage error now.
fn parse_fault(args: &Args) -> Result<Option<FaultSpec>, CmdError> {
    match args.option("--fault") {
        Some(v) => {
            let intensity: f64 = v
                .parse()
                .map_err(|e| CmdError::Usage(format!("bad --fault: {e}")))?;
            if !(0.0..=1.0).contains(&intensity) {
                return Err(CmdError::Usage(format!(
                    "--fault {intensity} is outside [0, 1]"
                )));
            }
            let fault_seed = parse_u64(args, "--fault-seed", 1)?;
            Ok(Some(FaultSpec::scaled(intensity, fault_seed)))
        }
        None => {
            if args.option("--fault-seed").is_some() {
                return Err(CmdError::Usage(
                    "--fault-seed has no effect without --fault; add --fault or drop --fault-seed"
                        .to_string(),
                ));
            }
            Ok(None)
        }
    }
}

fn scenario_from_args(args: &Args) -> Result<RecordScenario, CmdError> {
    let session = match (args.option("--tablev"), args.option("--context")) {
        (Some(_), Some(_)) => {
            return Err(CmdError::Usage(
                "--tablev and --context are mutually exclusive".to_string(),
            ))
        }
        (Some(id), None) => {
            // Table V traces are fully determined by their id; synthetic
            // generator knobs used to be silently ignored here.
            reject_ignored(args, &["--seconds", "--seed"], "--tablev")?;
            RecordedSession::TableV {
                id: id
                    .parse()
                    .map_err(|e| CmdError::Usage(format!("bad --tablev: {e}")))?,
            }
        }
        (None, ctx) => {
            let seconds = parse_f64(args, "--seconds", 60.0)?;
            let seed = parse_u64(args, "--seed", 1)?;
            match ctx.unwrap_or("walking") {
                "quiet" => RecordedSession::Synthetic {
                    context: Context::QuietRoom,
                    seconds,
                    seed,
                },
                "walking" => RecordedSession::Synthetic {
                    context: Context::Walking,
                    seconds,
                    seed,
                },
                "vehicle" => RecordedSession::Synthetic {
                    context: Context::MovingVehicle,
                    seconds,
                    seed,
                },
                "commute" => RecordedSession::Commute { seconds, seed },
                other => return Err(CmdError::Usage(format!("unknown context {other:?}"))),
            }
        }
    };
    Ok(RecordScenario {
        session,
        approach: parse_approach(args)?,
        eta: parse_f64(args, "--eta", 0.5)?,
        fault: parse_fault(args)?,
    })
}

fn record(args: &Args) -> Result<ExitCode, CmdError> {
    let out = positional(args, 0, "out")?;
    let scenario = scenario_from_args(args)?;
    let record = SessionRecord::record(scenario).map_err(CmdError::fail)?;
    record.save(out).map_err(CmdError::fail)?;
    println!(
        "recorded {} ({} events, {} tasks) -> {out}",
        record.scenario.label(),
        record.log.len(),
        record.reference.tasks.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn batch_record(args: &Args) -> Result<ExitCode, CmdError> {
    let dir = PathBuf::from(positional(args, 0, "dir")?);
    let approach = parse_approach(args)?;
    let eta = parse_f64(args, "--eta", 0.5)?;
    let fault = parse_fault(args)?;
    let scenarios = if args.switch("--tablev") {
        reject_ignored(args, &["--users", "--seed", "--duration"], "--tablev")?;
        corpus::tablev_scenarios(approach, eta, fault)
    } else {
        let users = parse_u64(args, "--users", 8)?;
        let seed = parse_u64(args, "--seed", 1)?;
        let duration = parse_f64(args, "--duration", 60.0)?;
        corpus::fleet_scenarios(users, seed, duration, approach, eta, fault)
    };
    let batch = match args.option("--batch") {
        Some(v) => v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
            CmdError::Usage(format!("bad --batch: {v:?} is not a positive count"))
        })?,
        None => CorpusOptions::default().batch,
    };
    let options = CorpusOptions {
        jobs: args.jobs().unwrap_or(0),
        batch,
    };
    let index = corpus::batch_record(&dir, &scenarios, &options).map_err(CmdError::fail)?;
    println!(
        "recorded {} records ({} scenarios) -> {}",
        index.entries.len(),
        scenarios.len(),
        dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn replay(args: &Args) -> Result<ExitCode, CmdError> {
    let path = positional(args, 0, "record")?;
    let record = SessionRecord::load(path).map_err(CmdError::fail)?;
    let result = record.replay().map_err(CmdError::fail)?;
    println!("replayed {}", record.scenario.label());
    println!(
        "energy {:.3} J, mean qoe {:.4}, rebuffer {:.3} s, startup {:.3} s, tasks {}",
        result.total_energy().value(),
        result.mean_qoe.value(),
        result.total_rebuffer.value(),
        result.startup_delay.value(),
        result.tasks.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn verify(args: &Args) -> Result<ExitCode, CmdError> {
    let mut inputs: Vec<&str> = vec![positional(args, 0, "path")?];
    inputs.extend(args.trailing().iter().map(String::as_str));
    let mut paths: Vec<PathBuf> = Vec::with_capacity(inputs.len());
    let mut dirs = Vec::new();
    for input in inputs {
        let path = PathBuf::from(input);
        if path.is_dir() {
            paths.extend(corpus::list(&path).map_err(CmdError::fail)?);
            dirs.push(path);
        } else {
            paths.push(path);
        }
    }
    let options = VerifyOptions {
        jobs: args.jobs().unwrap_or(0),
        filter: args.option("--filter").map(str::to_string),
    };
    let mut summary = corpus::verify(&paths, &options);
    let mut findings = Vec::new();
    for dir in &dirs {
        findings.extend(corpus::index_findings(dir, &summary).map_err(CmdError::fail)?);
    }
    summary.add_findings(findings);
    print!("{}", summary.render());
    Ok(if summary.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn inspect(args: &Args) -> Result<ExitCode, CmdError> {
    let path = positional(args, 0, "record")?;
    let bytes = std::fs::read(path).map_err(CmdError::fail)?;
    let record = SessionRecord::from_bytes(&bytes).map_err(CmdError::fail)?;
    if args.switch("--json") {
        let content_hash = RecordContainer::stored_hash(&bytes).unwrap_or(0);
        let manifest = record.manifest(content_hash);
        let json = serde_json::to_string(&manifest).map_err(CmdError::fail)?;
        println!("{json}");
    } else {
        print!("{}", record.render_report());
    }
    Ok(ExitCode::SUCCESS)
}

fn rerecord(args: &Args) -> Result<ExitCode, CmdError> {
    let source = positional(args, 0, "record")?;
    let out = positional(args, 1, "out")?;
    let record = SessionRecord::load(source).map_err(CmdError::fail)?;
    let fresh = record.rerecord().map_err(CmdError::fail)?;
    fresh.save(out).map_err(CmdError::fail)?;
    let identical =
        record.to_bytes().map_err(CmdError::fail)? == fresh.to_bytes().map_err(CmdError::fail)?;
    println!(
        "rerecorded {} -> {out} ({})",
        record.scenario.label(),
        if identical {
            "byte-identical"
        } else {
            "DIVERGED from the stored record"
        }
    );
    if identical {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(CmdError::Fail(
            "re-recording did not reproduce the stored bytes".to_string(),
        ))
    }
}

fn diff(args: &Args) -> Result<ExitCode, CmdError> {
    let a = positional(args, 0, "corpus-a")?;
    let b = positional(args, 1, "corpus-b")?;
    let diff = corpus::diff(Path::new(a), Path::new(b)).map_err(CmdError::fail)?;
    print!("{}", diff.render());
    Ok(if diff.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
