//! Scenario fuzzer for the session replay oracle.
//!
//! Samples random scenario configurations (context × session length × η ×
//! fault intensity × trace seed) as `Scenario`s, runs a set
//! of approaches on each, and holds every run to the oracle's two
//! guarantees (see `ecas_core::oracle` and `DESIGN.md` § 9):
//!
//! 1. **Replay identity** — the `SessionResult` reconstructed from the
//!    event log alone matches the simulator's, field by field;
//! 2. **Differential optimality** — the realized Eq. (11) objective never
//!    beats the shortest-path optimum for the same session.
//!
//! On failure the offending case is shrunk (halve the session, then
//! disable faults) and printed as a ready-to-commit regression test.
//!
//! `--seed <hex>` selects the corpus (default `0xECA5`), `--cases <n>` its
//! size. `--smoke` runs a fixed four-case corpus — two fault-free, one
//! moderate-fault, one heavy-fault — whose output is byte-identical across
//! runs; CI runs it twice and compares.

use ecas_bench::{Cli, Report, Table};
use ecas_core::oracle::Oracle;
use ecas_core::record::RecordedSession;
use ecas_core::sim::FaultSpec;
use ecas_core::trace::synth::context::Context;
use ecas_core::{Approach, Scenario};
use ecas_obs::NULL_PROBE;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DEFAULT_SEED: u64 = 0xECA5;
const DEFAULT_CASES: usize = 25;
const MIN_SECONDS: f64 = 10.0;

/// One sampled scenario configuration. Everything needed to regenerate
/// the exact sessions and models, so a failure report is a reproducer.
#[derive(Debug, Clone, Copy)]
struct CaseConfig {
    context: Context,
    seconds: f64,
    eta: f64,
    /// Fault intensity (`None` = fault-free) and episode seed.
    fault: Option<f64>,
    fault_seed: u64,
    base_seed: u64,
}

impl CaseConfig {
    fn scenario(&self) -> Scenario {
        Scenario {
            name: "oracle-fuzz".to_string(),
            traces: vec![RecordedSession::Synthetic {
                context: self.context,
                seconds: self.seconds,
                seed: self.base_seed,
            }],
            approaches: vec![Approach::Youtube, Approach::Ours, Approach::Optimal],
            eta: self.eta,
            fault: self
                .fault
                .map(|intensity| FaultSpec::scaled(intensity, self.fault_seed)),
        }
    }

    fn describe(&self) -> String {
        format!(
            "context={:?} seconds={} eta={} fault={} base_seed={}",
            self.context,
            self.seconds,
            self.eta,
            self.fault.map_or_else(
                || "none".to_string(),
                |i| format!("{i}@{}", self.fault_seed)
            ),
            self.base_seed,
        )
    }
}

/// Per-case outcome for the report table.
struct CaseOutcome {
    replay_checks: usize,
    objective_checks: usize,
    failures: Vec<String>,
}

/// Runs every approach of the case's scenario through both oracle checks.
fn run_case(config: &CaseConfig) -> CaseOutcome {
    let scenario = config.scenario();
    let runner = scenario.runner();
    let oracle = Oracle::new(runner.simulator(), runner.eta());
    let mut outcome = CaseOutcome {
        replay_checks: 0,
        objective_checks: 0,
        failures: Vec::new(),
    };
    for session in scenario.sessions().expect("sampled cases are valid") {
        let optimal = oracle.optimal_objective(&session);
        for approach in &scenario.approaches {
            let (result, log) = runner.run_with_probe(&session, approach, &NULL_PROBE);
            outcome.replay_checks += 1;
            let verdict = oracle.check_replay(&session, &result, Some(&log));
            if !verdict.is_pass() {
                outcome
                    .failures
                    .push(format!("{}: {}", approach.label(), verdict.render()));
            }
            outcome.objective_checks += 1;
            match oracle.check_objective_against(&session, &result, optimal) {
                Ok(objective) if objective.holds() => {}
                Ok(objective) => {
                    outcome
                        .failures
                        .push(format!("{}: {}", approach.label(), objective.render()))
                }
                Err(e) => outcome.failures.push(format!("{}: {e}", approach.label())),
            }
        }
    }
    outcome
}

/// Greedy shrink: first halve the session length while the failure
/// persists, then try disabling fault injection. Returns the smallest
/// configuration that still fails.
fn shrink(mut config: CaseConfig) -> CaseConfig {
    loop {
        let halved = CaseConfig {
            seconds: (config.seconds / 2.0).max(MIN_SECONDS),
            ..config
        };
        if halved.seconds < config.seconds && !run_case(&halved).failures.is_empty() {
            config = halved;
            continue;
        }
        break;
    }
    if config.fault.is_some() {
        let fault_free = CaseConfig {
            fault: None,
            ..config
        };
        if !run_case(&fault_free).failures.is_empty() {
            config = fault_free;
        }
    }
    config
}

/// A ready-to-commit regression test for a shrunk failing case.
fn regression_test(config: &CaseConfig) -> String {
    let seed = config.fault_seed;
    let fault = match config.fault {
        Some(intensity) => format!("Some(FaultSpec::scaled({intensity:?}, {seed}))"),
        None => "None".to_string(),
    };
    format!(
        "// Found by oracle_fuzz; add to crates/core/tests/oracle.rs.\n\
         #[test]\n\
         fn oracle_fuzz_regression() {{\n\
         \x20   let scenario = Scenario {{\n\
         \x20       name: \"oracle-fuzz-regression\".to_string(),\n\
         \x20       traces: vec![RecordedSession::Synthetic {{\n\
         \x20           context: Context::{:?},\n\
         \x20           seconds: {:?},\n\
         \x20           seed: {},\n\
         \x20       }}],\n\
         \x20       approaches: vec![Approach::Youtube, Approach::Ours, Approach::Optimal],\n\
         \x20       eta: {:?},\n\
         \x20       fault: {fault},\n\
         \x20   }};\n\
         \x20   let runner = scenario.runner();\n\
         \x20   let oracle = Oracle::new(runner.simulator(), runner.eta());\n\
         \x20   for session in scenario.sessions().unwrap() {{\n\
         \x20       for approach in &scenario.approaches {{\n\
         \x20           let (result, log) = runner.run_with_probe(&session, approach, &NULL_PROBE);\n\
         \x20           let verdict = oracle.check_replay(&session, &result, Some(&log));\n\
         \x20           assert!(verdict.is_pass(), \"{{}}\", verdict.render());\n\
         \x20           let objective = oracle.check_objective(&session, &result).unwrap();\n\
         \x20           assert!(objective.holds(), \"{{}}\", objective.render());\n\
         \x20       }}\n\
         \x20   }}\n\
         }}\n",
        config.context, config.seconds, config.base_seed, config.eta,
    )
}

/// The fixed smoke corpus: byte-identical across runs, covering both a
/// fault-free and a moderate-fault scenario (the CI acceptance gate).
fn smoke_corpus(seed: u64) -> Vec<CaseConfig> {
    vec![
        CaseConfig {
            context: Context::QuietRoom,
            seconds: 40.0,
            eta: 0.5,
            fault: None,
            fault_seed: seed,
            base_seed: seed,
        },
        CaseConfig {
            context: Context::Walking,
            seconds: 60.0,
            eta: 0.3,
            fault: None,
            fault_seed: seed,
            base_seed: seed.wrapping_add(1),
        },
        CaseConfig {
            context: Context::MovingVehicle,
            seconds: 60.0,
            eta: 0.5,
            fault: Some(0.5),
            fault_seed: seed.wrapping_add(2),
            base_seed: seed.wrapping_add(2),
        },
        CaseConfig {
            context: Context::Walking,
            seconds: 80.0,
            eta: 0.7,
            fault: Some(0.75),
            fault_seed: seed.wrapping_add(3),
            base_seed: seed.wrapping_add(3),
        },
    ]
}

/// Random corpus for full runs: every dimension sampled from the seed.
fn random_corpus(seed: u64, cases: usize) -> Vec<CaseConfig> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let contexts = [Context::QuietRoom, Context::Walking, Context::MovingVehicle];
    let etas = [0.3, 0.5, 0.7];
    (0..cases)
        .map(|_| {
            let context = contexts[rng.gen_range(0..contexts.len())];
            let seconds = f64::from(rng.gen_range(3u32..=12)) * 10.0;
            let eta = etas[rng.gen_range(0..etas.len())];
            let fault = match rng.gen_range(0u8..4) {
                0 => None,
                1 => Some(0.25),
                2 => Some(0.5),
                _ => Some(0.75),
            };
            CaseConfig {
                context,
                seconds,
                eta,
                fault,
                fault_seed: rng.gen(),
                base_seed: rng.gen(),
            }
        })
        .collect()
}

fn parse_seed(raw: &str) -> u64 {
    let trimmed = raw.trim();
    let parsed = if let Some(hex) = trimmed
        .strip_prefix("0x")
        .or_else(|| trimmed.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        trimmed.parse()
    };
    match parsed {
        Ok(seed) => seed,
        Err(_) => {
            eprintln!("oracle_fuzz: invalid --seed {trimmed:?} (decimal or 0x-hex)");
            std::process::exit(2);
        }
    }
}

fn parse_cases(raw: &str) -> usize {
    match raw.trim().parse() {
        Ok(cases) if cases > 0 => cases,
        _ => {
            eprintln!("oracle_fuzz: invalid --cases {raw:?} (expected a count of 1 or more)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = Cli::new(
        "oracle_fuzz",
        "fuzz the session replay oracle over random scenarios",
    )
    .formats()
    .smoke()
    .option(
        "--seed",
        "hex",
        "corpus seed, decimal or 0x-hex (default 0xECA5)",
    )
    .option(
        "--cases",
        "n",
        "number of random cases (default 25; ignored with --smoke)",
    )
    .parse();
    let smoke = args.smoke();
    let seed = args.option("--seed").map_or(DEFAULT_SEED, parse_seed);
    let cases = args.option("--cases").map_or(DEFAULT_CASES, parse_cases);

    let corpus = if smoke {
        smoke_corpus(seed)
    } else {
        random_corpus(seed, cases)
    };

    let mut table = Table::new(vec![
        "case",
        "context",
        "secs",
        "eta",
        "fault",
        "replay",
        "objective",
        "verdict",
    ]);
    let mut replay_checks = 0usize;
    let mut objective_checks = 0usize;
    let mut failed: Vec<(CaseConfig, Vec<String>)> = Vec::new();
    for (i, config) in corpus.iter().enumerate() {
        let outcome = run_case(config);
        replay_checks += outcome.replay_checks;
        objective_checks += outcome.objective_checks;
        table.row(vec![
            i.to_string(),
            format!("{:?}", config.context),
            format!("{}", config.seconds),
            format!("{}", config.eta),
            config
                .fault
                .map_or_else(|| "none".to_string(), |f| format!("{f}")),
            outcome.replay_checks.to_string(),
            outcome.objective_checks.to_string(),
            if outcome.failures.is_empty() {
                "ok".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
        if !outcome.failures.is_empty() {
            failed.push((*config, outcome.failures));
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    let mut report = Report::new(format!("Oracle fuzz ({mode}, seed {seed:#x})"));
    report.table("Replay identity + differential optimality per case", table);
    report.note(format!(
        "cases={} replay_checks={replay_checks} objective_checks={objective_checks} failures={}",
        corpus.len(),
        failed.len(),
    ));
    report.emit(args.format());

    if !failed.is_empty() {
        for (config, reasons) in &failed {
            eprintln!("oracle_fuzz: FAILING CASE {}", config.describe());
            for reason in reasons {
                eprintln!("  {reason}");
            }
            let minimal = shrink(*config);
            eprintln!(
                "oracle_fuzz: shrunk to {}\n{}",
                minimal.describe(),
                regression_test(&minimal)
            );
        }
        std::process::exit(1);
    }
}
