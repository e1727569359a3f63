//! `evaluate` — run a scenario description (JSON) and emit a Markdown
//! report.
//!
//! ```text
//! evaluate                      # run the built-in paper evaluation scenario
//! evaluate scenario.json        # run a custom scenario
//! evaluate --obs out/           # also write manifest, events, metrics
//! evaluate --cache-dir cache/   # serve repeat cells from a result cache
//! evaluate --jobs 1             # force sequential grid execution
//! evaluate --print-template     # print a template scenario JSON to edit
//! ```
//!
//! With `--obs <dir>`, the run is fully instrumented: `<dir>/manifest.json`
//! records seeds, ladder and configuration hash; `<dir>/events/` holds one
//! deterministic JSONL event stream per `(trace, approach)` pair;
//! `<dir>/timelines/` the matching per-segment tables; `<dir>/metrics.txt`
//! the aggregate counters, spans and histograms.
//!
//! With `--cache-dir <dir>`, every grid cell is content-addressed and
//! served from the cache when its key matches; the cache hit/miss line is
//! printed to stderr so pipelines can assert a warm run (`hits>0,
//! misses=0`). A warm `--obs` rerun reproduces the event JSONL
//! byte-identically without executing the simulator.

use std::fs::File;
use std::path::PathBuf;
use std::process::ExitCode;

use ecas_bench::Cli;
use ecas_core::{observe, render_markdown, ExecPolicy, Scenario};

fn main() -> ExitCode {
    let args = Cli::new(
        "evaluate",
        "run a scenario (JSON) and emit a Markdown report",
    )
    .obs()
    .grid()
    .switch(
        "--print-template",
        "print a template scenario JSON and exit",
    )
    .optional_positional(
        "scenario",
        "scenario JSON file (default: the paper evaluation)",
    )
    .parse();

    if args.switch("--print-template") {
        let template = Scenario::paper_evaluation();
        println!(
            "{}",
            serde_json::to_string_pretty(&template).expect("template serializes")
        );
        return ExitCode::SUCCESS;
    }

    let scenario: Scenario = match args.positionals().first() {
        None => Scenario::paper_evaluation(),
        Some(path) => {
            let file = match File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match serde_json::from_reader(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: bad scenario {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // Command-line flags refine the scenario's own execution policy:
    // --cache-dir overrides its cache directory, --jobs its parallelism.
    let cache_dir = args
        .cache_dir()
        .or_else(|| scenario.cache_dir.as_deref().map(PathBuf::from));
    let policy = ExecPolicy::from_options(args.jobs(), cache_dir.as_deref());

    eprintln!(
        "running scenario {:?}: {} approaches, eta = {}",
        scenario.name,
        scenario.approaches.len(),
        scenario.eta
    );
    let (summary, stats) = match args.obs_dir() {
        Some(dir) => match observe::run_observed_with(&scenario, &dir, &policy) {
            Ok(out) => {
                eprintln!("observability artifacts written to {}", dir.display());
                out
            }
            Err(e) => {
                eprintln!("error: cannot write artifacts to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => scenario.run_with(&policy),
    };
    if policy.cache_dir().is_some() {
        eprintln!("{}", stats.render());
    }
    println!("{}", render_markdown(&scenario.name, &summary));
    ExitCode::SUCCESS
}
