//! `timeline` — print the full event timeline of one simulated session.
//!
//! ```text
//! timeline <trace-id 1..5> <approach> [max-lines]
//! ```
//!
//! Approaches: youtube, festive, bba, ours, optimal, bola, mpc, pid,
//! rate, adaptive, in any case ([`Approach::from_label`]).

use std::process::ExitCode;

use ecas_bench::Cli;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::{Approach, ExperimentRunner};

fn main() -> ExitCode {
    let args = Cli::new(
        "timeline",
        "print the event timeline of one simulated session",
    )
    .positional("trace-id", "Table V trace id (1..5)")
    .positional(
        "approach",
        "youtube|festive|bba|ours|optimal|bola|mpc|pid|rate|adaptive",
    )
    .optional_positional("max-lines", "maximum timeline lines to print (default 60)")
    .parse();
    let positionals = args.positionals();
    let (trace_id, approach) = (&positionals[0], &positionals[1]);
    let max_lines: usize = match positionals.get(2) {
        None => 60,
        Some(max) => match max.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: bad max-lines {max:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let Ok(id) = trace_id.parse::<u8>() else {
        eprintln!("error: bad trace id {trace_id:?}");
        return ExitCode::FAILURE;
    };
    let Some(spec) = EvalTraceSpec::table_v().into_iter().find(|s| s.id == id) else {
        eprintln!("error: no Table V trace {id}");
        return ExitCode::FAILURE;
    };
    let Some(approach) = Approach::from_label(approach) else {
        eprintln!("error: unknown approach {approach:?}");
        return ExitCode::FAILURE;
    };

    let session = spec.generate();
    let runner = ExperimentRunner::paper();
    let mut controller = approach.controller(runner.simulator(), &session);
    let (result, log) = runner.simulator().run_logged(&session, controller.as_mut());

    println!(
        "{} on {}: {:.0} J, QoE {:.2}, {} events\n",
        approach.label(),
        spec.name(),
        result.total_energy().value(),
        result.mean_qoe.value(),
        log.len()
    );
    for (i, line) in log.render_timeline().lines().enumerate() {
        if i >= max_lines {
            println!("... ({} more events)", log.len() - max_lines);
            break;
        }
        println!("{line}");
    }
    ExitCode::SUCCESS
}
