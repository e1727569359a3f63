//! Ablation: wasted energy under early viewer abandonment (ref \[6\]).
//!
//! Viewers often quit before the end. Everything buffered past the quit
//! playhead was downloaded for nothing; aggressive prebuffering at high
//! bitrates wastes the most. This binary sweeps quit times over trace 3
//! and reports the wasted downloads per approach.

use ecas_bench::{Cli, Report, Table};
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::units::Seconds;
use ecas_core::viewer::quit_analysis;
use ecas_core::{Approach, ExperimentRunner};

fn main() {
    let args = Cli::new(
        "ablation_abandonment",
        "wasted downloads under early viewer abandonment",
    )
    .formats()
    .parse();
    let session = EvalTraceSpec::table_v()[2].generate();
    let runner = ExperimentRunner::paper();
    let tau = Seconds::new(2.0);

    let mut report = Report::new(format!(
        "wasted downloads if the viewer quits early ({}, wall clock)",
        session.meta().name
    ));
    let mut table = Table::new(vec![
        "approach",
        "quit@25%: wasted MB / J",
        "quit@50%: wasted MB / J",
        "quit@75%: wasted MB / J",
    ]);
    for approach in Approach::paper_set() {
        let result = runner.run(&session, &approach);
        let mut cells = vec![approach.label().to_string()];
        for f in [0.25, 0.5, 0.75] {
            let quit = Seconds::new(result.wall_time.value() * f);
            let q = quit_analysis(&result, tau, quit);
            cells.push(format!(
                "{:.1} MB / {:.1} J",
                q.wasted_data.value(),
                q.wasted_radio_energy.value()
            ));
        }
        table.row(cells);
    }
    report
        .table("", table)
        .note("the context-aware approaches waste several times less than the fixed")
        .note("1080p player because the in-flight buffer holds cheaper segments.");
    report.emit(args.format());
}
