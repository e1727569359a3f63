//! Ablation: sweeping the Eq. (11) weighting factor η.
//!
//! η trades energy against QoE: η → 0 maximizes QoE, η → 1 minimizes
//! energy. Sweeping it traces the Pareto front of the weighted-sum method
//! (the paper's ref \[21\]); the paper's evaluation fixes η = 0.5.

use ecas_bench::{Cli, Report, Table};
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::{Approach, ExperimentRunner};

fn main() {
    let args = Cli::new(
        "ablation_eta",
        "sweep of the Eq. (11) energy/QoE weighting factor eta",
    )
    .formats()
    .parse();
    let session = EvalTraceSpec::table_v()[2].generate(); // vehicle-heavy trace 3
    let mut report = Report::new(format!(
        "eta sweep on {} ({}s, avg vibration {:.1} m/s^2)",
        session.meta().name,
        session.meta().video_length.value(),
        session.meta().avg_vibration.value()
    ));

    let mut table = Table::new(vec![
        "eta",
        "ours energy (J)",
        "ours QoE",
        "optimal energy (J)",
        "optimal QoE",
    ]);
    for eta in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let runner = ExperimentRunner::paper_with_eta(eta);
        let ours = runner.run(&session, &Approach::Ours);
        let optimal = runner.run(&session, &Approach::Optimal);
        table.row(vec![
            format!("{eta:.2}"),
            format!("{:.0}", ours.total_energy().value()),
            format!("{:.2}", ours.mean_qoe.value()),
            format!("{:.0}", optimal.total_energy().value()),
            format!("{:.2}", optimal.mean_qoe.value()),
        ]);
    }
    report
        .table("", table)
        .note("energy should fall and QoE should fall as eta grows (Pareto front).");
    report.emit(args.format());
}
