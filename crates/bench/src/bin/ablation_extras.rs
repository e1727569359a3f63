//! Ablation: the related-work extensions (BOLA, MPC) against the paper's
//! five approaches, over the full Table V set.

use ecas_bench::{Cli, Report, Table};
use ecas_core::{Approach, Scenario};

fn main() {
    let args = Cli::new(
        "ablation_extras",
        "all implemented approaches (incl. BOLA, MPC) over the Table V set",
    )
    .formats()
    .grid()
    .parse();
    let scenario = Scenario {
        name: "ablation-extras".to_string(),
        approaches: Approach::all().to_vec(),
        ..Scenario::paper_evaluation()
    };
    let policy = args.exec_policy();
    let (summary, stats) = scenario.run(&policy).expect("the scenario is valid");
    ecas_bench::report_cache_stats(&policy, &stats);
    let approaches = scenario.approaches;

    let mut report = Report::new("Extensions: all implemented approaches over the Table V traces");
    let mut table = Table::new(vec![
        "approach",
        "mean QoE",
        "energy saving",
        "extra-energy saving",
        "QoE degradation",
    ]);
    for a in &approaches {
        table.row(vec![
            a.label().to_string(),
            format!("{:.2}", summary.mean_qoe(*a)),
            format!("{:.1}%", 100.0 * summary.mean_energy_saving(*a)),
            format!("{:.1}%", 100.0 * summary.mean_extra_energy_saving(*a)),
            format!("{:.2}%", 100.0 * summary.mean_qoe_degradation(*a)),
        ]);
    }
    report
        .table("", table)
        .note("BOLA and MPC are context-blind like FESTIVE/BBA: without the vibration")
        .note("and signal models they cannot reach the energy savings of Ours/Optimal.");
    report.emit(args.format());
}
