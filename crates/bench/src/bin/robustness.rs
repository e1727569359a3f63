//! Seed-robustness of the headline results: re-draw the Table V traces
//! under many seeds and report mean ± std of the Fig. 5/6 metrics.

use ecas_bench::{Cli, Table};
use ecas_core::robustness::table_v_robustness_with_stats;
use ecas_core::{Approach, ExperimentRunner};

fn main() {
    let args = Cli::new(
        "robustness",
        "seed-robustness of the Fig. 5/6 headline metrics",
    )
    .grid()
    .parse();
    let runner = ExperimentRunner::paper();
    let seeds: Vec<u64> = (0..10).collect();
    println!("Table V evaluation across {} trace re-draws\n", seeds.len());

    let policy = args.exec_policy();
    let (rows, stats) =
        table_v_robustness_with_stats(&runner, &Approach::paper_set(), &seeds, &policy);
    ecas_bench::report_cache_stats(&policy, &stats);
    let mut table = Table::new(vec![
        "approach",
        "whole-phone saving",
        "extra saving",
        "QoE degradation",
    ]);
    for r in &rows {
        table.row(vec![
            r.approach.label().to_string(),
            format!(
                "{:.1}% +- {:.1}%",
                100.0 * r.energy_saving.mean,
                100.0 * r.energy_saving.std
            ),
            format!(
                "{:.1}% +- {:.1}%",
                100.0 * r.extra_energy_saving.mean,
                100.0 * r.extra_energy_saving.std
            ),
            format!(
                "{:.2}% +- {:.2}%",
                100.0 * r.qoe_degradation.mean,
                100.0 * r.qoe_degradation.std
            ),
        ]);
    }
    println!("{}", table.render());
    println!("(seed 0 is the canonical trace set used in fig5/fig6/fig7)");
}
