//! Fig. 5: energy comparison of the five approaches over the Table V
//! traces.
//!
//! * (a) total energy per trace per approach;
//! * (b) whole-phone and extra-energy savings vs Youtube;
//! * (c) base vs extra energy for trace 1.

use ecas_bench::{Cli, Table};
use ecas_core::Scenario;

fn main() {
    let args = Cli::new("fig5", "energy comparison over the Table V traces (Fig. 5)")
        .grid()
        .parse();
    let scenario = Scenario::paper_evaluation();
    let policy = args.exec_policy();
    let (summary, stats) = scenario
        .run(&policy)
        .expect("the paper evaluation is valid");
    ecas_bench::report_cache_stats(&policy, &stats);
    let approaches = scenario.approaches;

    println!("Fig. 5(a): total energy (J) per trace\n");
    let mut header = vec!["trace".to_string()];
    header.extend(approaches.iter().map(|a| a.label().to_string()));
    let mut table = Table::new(header);
    for t in &summary.traces {
        let mut row = vec![t.trace.clone()];
        for a in &approaches {
            row.push(format!(
                "{:.0}",
                t.approach(*a).expect("present").energy.value()
            ));
        }
        table.row(row);
    }
    println!("{}", table.render());

    println!("Fig. 5(b): mean energy saving vs Youtube\n");
    let mut table = Table::new(vec![
        "approach",
        "whole-phone saving",
        "extra-energy saving",
    ]);
    for a in &approaches[1..] {
        table.row(vec![
            a.label().to_string(),
            format!("{:.1}%", 100.0 * summary.mean_energy_saving(*a)),
            format!("{:.1}%", 100.0 * summary.mean_extra_energy_saving(*a)),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: whole-phone 7/4/33/36%, extra 15/8/77/80% for FESTIVE/BBA/Ours/Optimal)\n");

    println!("Fig. 5(c): base vs extra energy for trace 1\n");
    let t1 = &summary.traces[0];
    let mut table = Table::new(vec!["approach", "base energy (J)", "extra energy (J)"]);
    for a in &approaches {
        let m = t1.approach(*a).expect("present");
        table.row(vec![
            a.label().to_string(),
            format!("{:.0}", t1.base_energy.value()),
            format!("{:.0}", m.extra_energy.value()),
        ]);
    }
    println!("{}", table.render());
}
