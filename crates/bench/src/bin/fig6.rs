//! Fig. 6: QoE comparison of the five approaches over the Table V traces.
//!
//! * (a) mean QoE per trace;
//! * (b) average QoE per approach;
//! * (c) QoE degradation vs Youtube.

use ecas_bench::{Cli, Table};
use ecas_core::Scenario;

fn main() {
    let args = Cli::new("fig6", "QoE comparison over the Table V traces (Fig. 6)")
        .grid()
        .parse();
    let scenario = Scenario::paper_evaluation();
    let policy = args.exec_policy();
    let (summary, stats) = scenario
        .run(&policy)
        .expect("the paper evaluation is valid");
    ecas_bench::report_cache_stats(&policy, &stats);
    let approaches = scenario.approaches;

    println!("Fig. 6(a): mean QoE per trace\n");
    let mut header = vec!["trace".to_string()];
    header.extend(approaches.iter().map(|a| a.label().to_string()));
    let mut table = Table::new(header);
    for t in &summary.traces {
        let mut row = vec![t.trace.clone()];
        for a in &approaches {
            row.push(format!("{:.2}", t.approach(*a).expect("present").qoe));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!("(trace2 scores highest for every approach thanks to its low vibration)\n");

    println!("Fig. 6(b): average QoE per approach\n");
    let mut table = Table::new(vec!["approach", "average QoE"]);
    for a in &approaches {
        table.row(vec![
            a.label().to_string(),
            format!("{:.2}", summary.mean_qoe(*a)),
        ]);
    }
    println!("{}", table.render());

    println!("Fig. 6(c): QoE degradation vs Youtube\n");
    let mut table = Table::new(vec!["approach", "QoE degradation"]);
    for a in &approaches[1..] {
        table.row(vec![
            a.label().to_string(),
            format!("{:.2}%", 100.0 * summary.mean_qoe_degradation(*a)),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: FESTIVE 3.3%, BBA 2.1%, Ours 3.5%)");
}
