//! Run every implemented bitrate-adaptation policy — the paper's five plus
//! the BOLA/MPC/PID/rate-based/adaptive-eta extensions — over the full
//! Table V trace set and print a comparison table.
//!
//! ```sh
//! cargo run --release --example policy_shootout
//! ```

use ecas::{Approach, ExecPolicy, Scenario};

fn main() {
    let scenario = Scenario {
        name: "policy-shootout".to_string(),
        approaches: Approach::all().to_vec(),
        ..Scenario::paper_evaluation()
    };
    println!(
        "running {} approaches x {} traces in parallel...\n",
        scenario.approaches.len(),
        scenario.traces.len()
    );

    let (summary, _) = scenario
        .run(&ExecPolicy::parallel())
        .expect("the scenario is valid");

    println!(
        "{:<8} {:>10} {:>9} {:>14} {:>13} {:>10}",
        "policy", "energy", "QoE", "whole saving", "extra saving", "QoE loss"
    );
    println!("{}", "-".repeat(70));
    for a in Approach::all() {
        let mean_energy: f64 = summary
            .traces
            .iter()
            .map(|t| t.approach(a).expect("present").energy.value())
            .sum::<f64>()
            / summary.traces.len() as f64;
        println!(
            "{:<8} {:>8.0} J {:>9.2} {:>13.1}% {:>12.1}% {:>9.2}%",
            a.label(),
            mean_energy,
            summary.mean_qoe(a),
            100.0 * summary.mean_energy_saving(a),
            100.0 * summary.mean_extra_energy_saving(a),
            100.0 * summary.mean_qoe_degradation(a),
        );
    }

    println!();
    println!("per-trace winner by total energy:");
    for t in &summary.traces {
        let best = t
            .approaches
            .iter()
            .min_by(|x, y| x.energy.value().total_cmp(&y.energy.value()))
            .expect("non-empty");
        println!(
            "  {}: {} ({:.0} J)",
            t.trace,
            best.approach.label(),
            best.energy.value()
        );
    }
}
