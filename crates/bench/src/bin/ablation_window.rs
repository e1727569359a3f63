//! Ablation: sweeping the bandwidth-estimator window.
//!
//! Both FESTIVE and the online algorithm estimate bandwidth with the
//! harmonic mean of the last k segment throughputs (k = 20 in the paper).
//! Short windows react faster but overreact to fades; long windows are
//! stable but stale.

use ecas_bench::{Cli, Report, Table};
use ecas_core::abr::{Festive, Online};
use ecas_core::sim::Simulator;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::ladder::BitrateLadder;

fn main() {
    let args = Cli::new(
        "ablation_window",
        "sweep of the bandwidth-estimator window k",
    )
    .formats()
    .parse();
    let session = EvalTraceSpec::table_v()[2].generate();
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let mut report = Report::new(format!("estimator-window sweep on {}", session.meta().name));

    let mut table = Table::new(vec![
        "window",
        "festive energy (J)",
        "festive QoE",
        "festive switches",
        "ours energy (J)",
        "ours QoE",
        "ours switches",
    ]);
    for k in [3, 5, 10, 20, 40, 80] {
        let festive = sim.run(&session, &mut Festive::with_window(k));
        let ours = sim.run(&session, &mut Online::paper().estimator_window(k));
        table.row(vec![
            format!("{k}"),
            format!("{:.0}", festive.total_energy().value()),
            format!("{:.2}", festive.mean_qoe.value()),
            format!("{}", festive.switches),
            format!("{:.0}", ours.total_energy().value()),
            format!("{:.2}", ours.mean_qoe.value()),
            format!("{}", ours.switches),
        ]);
    }
    report
        .table("", table)
        .note("short windows overreact to fades; long windows go stale (k = 20 in the paper).");
    report.emit(args.format());
}
