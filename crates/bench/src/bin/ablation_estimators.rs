//! Ablation: which bandwidth estimator predicts next-segment throughput
//! best on each context's links?
//!
//! For every completed segment we ask each estimator for its prediction,
//! then compare with the next observed segment throughput. Reported as
//! mean absolute error and mean signed error (bias), per context.

use ecas_bench::{Cli, Report, Table};
use ecas_core::net::{BandwidthEstimator, Ewma, HarmonicMean, SlidingPercentile};
use ecas_core::sim::Simulator;
use ecas_core::trace::synth::context::{Context, ContextSchedule};
use ecas_core::trace::synth::SessionGenerator;
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::types::units::Seconds;
use ecas_core::Approach;

fn main() {
    let args = Cli::new(
        "ablation_estimators",
        "bandwidth-estimator prediction error by context",
    )
    .formats()
    .parse();
    let mut report = Report::new("estimator prediction error on next-segment throughput");
    let mut table = Table::new(vec!["context", "estimator", "MAE (Mbps)", "bias (Mbps)"]);
    for ctx in [Context::QuietRoom, Context::Walking, Context::MovingVehicle] {
        // Observed per-segment throughputs from a Youtube run (continuous
        // downloading gives a dense observation stream).
        let session = SessionGenerator::new(
            format!("est-{ctx}"),
            ContextSchedule::constant(ctx),
            Seconds::new(300.0),
            11,
        )
        .generate();
        let sim = Simulator::paper(BitrateLadder::evaluation());
        let mut youtube = Approach::Youtube.controller(&sim, &session);
        let result = sim.run(&session, youtube.as_mut());
        let observed: Vec<f64> = result.tasks.iter().map(|t| t.throughput.value()).collect();

        let estimators: Vec<Box<dyn BandwidthEstimator>> = vec![
            Box::new(HarmonicMean::festive()),
            Box::new(Ewma::new(0.3)),
            Box::new(SlidingPercentile::conservative()),
        ];
        for mut est in estimators {
            let mut abs_err = 0.0;
            let mut bias = 0.0;
            let mut n = 0usize;
            for w in observed.windows(2) {
                est.observe(ecas_core::types::units::Mbps::new(w[0]));
                if let Some(pred) = est.estimate() {
                    abs_err += (pred.value() - w[1]).abs();
                    bias += pred.value() - w[1];
                    n += 1;
                }
            }
            table.row(vec![
                ctx.to_string(),
                est.name().to_string(),
                format!("{:.2}", abs_err / n as f64),
                format!("{:+.2}", bias / n as f64),
            ]);
        }
    }
    report
        .table("", table)
        .note("the harmonic mean's negative bias is the point: it underestimates on")
        .note("purpose, trading prediction accuracy for rebuffering safety.");
    report.emit(args.format());
}
