//! Ablation: opportunistic download deferral (refs \[7, 8\]) on top of
//! each policy.
//!
//! During deep fades bytes cost several times more energy; a controller
//! holding a buffer can simply wait them out. This binary compares each
//! policy with and without the signal-aware deferral wrapper over the
//! vehicle-heavy Table V traces.

use ecas_bench::{Cli, Report, Table};
use ecas_core::abr::{Festive, Online, SignalDeferral};
use ecas_core::sim::controller::FixedLevel;
use ecas_core::sim::{BitrateController, Simulator};
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::ladder::BitrateLadder;

fn main() {
    let args = Cli::new(
        "ablation_deferral",
        "signal-aware download deferral on top of each policy",
    )
    .formats()
    .parse();
    let sessions: Vec<_> = [0usize, 2, 3, 4] // skip the quiet trace 2
        .iter()
        .map(|&i| EvalTraceSpec::table_v()[i].generate())
        .collect();
    let sim = Simulator::paper(BitrateLadder::evaluation());

    let mut report = Report::new(
        "signal-aware deferral on vehicle-heavy traces (defer below -104 dBm \
         while >60% of the buffer remains)",
    );

    let mut table = Table::new(vec![
        "policy",
        "radio energy (J)",
        "total energy (J)",
        "QoE",
        "rebuffer (s)",
    ]);

    type Make = Box<dyn Fn() -> Box<dyn BitrateController>>;
    let policies: Vec<(&str, Make)> = vec![
        ("youtube", Box::new(|| Box::new(FixedLevel::highest()))),
        (
            "youtube+defer",
            Box::new(|| Box::new(SignalDeferral::wrap(FixedLevel::highest()))),
        ),
        ("festive", Box::new(|| Box::new(Festive::new()))),
        (
            "festive+defer",
            Box::new(|| Box::new(SignalDeferral::wrap(Festive::new()))),
        ),
        ("ours", Box::new(|| Box::new(Online::paper()))),
        (
            "ours+defer",
            Box::new(|| Box::new(SignalDeferral::wrap(Online::paper()))),
        ),
    ];

    for (label, make) in &policies {
        let mut radio = 0.0;
        let mut total = 0.0;
        let mut qoe = 0.0;
        let mut stalls = 0.0;
        for session in &sessions {
            let mut controller = make();
            let r = sim.run(session, controller.as_mut());
            radio += r.energy.radio.value() + r.energy.tail.value();
            total += r.total_energy().value();
            qoe += r.mean_qoe.value();
            stalls += r.total_rebuffer.value();
        }
        let n = sessions.len() as f64;
        table.row(vec![
            (*label).to_string(),
            format!("{:.0}", radio / n),
            format!("{:.0}", total / n),
            format!("{:.2}", qoe / n),
            format!("{:.1}", stalls / n),
        ]);
    }
    report
        .table("", table)
        .note("deferral trims the radio bill of every policy; combined with the")
        .note("context-aware selector the two savings compose.");
    report.emit(args.format());
}
