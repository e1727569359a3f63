//! Fault-robustness sweep: evaluate the paper's approaches under
//! increasing deterministic fault intensities and report the degradation
//! curves (QoE, energy, rebuffering, retry/abort counts).
//!
//! `--smoke` runs a reduced, fixed-seed configuration used by CI to check
//! that fault injection is live (nonzero retries) and byte-identical
//! across runs. `--json` / `--markdown` select the output format.

use ecas_bench::{Cli, Report, Table};
use ecas_core::robustness::fault_sweep;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::{Approach, ExperimentRunner};

const SWEEP_SEED: u64 = 23;

fn main() {
    let args = Cli::new(
        "fault_sweep",
        "degradation curves under deterministic fault injection",
    )
    .formats()
    .smoke()
    .grid()
    .parse();
    let smoke = args.smoke();

    let runner = ExperimentRunner::paper();
    let specs = EvalTraceSpec::table_v();
    let (sessions, approaches, intensities): (Vec<_>, Vec<Approach>, Vec<f64>) = if smoke {
        (
            specs[..1].iter().map(EvalTraceSpec::generate).collect(),
            vec![Approach::Youtube, Approach::Ours],
            vec![1.0],
        )
    } else {
        (
            specs.iter().map(EvalTraceSpec::generate).collect(),
            Approach::paper_set().to_vec(),
            vec![0.25, 0.5, 0.75, 1.0],
        )
    };

    let policy = args.exec_policy();
    let (cells, stats) = fault_sweep(
        &runner,
        &sessions,
        &approaches,
        &intensities,
        SWEEP_SEED,
        &policy,
    );
    ecas_bench::report_cache_stats(&policy, &stats);

    let mut table = Table::new(vec![
        "intensity",
        "approach",
        "mean QoE",
        "QoE drop",
        "energy (J)",
        "rebuffer (s)",
        "retries",
        "aborts",
        "degraded",
        "outage (s)",
        "wasted (J)",
    ]);
    for c in &cells {
        table.row(vec![
            format!("{:.2}", c.intensity),
            c.approach.label().to_string(),
            format!("{:.3}", c.mean_qoe),
            format!("{:.3}", c.qoe_degradation),
            format!("{:.1}", c.mean_energy.value()),
            format!("{:.2}", c.mean_rebuffer.value()),
            c.retries.to_string(),
            c.aborts.to_string(),
            c.degraded_segments.to_string(),
            format!("{:.2}", c.outage_time.value()),
            format!("{:.2}", c.wasted_energy.value()),
        ]);
    }

    let mode = if smoke { "smoke" } else { "full" };
    let total_retries: usize = cells.iter().map(|c| c.retries).sum();
    let mut report = Report::new(format!("Fault-injection sweep ({mode}, seed {SWEEP_SEED})"));
    report.table(
        "Degradation vs fault intensity (baseline row at intensity 0.00)",
        table,
    );
    report.note(format!(
        "sessions={} approaches={} total_retries={total_retries}",
        sessions.len(),
        approaches.len(),
    ));
    report.emit(args.format());
}
