//! Ablation: how much subject noise can the Table III fitting pipeline
//! absorb?
//!
//! Sweeps the per-rating noise of the synthetic panel and reports the
//! fitted-vs-truth error of the headline model quantities. The paper's
//! twenty-subject design should stay accurate well past realistic noise
//! levels (± ~1 nine-grade point).

use ecas_bench::{Cli, Report, Table};
use ecas_core::qoe::impairment::VibrationImpairment;
use ecas_core::qoe::quality::OriginalQuality;
use ecas_core::qoe::study::{run_study_and_fit, StudyConfig, SubjectiveStudy};
use ecas_core::types::units::{Mbps, MetersPerSec2};

fn main() {
    let args = Cli::new(
        "ablation_study_noise",
        "rating-noise robustness of the Table III fitting pipeline",
    )
    .formats()
    .parse();
    let mut report = Report::new("rating-noise sweep of the Table III pipeline (20 subjects)");
    let truth_q = OriginalQuality::paper();
    let truth_i = VibrationImpairment::paper();

    let mut table = Table::new(vec![
        "noise std (9-grade)",
        "q0(1.5) err",
        "q0(5.8) err",
        "I(6,5.8) err",
        "quality r^2",
    ]);
    for noise in [0.0, 0.3, 0.7, 1.2, 2.0, 3.0] {
        let mut config = StudyConfig::paper(404);
        config.rating_noise_std = noise;
        let study = SubjectiveStudy::new(config, truth_q, truth_i);
        let (params, quality_fit, _) = run_study_and_fit(&study).expect("design fits");
        if !params.impairment.is_valid() {
            // Extreme noise can push the fitted surface outside the model's
            // admissible region (e.g. a negative bitrate exponent).
            table.row(vec![
                format!("{noise:.1}"),
                "-".into(),
                "-".into(),
                "fit degenerate".into(),
                format!("{:.4}", quality_fit.r_squared),
            ]);
            continue;
        }
        let fitted_q = OriginalQuality::new(params.quality);
        let fitted_i = VibrationImpairment::new(params.impairment);
        let q_err =
            |r: f64| (fitted_q.at(Mbps::new(r)).value() - truth_q.at(Mbps::new(r)).value()).abs();
        let i_err = (fitted_i.at(MetersPerSec2::new(6.0), Mbps::new(5.8))
            - truth_i.at(MetersPerSec2::new(6.0), Mbps::new(5.8)))
        .abs();
        table.row(vec![
            format!("{noise:.1}"),
            format!("{:.3}", q_err(1.5)),
            format!("{:.3}", q_err(5.8)),
            format!("{i_err:.3}"),
            format!("{:.4}", quality_fit.r_squared),
        ]);
    }
    report
        .table("", table)
        .note("(the paper's P.910 protocol corresponds to roughly 0.5-1.0 of noise)");
    report.emit(args.format());
}
