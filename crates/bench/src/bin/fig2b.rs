//! Fig. 2(b): the "original" quality of a video as a function of bitrate —
//! quiet-room MOS data from the (synthetic) subject panel with the fitted
//! curve.

use ecas_bench::{Cli, Table};
use ecas_core::qoe::quality::OriginalQuality;
use ecas_core::qoe::study::{aggregate_mos, run_study_and_fit, SubjectiveStudy};
use ecas_core::types::units::Mbps;

fn main() {
    let _ = Cli::new(
        "fig2b",
        "quiet-room MOS vs bitrate with the fitted curve (Fig. 2b)",
    )
    .parse();
    let study = SubjectiveStudy::paper(42);
    let ratings = study.run();
    println!(
        "Fig. 2(b): quiet-room MOS vs bitrate ({} ratings from {} subjects)\n",
        ratings.len(),
        study.config().subjects
    );

    let mos = aggregate_mos(&ratings);
    let min_vib = mos
        .iter()
        .map(|&(_, v, _)| v.value())
        .fold(f64::INFINITY, f64::min);
    let mut room: Vec<(f64, f64)> = mos
        .iter()
        .filter(|&&(_, v, _)| (v.value() - min_vib).abs() < 1e-9)
        .map(|&(b, _, q)| (b.value(), q))
        .collect();
    ecas_core::types::float::total_sort_by_key(&mut room, |entry| entry.0);

    let (params, quality_fit, _) = run_study_and_fit(&study).expect("paper design fits");
    let fitted = OriginalQuality::new(params.quality);

    let mut table = Table::new(vec!["bitrate (Mbps)", "MOS (data)", "fitted q0(r)"]);
    for (r, q) in &room {
        table.row(vec![
            format!("{r}"),
            format!("{q:.3}"),
            format!("{:.3}", fitted.at(Mbps::new(*r)).value()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "fit quality: rmse = {:.4}, r^2 = {:.4} over {} cells",
        quality_fit.rmse, quality_fit.r_squared, quality_fit.n
    );
    println!(
        "dense fitted curve: {}",
        (0..=24)
            .map(|i| {
                let r = 0.1 + i as f64 * 0.2375;
                format!("({r:.2}, {:.2})", fitted.at(Mbps::new(r)).value())
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
}
