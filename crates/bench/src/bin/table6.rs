//! Table VI: power-model validation — energy measured by the (synthetic)
//! Monsoon monitor vs energy calculated from the power models, per
//! bitrate, at −90 dBm. The paper reports error ratios consistently below
//! 3 % with a 1.43 % average.

use ecas_bench::{Cli, Table};
use ecas_core::power::model::PowerModel;
use ecas_core::power::validation::{mean_error_ratio, validate, ValidationConfig};
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::types::units::Mbps;

fn main() {
    let _ = Cli::new(
        "table6",
        "power-model validation against the synthetic monitor (Table VI)",
    )
    .parse();
    let model = PowerModel::paper();
    let cfg = ValidationConfig::paper(42);
    let mut bitrates: Vec<Mbps> = BitrateLadder::table_ii()
        .iter()
        .map(|e| e.bitrate())
        .collect();
    bitrates.reverse(); // Table VI lists highest bitrate first.

    println!(
        "Table VI: power model validation at {} ({}-second video, {} kHz monitor)\n",
        cfg.signal,
        cfg.video_length.value(),
        cfg.monitor_rate_hz / 1000.0
    );
    let rows = validate(&model, &cfg, &bitrates);
    let mut table = Table::new(vec![
        "bitrate (Mbps)",
        "measured energy (J)",
        "calculated energy (J)",
        "error ratio",
    ]);
    for row in &rows {
        table.row(vec![
            format!("{}", row.bitrate.value()),
            format!("{:.2}", row.measured.value()),
            format!("{:.2}", row.calculated.value()),
            format!("{:.2}%", 100.0 * row.error_ratio),
        ]);
    }
    println!("{}", table.render());
    println!(
        "average error ratio: {:.2}%  (paper: 1.43%, always < 3%)",
        100.0 * mean_error_ratio(&rows)
    );
}
