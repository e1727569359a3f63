//! Fig. 1(a): total energy to download 100 MB under various signal
//! strengths.
//!
//! The paper measures an LG Nexus 5X on T-Mobile LTE and reports the
//! wireless-interface energy rising from 49 J at −90 dBm to 193 J at
//! −115 dBm. This binary regenerates the curve from the calibrated radio
//! power model and the bulk-throughput map.

use ecas_bench::{Cli, Table};
use ecas_core::power::model::PowerModel;
use ecas_core::types::units::{Dbm, MegaBytes};

fn main() {
    let _ = Cli::new(
        "fig1a",
        "energy to download 100 MB vs signal strength (Fig. 1a)",
    )
    .parse();
    let model = PowerModel::paper();
    let data = MegaBytes::new(100.0);

    println!("Fig. 1(a): energy to download 100 MB vs signal strength");
    println!("(paper anchors: 49 J @ -90 dBm, 193 J @ -115 dBm)\n");

    let mut table = Table::new(vec!["signal (dBm)", "throughput (Mbps)", "energy (J)"]);
    for dbm in (0..=6).map(|i| -90.0 - 5.0 * i as f64) {
        let signal = Dbm::new(dbm);
        let thr = model.bulk_throughput(signal);
        let energy = model.bulk_download_energy(data, signal);
        table.row(vec![
            format!("{dbm:.0}"),
            format!("{:.1}", thr.value()),
            format!("{:.1}", energy.value()),
        ]);
    }
    println!("{}", table.render());

    let strong = model.bulk_download_energy(data, Dbm::new(-90.0)).value();
    let weak = model.bulk_download_energy(data, Dbm::new(-115.0)).value();
    println!(
        "energy grows {:.1}x from -90 dBm to -115 dBm (paper: {:.1}x)",
        weak / strong,
        193.0 / 49.0
    );
}
