//! Table V: the five evaluation traces — specification vs the properties
//! of the regenerated synthetic sessions.

use ecas_bench::{Cli, Table};
use ecas_core::trace::videos::EvalTraceSpec;

fn main() {
    let _ = Cli::new(
        "table5",
        "evaluation trace specs vs regenerated sessions (Table V)",
    )
    .parse();
    println!("Table V: video traces (spec columns from the paper; measured columns");
    println!("from the regenerated synthetic sessions)\n");
    let mut table = Table::new(vec![
        "id",
        "length (s)",
        "size (MB)",
        "avg vib (spec)",
        "avg vib (gen)",
        "mean thr (Mbps)",
        "mean signal (dBm)",
    ]);
    for spec in EvalTraceSpec::table_v() {
        let session = spec.generate();
        table.row(vec![
            spec.id.to_string(),
            format!("{:.0}", spec.length.value()),
            format!("{:.1}", spec.data_size.value()),
            format!("{:.2}", spec.avg_vibration.value()),
            format!("{:.2}", session.meta().avg_vibration.value()),
            format!("{:.1}", session.network().mean_throughput().value()),
            format!("{:.1}", session.signal().mean_signal().value()),
        ]);
    }
    println!("{}", table.render());
}
