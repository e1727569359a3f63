//! Table I / Table II / Fig. 2(a): the test videos, their SI/TI
//! coordinates, and the resolution/bitrate ladder of the quality study.

use ecas_bench::{Cli, Table};
use ecas_core::trace::videos::TestVideo;
use ecas_core::types::ladder::BitrateLadder;

fn main() {
    let _ = Cli::new(
        "fig2a",
        "test videos and the study bitrate ladder (Tables I-II, Fig. 2a)",
    )
    .parse();
    println!("Table I + Fig. 2(a): test videos with spatial/temporal information\n");
    let mut table = Table::new(vec!["genre", "explanation", "SI", "TI"]);
    for v in TestVideo::table_i() {
        table.row(vec![
            v.genre.to_string(),
            v.explanation.to_string(),
            format!("{:.0}", v.spatial_info),
            format!("{:.0}", v.temporal_info),
        ]);
    }
    println!("{}", table.render());

    println!("Table II: resolution and bitrate for the video dataset\n");
    let mut table = Table::new(vec!["resolution", "bitrate (Mbps)"]);
    for entry in BitrateLadder::table_ii().iter().rev() {
        table.row(vec![
            entry
                .resolution()
                .map_or("-".to_string(), |r| r.to_string()),
            format!("{}", entry.bitrate().value()),
        ]);
    }
    println!("{}", table.render());
}
