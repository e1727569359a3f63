//! Table III: the parameters of the QoE model, recovered end-to-end by
//! running the synthetic subject panel and fitting both model components
//! with least squares.

use ecas_bench::{Cli, Table};
use ecas_core::qoe::params::QoeParams;
use ecas_core::qoe::study::table_iii;

fn main() {
    let _ = Cli::new(
        "table3",
        "fitted QoE model parameters vs ground truth (Table III)",
    )
    .parse();
    let (fitted, quality_fit, impairment_fit) = table_iii(42).expect("paper design fits");
    let truth = QoeParams::paper();

    println!("Table III: fitted QoE model parameters (vs ground truth)\n");
    let mut table = Table::new(vec!["coefficient", "fitted", "ground truth"]);
    table.row(vec![
        "quality q_max".to_string(),
        format!("{:.4}", fitted.quality.q_max),
        format!("{:.4}", truth.quality.q_max),
    ]);
    table.row(vec![
        "quality a".to_string(),
        format!("{:.4}", fitted.quality.a),
        format!("{:.4}", truth.quality.a),
    ]);
    table.row(vec![
        "quality b".to_string(),
        format!("{:.4}", fitted.quality.b),
        format!("{:.4}", truth.quality.b),
    ]);
    table.row(vec![
        "quality p".to_string(),
        format!("{:.4}", fitted.quality.p),
        format!("{:.4}", truth.quality.p),
    ]);
    table.row(vec![
        "impairment k".to_string(),
        format!("{:.4}", fitted.impairment.k),
        format!("{:.4}", truth.impairment.k),
    ]);
    table.row(vec![
        "impairment p".to_string(),
        format!("{:.4}", fitted.impairment.p),
        format!("{:.4}", truth.impairment.p),
    ]);
    table.row(vec![
        "impairment q".to_string(),
        format!("{:.4}", fitted.impairment.q),
        format!("{:.4}", truth.impairment.q),
    ]);
    println!("{}", table.render());
    println!(
        "quality fit:    rmse = {:.4}, r^2 = {:.4}",
        quality_fit.rmse, quality_fit.r_squared
    );
    println!(
        "impairment fit: rmse = {:.4}, r^2 = {:.4}",
        impairment_fit.rmse, impairment_fit.r_squared
    );
}
