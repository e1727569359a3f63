//! End-to-end assertions that the reproduction preserves the paper's
//! qualitative results (the "shape" criteria listed in DESIGN.md §3).

use ecas::trace::videos::EvalTraceSpec;
use ecas::{Approach, ComparisonSummary, ExecPolicy, ExperimentRunner, Scenario};

fn summary() -> ComparisonSummary {
    Scenario::paper_evaluation()
        .run(&ExecPolicy::parallel())
        .unwrap()
        .0
}

#[test]
fn youtube_consumes_most_energy_on_every_trace() {
    let summary = summary();
    for t in &summary.traces {
        let youtube = t.approach(Approach::Youtube).unwrap().energy;
        for m in &t.approaches {
            assert!(
                m.energy <= youtube,
                "{} beat Youtube's energy on {}",
                m.approach.label(),
                t.trace
            );
        }
    }
}

#[test]
fn youtube_has_best_qoe_on_every_trace() {
    // A 0.05-MOS tolerance absorbs the occasional trace where Youtube's
    // fixed 5.8 Mbps stalls briefly in a deep fade while an adaptive
    // baseline rides it out (the paper's Youtube app prebuffers more
    // aggressively than a strict DASH player).
    let summary = summary();
    for t in &summary.traces {
        let youtube = t.approach(Approach::Youtube).unwrap().qoe;
        for m in &t.approaches {
            assert!(
                m.qoe <= youtube + 0.05,
                "{} beat Youtube's QoE on {} ({:.3} vs {youtube:.3})",
                m.approach.label(),
                t.trace,
                m.qoe
            );
        }
    }
}

#[test]
fn ours_and_optimal_save_far_more_than_baselines() {
    let summary = summary();
    let ours = summary.mean_energy_saving(Approach::Ours);
    let optimal = summary.mean_energy_saving(Approach::Optimal);
    let festive = summary.mean_energy_saving(Approach::Festive);
    let bba = summary.mean_energy_saving(Approach::Bba);
    // Paper: 33% / 36% vs 7% / 4%.
    assert!(ours > 0.15, "ours saved only {ours:.3}");
    assert!(optimal > 0.15, "optimal saved only {optimal:.3}");
    assert!(
        ours > 3.0 * festive,
        "ours ({ours:.3}) vs festive ({festive:.3})"
    );
    assert!(ours > 3.0 * bba, "ours ({ours:.3}) vs bba ({bba:.3})");
}

#[test]
fn extra_energy_savings_match_paper_shape() {
    let summary = summary();
    // Paper: 77% / 80% for Ours/Optimal vs 15% / 8% for FESTIVE/BBA.
    let ours = summary.mean_extra_energy_saving(Approach::Ours);
    let optimal = summary.mean_extra_energy_saving(Approach::Optimal);
    let festive = summary.mean_extra_energy_saving(Approach::Festive);
    let bba = summary.mean_extra_energy_saving(Approach::Bba);
    assert!(ours > 0.5, "ours extra saving {ours:.3}");
    assert!(optimal > 0.5, "optimal extra saving {optimal:.3}");
    assert!(festive < 0.25, "festive extra saving {festive:.3}");
    assert!(bba < 0.25, "bba extra saving {bba:.3}");
}

#[test]
fn ours_qoe_degradation_is_small() {
    let summary = summary();
    // Paper: 3.5% average degradation; we allow up to 10%.
    let deg = summary.mean_qoe_degradation(Approach::Ours);
    assert!(deg < 0.10, "ours degraded QoE by {deg:.3}");
    assert!(deg > 0.0, "ours cannot beat Youtube's QoE on average");
}

#[test]
fn quiet_trace_has_best_qoe_for_every_approach() {
    // "the QoE for trace 2 is much better for all approaches due to its
    // low vibration level" (Section V-C).
    let summary = summary();
    let trace2 = &summary.traces[1];
    for a in Approach::paper_set() {
        let q2 = trace2.approach(a).unwrap().qoe;
        for t in &summary.traces {
            if t.trace == "trace2" {
                continue;
            }
            let q = t.approach(a).unwrap().qoe;
            assert!(
                q2 > q,
                "{}: trace2 QoE {q2:.3} not above {} QoE {q:.3}",
                a.label(),
                t.trace
            );
        }
    }
}

#[test]
fn optimal_minimizes_the_objective_among_all_approaches() {
    use ecas::abr::OptimalPlanner;
    use ecas::types::ladder::BitrateLadder;

    let session = EvalTraceSpec::table_v()[0].generate();
    let runner = ExperimentRunner::paper();
    let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
    let plan = planner.plan(&session);

    for approach in Approach::paper_set() {
        let result = runner.run(&session, &approach);
        let levels: Vec<_> = result.tasks.iter().map(|t| t.level).collect();
        let objective = planner.objective_of(&session, &levels);
        assert!(
            plan.objective <= objective + 1e-9,
            "optimal objective {} worse than {}'s {objective}",
            plan.objective,
            approach.label()
        );
    }
}

#[test]
fn nobody_rebuffers_catastrophically() {
    let summary = summary();
    for t in &summary.traces {
        for m in &t.approaches {
            assert!(
                m.rebuffer_seconds.value() < 60.0,
                "{} stalled {:.0}s on {}",
                m.approach.label(),
                m.rebuffer_seconds.value(),
                t.trace
            );
        }
    }
}

#[test]
fn adaptive_approaches_never_stall_while_youtube_may() {
    let summary = summary();
    for t in &summary.traces {
        for a in [Approach::Ours, Approach::Optimal] {
            let m = t.approach(a).unwrap();
            assert!(
                m.rebuffer_seconds.value() < 1.0,
                "{} stalled {:.1}s on {}",
                a.label(),
                m.rebuffer_seconds.value(),
                t.trace
            );
        }
    }
}
