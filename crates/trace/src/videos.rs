//! The paper's canonical video artifacts.
//!
//! * [`TestVideo`] — the ten quality-assessment videos of Table I with the
//!   spatial/temporal information of Fig. 2(a). The paper reports the SI/TI
//!   scatter only graphically; the values here are read off the figure and
//!   are documented reconstructions.
//! * [`EvalTraceSpec`] — the five evaluation traces of Table V, each of
//!   which can be regenerated deterministically via [`EvalTraceSpec::generate`].

use ecas_types::units::{MegaBytes, MetersPerSec2, Seconds};
use serde::{Deserialize, Serialize};

use crate::session::SessionTrace;
use crate::synth::context::{Context, ContextSchedule};
use crate::synth::SessionGenerator;

/// One of the ten quality-assessment videos (Table I / Fig. 2a).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TestVideo {
    /// Short genre name used in Table I (e.g. "Speech").
    pub genre: &'static str,
    /// The Table I explanation column.
    pub explanation: &'static str,
    /// Average spatial information (Fig. 2a x-axis, ITU-T P.910 SI).
    pub spatial_info: f64,
    /// Average temporal information (Fig. 2a y-axis, ITU-T P.910 TI).
    pub temporal_info: f64,
}

impl TestVideo {
    /// The ten test videos of Table I with Fig. 2(a) SI/TI coordinates.
    #[must_use]
    pub fn table_i() -> Vec<TestVideo> {
        // SI/TI pairs are read off the Fig. 2(a) scatter; the set spans the
        // low-motion (Speech) to high-motion (Basketball/Goodwood) range.
        vec![
            TestVideo {
                genre: "Speech",
                explanation: "Speech on TV",
                spatial_info: 32.0,
                temporal_info: 3.0,
            },
            TestVideo {
                genre: "Show",
                explanation: "Allen show",
                spatial_info: 38.0,
                temporal_info: 6.0,
            },
            TestVideo {
                genre: "Doc",
                explanation: "Documentary",
                spatial_info: 45.0,
                temporal_info: 8.0,
            },
            TestVideo {
                genre: "BBB",
                explanation: "Big Buck Bunny (animation)",
                spatial_info: 40.0,
                temporal_info: 12.0,
            },
            TestVideo {
                genre: "Sintel",
                explanation: "Sintel (movie)",
                spatial_info: 42.0,
                temporal_info: 15.0,
            },
            TestVideo {
                genre: "Matrix",
                explanation: "A fight scene in The Matrix (movie)",
                spatial_info: 48.0,
                temporal_info: 20.0,
            },
            TestVideo {
                genre: "Battle",
                explanation: "A battle scene in The Hobbit (movie)",
                spatial_info: 52.0,
                temporal_info: 22.0,
            },
            TestVideo {
                genre: "Basketball",
                explanation: "Sport",
                spatial_info: 55.0,
                temporal_info: 25.0,
            },
            TestVideo {
                genre: "Yacht",
                explanation: "Moving yacht",
                spatial_info: 35.0,
                temporal_info: 10.0,
            },
            TestVideo {
                genre: "Goodwood",
                explanation: "Horseracing",
                spatial_info: 58.0,
                temporal_info: 18.0,
            },
        ]
    }
}

/// Specification of one Table V evaluation trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalTraceSpec {
    /// Trace identifier (1-based, as in Table V).
    pub id: u8,
    /// Video length in seconds (Table V column).
    pub length: Seconds,
    /// Data size of the original session (Table V column).
    pub data_size: MegaBytes,
    /// Average vibration level (Table V column).
    pub avg_vibration: MetersPerSec2,
    /// RNG seed used for regeneration.
    pub seed: u64,
}

impl EvalTraceSpec {
    /// The five evaluation traces of Table V.
    #[must_use]
    pub fn table_v() -> Vec<EvalTraceSpec> {
        let rows: [(u8, f64, f64, f64); 5] = [
            (1, 198.0, 65.1, 6.83),
            (2, 371.0, 123.8, 2.46),
            (3, 449.0, 140.6, 6.61),
            (4, 498.0, 152.2, 6.41),
            (5, 612.0, 173.1, 5.23),
        ];
        rows.iter()
            .map(|&(id, len, size, vib)| EvalTraceSpec {
                id,
                length: Seconds::new(len),
                data_size: MegaBytes::new(size),
                avg_vibration: MetersPerSec2::new(vib),
                seed: 0xECA5_0900 + u64::from(id),
            })
            .collect()
    }

    /// Trace name as used throughout the evaluation ("trace1" … "trace5").
    #[must_use]
    pub fn name(&self) -> String {
        format!("trace{}", self.id)
    }

    /// The context schedule implied by the trace's average vibration:
    /// heavy vibration means a vehicle-dominated session, light vibration a
    /// mostly-static one.
    #[must_use]
    pub fn schedule(&self) -> ContextSchedule {
        let v = self.avg_vibration.value();
        let t = self.length.value();
        if v >= 6.0 {
            // Nearly the whole session on the vehicle.
            ContextSchedule::new(vec![
                (Seconds::zero(), Context::Walking),
                (Seconds::new((t * 0.05).max(1.0)), Context::MovingVehicle),
            ])
            // ecas-lint: allow(panic-safety, reason = "the schedule literal is sorted and non-empty by construction")
            .expect("static schedule is valid")
        } else if v >= 4.0 {
            // Mixed: vehicle ride with a quiet stretch (trace 5).
            ContextSchedule::new(vec![
                (Seconds::zero(), Context::MovingVehicle),
                (Seconds::new(t * 0.60), Context::Walking),
                (Seconds::new(t * 0.75), Context::MovingVehicle),
            ])
            // ecas-lint: allow(panic-safety, reason = "the schedule literal is sorted and non-empty by construction")
            .expect("static schedule is valid")
        } else {
            // Mostly quiet with a short walk (trace 2).
            ContextSchedule::new(vec![
                (Seconds::zero(), Context::QuietRoom),
                (Seconds::new(t * 0.80), Context::Walking),
            ])
            // ecas-lint: allow(panic-safety, reason = "the schedule literal is sorted and non-empty by construction")
            .expect("static schedule is valid")
        }
    }

    /// Regenerates the full session trace for this spec. Deterministic.
    #[must_use]
    pub fn generate(&self) -> SessionTrace {
        SessionGenerator::new(self.name(), self.schedule(), self.length, self.seed)
            .vibration_target(self.avg_vibration)
            .data_size(self.data_size)
            .description(format!(
                "synthetic regeneration of Table V trace {} (avg vibration {:.2} m/s^2)",
                self.id,
                self.avg_vibration.value()
            ))
            .generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_has_ten_distinct_videos() {
        let videos = TestVideo::table_i();
        assert_eq!(videos.len(), 10);
        let mut genres: Vec<_> = videos.iter().map(|v| v.genre).collect();
        genres.sort_unstable();
        genres.dedup();
        assert_eq!(genres.len(), 10);
    }

    #[test]
    fn table_i_spans_si_ti_ranges_of_fig_2a() {
        let videos = TestVideo::table_i();
        let si_min = videos
            .iter()
            .map(|v| v.spatial_info)
            .fold(f64::MAX, f64::min);
        let si_max = videos
            .iter()
            .map(|v| v.spatial_info)
            .fold(f64::MIN, f64::max);
        let ti_max = videos
            .iter()
            .map(|v| v.temporal_info)
            .fold(f64::MIN, f64::max);
        assert!(si_min >= 30.0 && si_max <= 60.0, "SI range per Fig. 2a");
        assert!(ti_max <= 30.0, "TI range per Fig. 2a");
    }

    #[test]
    fn table_v_matches_paper_rows() {
        let specs = EvalTraceSpec::table_v();
        assert_eq!(specs.len(), 5);
        assert_eq!(specs[0].length, Seconds::new(198.0));
        assert_eq!(specs[1].avg_vibration, MetersPerSec2::new(2.46));
        assert_eq!(specs[4].data_size, MegaBytes::new(173.1));
        assert_eq!(specs[2].name(), "trace3");
    }

    #[test]
    fn schedules_match_vibration_class() {
        let specs = EvalTraceSpec::table_v();
        // trace1 (6.83) is vehicle-dominated.
        let occ = specs[0].schedule().occupancy(specs[0].length);
        assert!(occ[2] > 0.9);
        // trace2 (2.46) is mostly quiet.
        let occ = specs[1].schedule().occupancy(specs[1].length);
        assert!(occ[0] > 0.7);
        // trace5 (5.23) is mixed but vehicle-heavy.
        let occ = specs[4].schedule().occupancy(specs[4].length);
        assert!(occ[2] > 0.5 && occ[1] > 0.05);
    }

    #[test]
    fn generated_traces_roughly_hit_vibration_column() {
        for spec in EvalTraceSpec::table_v() {
            let session = spec.generate();
            let got = session.meta().avg_vibration.value();
            let want = spec.avg_vibration.value();
            assert!(
                (got - want).abs() / want < 0.25,
                "trace{}: got {got}, want {want}",
                spec.id
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &EvalTraceSpec::table_v()[0];
        assert_eq!(spec.generate(), spec.generate());
    }
}
