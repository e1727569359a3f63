//! Synthetic subjective quality-assessment study (Section III-B).
//!
//! The paper recruited twenty subjects (IRB-approved) who watched the ten
//! Table I videos at the six Table II bitrates in two contexts and rated
//! them on the nine-grade ITU-T P.910 numerical scale. The raw ratings are
//! not public, so this module simulates the panel: each subject rates a
//! ground-truth QoE surface plus per-subject bias, per-video taste and
//! per-rating noise, quantized to the integer nine-grade scale and mapped
//! to the five-level scale with the paper's transform.
//!
//! Feeding these synthetic ratings through [`crate::fit`] regenerates the
//! whole Table III pipeline: noisy panel → MOS aggregation → least-squares
//! fit → model parameters.

use ecas_trace::synth::standard_normal;
use ecas_types::units::{Mbps, MetersPerSec2, QoeScore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::fit::{fit_impairment, fit_quality, FitError, FitReport};
use crate::impairment::VibrationImpairment;
use crate::params::{PenaltyParams, QoeParams};
use crate::quality::OriginalQuality;

/// One rating produced by one subject for one clip.
#[derive(Debug, Clone, PartialEq, Serialize)]
// ecas-lint: allow(pub-surface, reason = "sample type consumed by the public MOS aggregation API")
pub struct Rating {
    /// Subject index (0-based).
    pub subject: usize,
    /// Video genre label (Table I).
    pub video: String,
    /// Encoding bitrate of the clip.
    pub bitrate: Mbps,
    /// Vibration level of the watching context.
    pub vibration: MetersPerSec2,
    /// Raw nine-grade rating (integer 1–9 as an f64).
    pub nine_grade: f64,
    /// The five-level score after the paper's transform.
    pub qoe: QoeScore,
}

/// Configuration of the synthetic panel.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StudyConfig {
    /// Number of subjects (the paper used 20).
    pub subjects: usize,
    /// Bitrates shown to each subject (Table II by default).
    pub bitrates: Vec<Mbps>,
    /// Context vibration levels (quiet room ≈ 0.3, vehicle ≈ 2–7 m/s²).
    pub vibration_levels: Vec<MetersPerSec2>,
    /// Video genre labels with a small per-video taste offset each.
    pub videos: Vec<(String, f64)>,
    /// Std of the per-subject constant bias (nine-grade units).
    pub subject_bias_std: f64,
    /// Std of the per-rating noise (nine-grade units).
    pub rating_noise_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl StudyConfig {
    /// The paper's design: 20 subjects, Table II bitrates, a quiet room
    /// and a sweep of vehicle vibration levels, ten videos.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        let videos = ecas_trace::videos::TestVideo::table_i()
            .into_iter()
            // High-motion content benefits slightly more from bitrate: use
            // a small taste offset derived from the temporal information.
            .map(|v| (v.genre.to_string(), (v.temporal_info - 14.0) / 60.0))
            .collect();
        Self {
            subjects: 20,
            bitrates: ecas_types::ladder::BitrateLadder::table_ii()
                .iter()
                .map(|e| e.bitrate())
                .collect(),
            vibration_levels: vec![
                MetersPerSec2::new(0.3),
                MetersPerSec2::new(2.0),
                MetersPerSec2::new(4.0),
                MetersPerSec2::new(6.0),
            ],
            videos,
            subject_bias_std: 0.5,
            rating_noise_std: 0.7,
            seed,
        }
    }
}

/// The synthetic subjective study.
#[derive(Debug, Clone)]
pub struct SubjectiveStudy {
    config: StudyConfig,
    truth_quality: OriginalQuality,
    truth_impairment: VibrationImpairment,
}

impl SubjectiveStudy {
    /// Creates a study rating the given ground-truth surfaces.
    #[must_use]
    pub fn new(
        config: StudyConfig,
        truth_quality: OriginalQuality,
        truth_impairment: VibrationImpairment,
    ) -> Self {
        Self {
            config,
            truth_quality,
            truth_impairment,
        }
    }

    /// The paper's design against the reference ground truth.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self::new(
            StudyConfig::paper(seed),
            OriginalQuality::paper(),
            VibrationImpairment::paper(),
        )
    }

    /// The study configuration.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs the panel and returns every individual rating.
    /// Deterministic for a given seed.
    #[must_use]
    pub fn run(&self) -> Vec<Rating> {
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut ratings = Vec::with_capacity(
            cfg.subjects * cfg.bitrates.len() * cfg.vibration_levels.len() * cfg.videos.len(),
        );
        for subject in 0..cfg.subjects {
            let bias = cfg.subject_bias_std * standard_normal(&mut rng);
            for (video, taste) in &cfg.videos {
                for &bitrate in &cfg.bitrates {
                    for &vibration in &cfg.vibration_levels {
                        let true_q = self.truth_quality.at(bitrate).value()
                            - self.truth_impairment.at(vibration, bitrate);
                        // Move to the nine-grade scale, add human factors,
                        // quantize to an integer grade as P.910 prescribes.
                        let nine_true = 1.0 + 8.0 * (true_q - 1.0) / 4.0;
                        let noisy = nine_true
                            + bias
                            + taste
                            + cfg.rating_noise_std * standard_normal(&mut rng);
                        let nine = noisy.round().clamp(1.0, 9.0);
                        ratings.push(Rating {
                            subject,
                            video: video.clone(),
                            bitrate,
                            vibration,
                            nine_grade: nine,
                            qoe: QoeScore::from_nine_grade(nine),
                        });
                    }
                }
            }
        }
        ratings
    }
}

/// Mean-opinion-score aggregation: averages ratings per
/// `(bitrate, vibration)` cell.
#[must_use]
pub fn aggregate_mos(ratings: &[Rating]) -> Vec<(Mbps, MetersPerSec2, f64)> {
    let mut cells: Vec<(Mbps, MetersPerSec2, f64, usize)> = Vec::new();
    for r in ratings {
        match cells.iter_mut().find(|(b, v, _, _)| {
            (b.value() - r.bitrate.value()).abs() < 1e-12
                && (v.value() - r.vibration.value()).abs() < 1e-12
        }) {
            Some((_, _, sum, n)) => {
                *sum += r.qoe.value();
                *n += 1;
            }
            None => cells.push((r.bitrate, r.vibration, r.qoe.value(), 1)),
        }
    }
    cells
        .into_iter()
        .map(|(b, v, sum, n)| (b, v, sum / n as f64))
        .collect()
}

/// The full Table III pipeline: run the panel, aggregate MOS, fit both
/// model components, and return the fitted bundle with fit reports.
///
/// The quiet-room cells (lowest vibration level) provide the original
/// quality data; the impairment data is the per-cell MOS deficit relative
/// to the quiet room at the same bitrate.
///
/// # Errors
///
/// Returns [`FitError`] if the study produced degenerate data (cannot
/// happen for the paper design; possible with tiny custom configs).
pub fn run_study_and_fit(
    study: &SubjectiveStudy,
) -> Result<(QoeParams, FitReport, FitReport), FitError> {
    let ratings = study.run();
    let mos = aggregate_mos(&ratings);

    // Quiet-room curve: the lowest vibration level plays the "room" role.
    let min_vib = mos
        .iter()
        .map(|&(_, v, _)| v.value())
        .fold(f64::INFINITY, f64::min);
    let room: Vec<(Mbps, f64)> = mos
        .iter()
        .filter(|&&(_, v, _)| (v.value() - min_vib).abs() < 1e-9)
        .map(|&(b, _, q)| (b, q))
        .collect();
    let (quality, quality_fit) = fit_quality(&room)?;

    // Impairment: deficit of each vibrating cell vs the room cell at the
    // same bitrate.
    let mut impairment_data = Vec::new();
    for &(b, v, q) in &mos {
        if (v.value() - min_vib).abs() < 1e-9 {
            continue;
        }
        if let Some(&(_, _, q_room)) = mos.iter().find(|&&(rb, rv, _)| {
            (rv.value() - min_vib).abs() < 1e-9 && (rb.value() - b.value()).abs() < 1e-12
        }) {
            impairment_data.push((v, b, (q_room - q).max(0.0)));
        }
    }
    let (impairment, impairment_fit) = fit_impairment(&impairment_data)?;

    Ok((
        QoeParams {
            quality,
            impairment,
            penalty: PenaltyParams::paper(),
        },
        quality_fit,
        impairment_fit,
    ))
}

/// Convenience: the paper pipeline with default ground truth.
///
/// # Errors
///
/// Propagates [`FitError`] from [`run_study_and_fit`].
pub fn table_iii(seed: u64) -> Result<(QoeParams, FitReport, FitReport), FitError> {
    run_study_and_fit(&SubjectiveStudy::paper(seed))
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn panel_size_matches_design() {
        let study = SubjectiveStudy::paper(1);
        let ratings = study.run();
        let cfg = study.config();
        assert_eq!(
            ratings.len(),
            cfg.subjects * cfg.bitrates.len() * cfg.vibration_levels.len() * cfg.videos.len()
        );
        assert_eq!(cfg.subjects, 20);
        assert_eq!(cfg.bitrates.len(), 6);
        assert_eq!(cfg.videos.len(), 10);
    }

    #[test]
    fn ratings_are_valid_nine_grades() {
        for r in SubjectiveStudy::paper(2).run() {
            assert!((1.0..=9.0).contains(&r.nine_grade));
            assert_eq!(r.nine_grade, r.nine_grade.round());
            assert!((1.0..=5.0).contains(&r.qoe.value()));
        }
    }

    #[test]
    fn study_is_deterministic() {
        assert_eq!(
            SubjectiveStudy::paper(3).run(),
            SubjectiveStudy::paper(3).run()
        );
        assert_ne!(
            SubjectiveStudy::paper(3).run(),
            SubjectiveStudy::paper(4).run()
        );
    }

    #[test]
    fn mos_increases_with_bitrate_in_quiet_room() {
        let ratings = SubjectiveStudy::paper(5).run();
        let mos = aggregate_mos(&ratings);
        let mut room: Vec<(f64, f64)> = mos
            .iter()
            .filter(|&&(_, v, _)| v.value() < 0.5)
            .map(|&(b, _, q)| (b.value(), q))
            .collect();
        ecas_types::float::total_sort_by_key(&mut room, |entry| entry.0);
        for w in room.windows(2) {
            assert!(
                w[0].1 < w[1].1 + 0.1,
                "MOS not increasing: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // Span of the curve matches Fig. 2(b).
        assert!(room.first().unwrap().1 < 2.0);
        assert!(room.last().unwrap().1 > 4.0);
    }

    #[test]
    fn fitted_parameters_recover_ground_truth_shape() {
        let (params, qfit, ifit) = table_iii(42).unwrap();
        assert!(params.is_valid());
        assert!(qfit.r_squared > 0.97, "quality fit r2 {}", qfit.r_squared);
        assert!(ifit.r_squared > 0.5, "impairment fit r2 {}", ifit.r_squared);

        // The fitted model reproduces the paper's headline numbers.
        let q0 = OriginalQuality::new(params.quality);
        let room_drop = q0.relative_drop(Mbps::new(5.8), Mbps::new(1.5));
        assert!(
            (0.07..=0.17).contains(&room_drop),
            "room drop {room_drop}, want ~0.12"
        );

        let imp = VibrationImpairment::new(params.impairment);
        let heavy = imp.at(MetersPerSec2::new(6.0), Mbps::new(5.8));
        assert!(
            (0.3..=0.8).contains(&heavy),
            "I(6, 5.8) = {heavy}, want ~0.55"
        );
    }

    #[test]
    fn mos_by_video_reflects_taste_offsets() {
        // The study gives high-TI videos a positive taste offset, so
        // Basketball (TI 25) should out-rate Speech (TI 3) on average.
        let ratings = SubjectiveStudy::paper(6).run();
        let get = |name: &str| {
            let scores: Vec<f64> = ratings
                .iter()
                .filter(|r| r.video == name)
                .map(|r| r.qoe.value())
                .collect();
            assert!(!scores.is_empty(), "no ratings for {name}");
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        assert!(
            get("Basketball") > get("Speech"),
            "basketball {} vs speech {}",
            get("Basketball"),
            get("Speech")
        );
    }

    #[test]
    fn aggregate_mos_averages_cells() {
        let ratings = vec![
            Rating {
                subject: 0,
                video: "a".into(),
                bitrate: Mbps::new(1.0),
                vibration: MetersPerSec2::new(0.0),
                nine_grade: 5.0,
                qoe: QoeScore::new(3.0),
            },
            Rating {
                subject: 1,
                video: "a".into(),
                bitrate: Mbps::new(1.0),
                vibration: MetersPerSec2::new(0.0),
                nine_grade: 9.0,
                qoe: QoeScore::new(5.0),
            },
        ];
        let mos = aggregate_mos(&ratings);
        assert_eq!(mos.len(), 1);
        assert!((mos[0].2 - 4.0).abs() < 1e-12);
    }
}
