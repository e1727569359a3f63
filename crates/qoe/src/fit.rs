//! Least-squares fitting of the QoE models (the "least squares regression
//! method" of Section III-B).
//!
//! * [`fit_quality`] fits the stretched-exponential quality curve with a
//!   hybrid scheme: the curve is linear in `(q_max, a)` once `(b, p)` are
//!   fixed, so we grid-search `(b, p)`, solve the inner linear problem in
//!   closed form, and refine with two rounds of local grid shrinkage.
//! * [`fit_impairment`] fits the power-law surface by log-linearization:
//!   `ln I = ln k + p·ln v + q·ln r` is linear in `(ln k, p, q)` and is
//!   solved via the normal equations.
//! * `linear_least_squares` is the shared dense solver (normal equations
//!   with Gaussian elimination and partial pivoting) — small and exact
//!   enough for the ≤ 4-parameter problems in this crate.

use std::fmt;

use ecas_types::units::{Mbps, MetersPerSec2};
use serde::{Deserialize, Serialize};

use crate::params::{ImpairmentParams, QualityParams};

/// Error returned by the fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Too few (or degenerate) observations for the requested model.
    InsufficientData {
        /// Observations provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The normal-equation system was singular.
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::InsufficientData { got, need } => {
                write!(f, "need at least {need} observations, got {got}")
            }
            FitError::Singular => write!(f, "normal equations were singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// Goodness-of-fit summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// ecas-lint: allow(pub-surface, reason = "result type of the public fitting entry points")
pub struct FitReport {
    /// Root-mean-square error of the fit on the training data.
    pub rmse: f64,
    /// Coefficient of determination (1 − SS_res / SS_tot).
    pub r_squared: f64,
    /// Number of observations used.
    pub n: usize,
}

/// Solves `min ||X w − y||²` via the normal equations.
///
/// `x` is row-major with `cols` columns per row.
///
/// # Errors
///
/// Returns [`FitError::InsufficientData`] when there are fewer rows than
/// columns and [`FitError::Singular`] when `XᵀX` cannot be inverted.
///
/// # Panics
///
/// Panics if `x.len() != y.len() * cols`.
pub(crate) fn linear_least_squares(
    x: &[f64],
    y: &[f64],
    cols: usize,
) -> Result<Vec<f64>, FitError> {
    assert_eq!(
        x.len(),
        y.len() * cols,
        "design matrix shape mismatch: {} values for {} rows x {} cols",
        x.len(),
        y.len(),
        cols
    );
    let rows = y.len();
    if rows < cols {
        return Err(FitError::InsufficientData {
            got: rows,
            need: cols,
        });
    }

    // Build XᵀX (cols x cols) and Xᵀy (cols).
    let mut ata = vec![0.0; cols * cols];
    let mut aty = vec![0.0; cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            aty[i] += row[i] * y[r];
            for j in 0..cols {
                ata[i * cols + j] += row[i] * row[j];
            }
        }
    }

    // Gaussian elimination with partial pivoting on [XᵀX | Xᵀy].
    let n = cols;
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if ata[r * n + col].abs() > ata[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if ata[pivot * n + col].abs() < 1e-12 {
            return Err(FitError::Singular);
        }
        if pivot != col {
            for j in 0..n {
                ata.swap(col * n + j, pivot * n + j);
            }
            aty.swap(col, pivot);
        }
        // Eliminate below.
        for r in (col + 1)..n {
            let factor = ata[r * n + col] / ata[col * n + col];
            for j in col..n {
                ata[r * n + j] -= factor * ata[col * n + j];
            }
            aty[r] -= factor * aty[col];
        }
    }
    // Back substitution.
    let mut w = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = aty[col];
        for j in (col + 1)..n {
            acc -= ata[col * n + j] * w[j];
        }
        w[col] = acc / ata[col * n + col];
    }
    Ok(w)
}

fn report(residuals: &[f64], y: &[f64]) -> FitReport {
    let n = y.len();
    let ss_res: f64 = residuals.iter().map(|r| r * r).sum();
    let mean = y.iter().sum::<f64>() / n as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
    FitReport {
        rmse: (ss_res / n as f64).sqrt(),
        r_squared: if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        },
        n,
    }
}

/// Fits the quality curve `q0(r) = q_max − a·exp(−b·r^p)` to `(bitrate,
/// MOS)` observations.
///
/// # Errors
///
/// Returns [`FitError`] when fewer than four distinct observations are
/// provided or the inner linear problem is singular at every grid point.
///
/// # Examples
///
/// ```
/// use ecas_qoe::fit::fit_quality;
/// use ecas_qoe::quality::OriginalQuality;
/// use ecas_types::units::Mbps;
///
/// // Recover parameters from noiseless model samples.
/// let truth = OriginalQuality::paper();
/// let data: Vec<(Mbps, f64)> = [0.1, 0.375, 0.75, 1.5, 3.0, 5.8]
///     .iter()
///     .map(|&r| (Mbps::new(r), truth.at(Mbps::new(r)).value()))
///     .collect();
/// let (params, fit) = fit_quality(&data)?;
/// assert!(fit.rmse < 0.05);
/// # Ok::<(), ecas_qoe::fit::FitError>(())
/// ```
pub fn fit_quality(data: &[(Mbps, f64)]) -> Result<(QualityParams, FitReport), FitError> {
    if data.len() < 4 {
        return Err(FitError::InsufficientData {
            got: data.len(),
            need: 4,
        });
    }
    let y: Vec<f64> = data.iter().map(|&(_, q)| q).collect();

    let eval = |q_max: f64, a: f64, b: f64, p: f64, r: f64| q_max - a * (-b * r.powf(p)).exp();

    let mut best: Option<(f64, QualityParams)> = None;
    let mut b_range = (0.2f64, 15.0f64);
    let mut p_range = (0.02f64, 1.0f64);

    for _round in 0..3 {
        for bi in 0..40 {
            // Log-spaced grid over b.
            let b = b_range.0 * (b_range.1 / b_range.0).powf(bi as f64 / 39.0);
            for pi in 0..40 {
                let p = p_range.0 + (p_range.1 - p_range.0) * pi as f64 / 39.0;
                // Inner linear LS over (q_max, a): q = q_max + (−a)·basis.
                let mut x = Vec::with_capacity(data.len() * 2);
                for &(r, _) in data {
                    x.push(1.0);
                    x.push((-b * r.value().powf(p)).exp());
                }
                let Ok(w) = linear_least_squares(&x, &y, 2) else {
                    continue;
                };
                let (q_max, a) = (w[0], -w[1]);
                if !(1.0..=5.5).contains(&q_max) || a <= 0.0 {
                    continue;
                }
                let sse: f64 = data
                    .iter()
                    .map(|&(r, q)| (eval(q_max, a, b, p, r.value()) - q).powi(2))
                    .sum();
                if best.is_none_or(|(s, _)| sse < s) {
                    best = Some((sse, QualityParams { q_max, a, b, p }));
                }
            }
        }
        // Shrink the grid around the incumbent for the next round.
        if let Some((_, p)) = best {
            let b = p.b;
            let pp = p.p;
            b_range = ((b * 0.6).max(0.01), b * 1.6);
            p_range = ((pp * 0.6).max(0.005), (pp * 1.6).min(1.5));
        }
    }

    let (grid_sse, grid_params) = best.ok_or(FitError::Singular)?;
    // Polish the grid incumbent with damped Gauss-Newton; keep the result
    // only when it genuinely improves the SSE and stays in-domain.
    let params = match gauss_newton_quality(data, grid_params, 25) {
        Some((sse, refined)) if sse < grid_sse && refined.is_valid() => refined,
        _ => grid_params,
    };
    let residuals: Vec<f64> = data
        .iter()
        .map(|&(r, q)| eval(params.q_max, params.a, params.b, params.p, r.value()) - q)
        .collect();
    Ok((params, report(&residuals, &y)))
}

/// Damped Gauss-Newton refinement of the quality-curve fit. Returns the
/// refined parameters and their SSE, or `None` when no step improved.
fn gauss_newton_quality(
    data: &[(Mbps, f64)],
    init: QualityParams,
    iterations: usize,
) -> Option<(f64, QualityParams)> {
    let eval = |p: &QualityParams, r: f64| p.q_max - p.a * (-p.b * r.powf(p.p)).exp();
    let sse_of = |p: &QualityParams| -> f64 {
        data.iter()
            .map(|&(r, q)| (eval(p, r.value()) - q).powi(2))
            .sum()
    };

    let mut current = init;
    let mut current_sse = sse_of(&current);
    let mut improved = false;

    for _ in 0..iterations {
        // Residuals and the 4-column Jacobian of f at the current point.
        let n = data.len();
        let mut jac = Vec::with_capacity(n * 4);
        let mut neg_res = Vec::with_capacity(n);
        for &(r, q) in data {
            let r = r.value();
            let rp = r.powf(current.p);
            let e = (-current.b * rp).exp();
            jac.push(1.0); // d/d q_max
            jac.push(-e); // d/d a
            jac.push(current.a * rp * e); // d/d b
                                          // d/d p: a * b * r^p * ln(r) * e  (ln(0.x) is fine; r > 0)
            jac.push(current.a * current.b * rp * r.ln() * e);
            neg_res.push(q - eval(&current, r));
        }
        let Ok(step) = linear_least_squares(&jac, &neg_res, 4) else {
            break;
        };

        // Backtracking line search on the step length.
        let mut scale = 1.0;
        let mut accepted = false;
        for _ in 0..8 {
            let candidate = QualityParams {
                q_max: current.q_max + scale * step[0],
                a: current.a + scale * step[1],
                b: current.b + scale * step[2],
                p: current.p + scale * step[3],
            };
            if candidate.is_valid() {
                let sse = sse_of(&candidate);
                if sse < current_sse {
                    current = candidate;
                    current_sse = sse;
                    accepted = true;
                    improved = true;
                    break;
                }
            }
            scale *= 0.5;
        }
        if !accepted {
            break;
        }
        if current_sse < 1e-18 {
            break;
        }
    }

    improved.then_some((current_sse, current))
}

/// Fits the impairment surface `I(v, r) = k·v^p·r^q` to
/// `(vibration, bitrate, impairment)` observations by log-linearization.
///
/// Observations with non-positive impairment or vibration carry no
/// information about a multiplicative surface and are skipped.
///
/// # Errors
///
/// Returns [`FitError`] when fewer than three usable observations remain
/// or the system is singular.
///
/// # Examples
///
/// ```
/// use ecas_qoe::fit::fit_impairment;
/// use ecas_qoe::impairment::VibrationImpairment;
/// use ecas_types::units::{MetersPerSec2, Mbps};
///
/// let truth = VibrationImpairment::paper();
/// let mut data = Vec::new();
/// for &v in &[1.0, 2.0, 4.0, 6.0] {
///     for &r in &[0.375, 1.5, 5.8] {
///         let i = truth.at(MetersPerSec2::new(v), Mbps::new(r));
///         data.push((MetersPerSec2::new(v), Mbps::new(r), i));
///     }
/// }
/// let (params, fit) = fit_impairment(&data)?;
/// assert!(fit.rmse < 1e-6, "noiseless data is recovered exactly");
/// assert!((params.k - truth.params().k).abs() < 1e-6);
/// # Ok::<(), ecas_qoe::fit::FitError>(())
/// ```
pub fn fit_impairment(
    data: &[(MetersPerSec2, Mbps, f64)],
) -> Result<(ImpairmentParams, FitReport), FitError> {
    let usable: Vec<(f64, f64, f64)> = data
        .iter()
        .filter(|&&(v, r, i)| i > 1e-6 && v.value() > 1e-9 && r.value() > 1e-9)
        .map(|&(v, r, i)| (v.value(), r.value(), i))
        .collect();
    if usable.len() < 3 {
        return Err(FitError::InsufficientData {
            got: usable.len(),
            need: 3,
        });
    }

    let mut x = Vec::with_capacity(usable.len() * 3);
    let mut y = Vec::with_capacity(usable.len());
    for &(v, r, i) in &usable {
        x.push(1.0);
        x.push(v.ln());
        x.push(r.ln());
        y.push(i.ln());
    }
    let w = linear_least_squares(&x, &y, 3)?;
    let params = ImpairmentParams {
        k: w[0].exp(),
        p: w[1],
        q: w[2],
    };

    // Report residuals in the original (not log) space over ALL the data,
    // including the skipped near-zero observations.
    let all_y: Vec<f64> = data.iter().map(|&(_, _, i)| i).collect();
    let residuals: Vec<f64> = data
        .iter()
        .map(|&(v, r, i)| params.k * v.value().powf(params.p) * r.value().powf(params.q) - i)
        .collect();
    Ok((params, report(&residuals, &all_y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairment::VibrationImpairment;
    use crate::quality::OriginalQuality;

    #[test]
    fn linear_solver_recovers_exact_solution() {
        // y = 2*x0 + 3*x1 - 1 on a few points.
        let pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 3.0), (4.0, -1.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &(a, b) in &pts {
            x.extend_from_slice(&[a, b, 1.0]);
            y.push(2.0 * a + 3.0 * b - 1.0);
        }
        let w = linear_least_squares(&x, &y, 3).unwrap();
        assert!((w[0] - 2.0).abs() < 1e-9);
        assert!((w[1] - 3.0).abs() < 1e-9);
        assert!((w[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_solver_rejects_underdetermined_and_singular() {
        assert_eq!(
            linear_least_squares(&[1.0, 2.0], &[1.0], 2).unwrap_err(),
            FitError::InsufficientData { got: 1, need: 2 }
        );
        // Two identical columns are singular.
        let x = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(
            linear_least_squares(&x, &y, 2).unwrap_err(),
            FitError::Singular
        );
    }

    #[test]
    fn quality_fit_recovers_anchor_values() {
        let truth = OriginalQuality::paper();
        let data: Vec<(Mbps, f64)> = [0.1, 0.2, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 3.0, 4.3, 5.8]
            .iter()
            .map(|&r| (Mbps::new(r), truth.at(Mbps::new(r)).value()))
            .collect();
        let (params, fit) = fit_quality(&data).unwrap();
        assert!(fit.rmse < 0.02, "rmse {}", fit.rmse);
        assert!(fit.r_squared > 0.999);
        // The fitted curve reproduces the anchors even if the raw
        // parameters differ (the family is not identifiable from 11 points).
        let fitted = OriginalQuality::new(params);
        for r in [0.1, 1.5, 5.8] {
            let want = truth.at(Mbps::new(r)).value();
            let got = fitted.at(Mbps::new(r)).value();
            assert!((want - got).abs() < 0.06, "q0({r}): {got} vs {want}");
        }
    }

    #[test]
    fn quality_fit_handles_noise() {
        let truth = OriginalQuality::paper();
        // Deterministic pseudo-noise.
        let data: Vec<(Mbps, f64)> = (0..40)
            .map(|i| {
                let r = 0.1 + 5.7 * (i as f64 / 39.0);
                let noise = 0.08 * ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5);
                (Mbps::new(r), truth.at(Mbps::new(r)).value() + noise)
            })
            .collect();
        let (_, fit) = fit_quality(&data).unwrap();
        assert!(fit.rmse < 0.08, "rmse {}", fit.rmse);
        assert!(fit.r_squared > 0.98);
    }

    #[test]
    fn quality_fit_requires_enough_data() {
        let data = vec![(Mbps::new(1.0), 3.0)];
        assert!(matches!(
            fit_quality(&data),
            Err(FitError::InsufficientData { .. })
        ));
    }

    #[test]
    fn impairment_fit_exact_on_noiseless_grid() {
        let truth = VibrationImpairment::paper();
        let mut data = Vec::new();
        for &v in &[0.5, 1.0, 2.0, 4.0, 6.0, 7.0] {
            for &r in &[0.1, 0.375, 1.5, 3.0, 5.8] {
                data.push((
                    MetersPerSec2::new(v),
                    Mbps::new(r),
                    truth.at(MetersPerSec2::new(v), Mbps::new(r)),
                ));
            }
        }
        let (params, fit) = fit_impairment(&data).unwrap();
        assert!((params.k - truth.params().k).abs() < 1e-9);
        assert!((params.p - truth.params().p).abs() < 1e-9);
        assert!((params.q - truth.params().q).abs() < 1e-9);
        assert!(fit.rmse < 1e-9);
    }

    #[test]
    fn impairment_fit_skips_zero_rows_but_reports_over_all() {
        let truth = VibrationImpairment::paper();
        let mut data = vec![
            (MetersPerSec2::new(0.0), Mbps::new(5.8), 0.0),
            (MetersPerSec2::new(1e-12), Mbps::new(5.8), 0.0),
        ];
        for &v in &[1.0, 3.0, 6.0] {
            for &r in &[0.5, 2.0, 5.8] {
                data.push((
                    MetersPerSec2::new(v),
                    Mbps::new(r),
                    truth.at(MetersPerSec2::new(v), Mbps::new(r)),
                ));
            }
        }
        let (params, fit) = fit_impairment(&data).unwrap();
        assert!(params.is_valid());
        assert!(fit.n == data.len());
        assert!(fit.rmse < 1e-6);
    }

    #[test]
    fn impairment_fit_requires_usable_rows() {
        let data = vec![
            (MetersPerSec2::new(0.0), Mbps::new(1.0), 0.0),
            (MetersPerSec2::new(0.0), Mbps::new(2.0), 0.0),
            (MetersPerSec2::new(0.0), Mbps::new(3.0), 0.0),
        ];
        assert!(matches!(
            fit_impairment(&data),
            Err(FitError::InsufficientData { .. })
        ));
    }
}

#[cfg(test)]
mod gauss_newton_tests {
    use super::*;
    use crate::quality::OriginalQuality;

    #[test]
    fn noiseless_fit_is_near_machine_precision() {
        // With Gauss-Newton polish, a noiseless sample of the model family
        // should be recovered to far better accuracy than the grid alone
        // (grid resolution is ~1-2% in (b, p)).
        let truth = OriginalQuality::paper();
        let data: Vec<(Mbps, f64)> = [0.1, 0.2, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 3.0, 4.3, 5.8]
            .iter()
            .map(|&r| (Mbps::new(r), truth.at(Mbps::new(r)).value()))
            .collect();
        let (params, fit) = fit_quality(&data).unwrap();
        assert!(
            fit.rmse < 1e-6,
            "rmse {} should be ~0 after polish",
            fit.rmse
        );
        // The parameters themselves converge (the family is identifiable
        // at this accuracy level).
        assert!((params.q_max - truth.params().q_max).abs() < 1e-3);
        assert!((params.b - truth.params().b).abs() < 1e-2);
    }

    #[test]
    fn polish_never_worsens_noisy_fits() {
        // On noisy data the polished SSE is at most the grid SSE by
        // construction; sanity-check rmse stays in the expected band.
        let truth = OriginalQuality::paper();
        let data: Vec<(Mbps, f64)> = (0..25)
            .map(|i| {
                let r = 0.1 + 5.7 * (i as f64 / 24.0);
                let noise = 0.1 * (((i * 2654435761usize) % 100) as f64 / 100.0 - 0.5);
                (
                    Mbps::new(r),
                    (truth.at(Mbps::new(r)).value() + noise).clamp(1.0, 5.0),
                )
            })
            .collect();
        let (_, fit) = fit_quality(&data).unwrap();
        assert!(fit.rmse < 0.08, "rmse {}", fit.rmse);
    }
}
