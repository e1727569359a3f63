//! QoE models of the paper: original quality, vibration impairment,
//! bitrate-switch and rebuffering penalties, plus the least-squares
//! machinery that fits them from (synthetic) subjective-study data.
//!
//! # Model structure (reconstruction of Eqs. 1–4)
//!
//! The provided paper text has garbled math; `DESIGN.md` documents the
//! reconstruction implemented here:
//!
//! * **Original quality** (Fig. 2b): a saturating stretched-exponential in
//!   bitrate, `q0(r) = q_max − a·exp(−b·r^p)`, clamped to `[1, 5]`
//!   ([`quality::OriginalQuality`]). The family hits all three published
//!   anchors (QoE ≈ 1.5 at 0.1 Mbps, ≈ 4.5 at 5.8 Mbps, a 12 % drop from
//!   1080p to 480p in a quiet room), which a pure logarithm cannot.
//! * **Vibration impairment** (Fig. 2c): a power-law surface
//!   `I(v, r) = k·v^p·r^q` ([`impairment::VibrationImpairment`]) fitted to
//!   the four published anchor values.
//! * **Per-task QoE** (Eq. 1): `Q = q0(r) − I(v, r) − μ·|q0(r) − q0(r_prev)|
//!   − λ·T_rebuf` ([`model::QoeModel`]).
//!
//! [`study`] runs a synthetic 20-subject ITU-T P.910 experiment against the
//! ground-truth surface and [`fit`] recovers the parameters from the noisy
//! ratings — regenerating Table III end-to-end.
//!
//! # Examples
//!
//! ```
//! use ecas_qoe::model::QoeModel;
//! use ecas_types::units::{Mbps, MetersPerSec2, Seconds};
//!
//! let model = QoeModel::paper();
//! let quiet = model.segment_qoe(Mbps::new(5.8), MetersPerSec2::new(0.3), None, Seconds::zero());
//! let shaky = model.segment_qoe(Mbps::new(5.8), MetersPerSec2::new(6.0), None, Seconds::zero());
//! assert!(quiet > shaky, "vibration impairs perceived quality");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod fit;
pub mod impairment;
pub mod model;
pub mod params;
pub mod quality;
pub mod study;

pub use impairment::VibrationImpairment;
pub use model::QoeModel;
pub use params::{ImpairmentParams, PenaltyParams, QoeParams, QualityParams};
pub use quality::OriginalQuality;
