//! Bitrate-adaptation algorithms.
//!
//! This crate implements every approach compared in Section V of the
//! paper, plus two related-work extensions used for ablations:
//!
//! | Controller | Paper role | Module |
//! |---|---|---|
//! | `FixedLevel::highest()` (re-exported) | "Youtube": everything at 5.8 Mbps | `ecas-sim` |
//! | [`Festive`] | Throughput-based baseline (ref \[2\]) | [`festive`] |
//! | [`Bba`] | Buffer-based baseline (ref \[24\]) | [`bba`] |
//! | [`Online`] | **The paper's Algorithm 1** | [`online`] |
//! | [`OptimalPlanner`] | The optimal shortest-path algorithm (Fig. 4) | [`optimal`] |
//! | [`Bola`] | Related-work extension (ref \[5\]) | [`bola`] |
//! | [`Mpc`] | Related-work extension (ref \[17\], simplified) | [`mpc`] |
//! | [`Pid`] | Related-work extension (ref \[4\]) | [`pid`] |
//! | [`RateBased`] | Last-sample strawman | [`rate`] |
//!
//! The optimization objective of Eq. (11) lives in [`objective`]; the
//! optimal planner solves the Fig. 4 shortest path with a forward dynamic
//! program in [`optimal`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod bba;
pub mod bola;
pub mod deferral;
pub mod festive;
pub mod instrument;
pub mod mpc;
pub mod objective;
pub mod online;
pub mod optimal;
pub mod pid;
pub mod rate;

pub use adaptive::AdaptiveEta;
pub use bba::Bba;
pub use bola::Bola;
pub use deferral::SignalDeferral;
pub use ecas_sim::controller::FixedLevel;
pub use festive::Festive;
pub use instrument::InstrumentedBox;
pub use mpc::Mpc;
pub use objective::ObjectiveWeights;
pub use online::Online;
pub use optimal::{OptimalPlan, OptimalPlanner, PlannedController};
pub use pid::Pid;
pub use rate::RateBased;
