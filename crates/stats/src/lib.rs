//! Streaming statistics for discrete-event simulation.
//!
//! This crate provides the statistical machinery used by the `meshbound`
//! simulator: numerically stable running moments ([`Welford`]), time-weighted
//! averages of piecewise-constant signals ([`TimeWeighted`]), batch-means
//! variance estimation for correlated series ([`BatchMeans`]), Student-t
//! confidence intervals ([`ci`]), and bounded flight-recorder time series
//! that decimate instead of growing ([`DecimatingSeries`]).
//!
//! All accumulators are `O(1)` per observation and allocation-free on the hot
//! path, following the performance guidance for simulation inner loops.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod ci;
pub mod flight;
pub mod reservoir;
pub mod summary;
pub mod timeavg;
pub mod welford;

pub use batch::BatchMeans;
pub use ci::{normal_quantile, t_quantile, ConfidenceInterval};
pub use flight::DecimatingSeries;
pub use reservoir::Reservoir;
pub use summary::Summary;
pub use timeavg::TimeWeighted;
pub use welford::Welford;
