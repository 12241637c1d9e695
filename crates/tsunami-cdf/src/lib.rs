//! CDF models and correlation-capturing models for learned multi-dimensional
//! indexes.
//!
//! Flood partitions every dimension uniformly in its CDF (§2.2); Tsunami's
//! Augmented Grid additionally uses two correlation-aware techniques (§5.2):
//!
//! * [`FunctionalMapping`] — a linear regression with error bounds that maps
//!   a filter range on a *mapped* dimension into a range on a *target*
//!   dimension, letting the mapped dimension be dropped from the grid
//!   entirely (§5.2.1).
//! * [`ConditionalCdf`] — per-base-partition CDFs of a *dependent* dimension,
//!   i.e. `CDF(Y | X)`, producing staggered partition boundaries and
//!   equally-sized cells under generic correlations (§5.2.2).
//!
//! The choice of single-dimension CDF model is orthogonal in the paper (RMI,
//! histogram or linear regression); the indexes use [`HistogramCdf`] behind
//! the [`CdfModel`] trait, and [`Ecdf`] is the exact reference the histogram
//! is tested against.

pub mod conditional;
pub mod ecdf;
pub mod hist_cdf;
pub mod linear;
pub mod mapping;

pub use conditional::ConditionalCdf;
pub use ecdf::Ecdf;
pub use hist_cdf::HistogramCdf;
pub use linear::LinearModel;
pub use mapping::FunctionalMapping;

use tsunami_core::Value;

/// A model of a one-dimensional CDF over `u64` values.
///
/// Implementations guarantee that `cdf` is monotonically non-decreasing in
/// its argument and lies in `[0, 1]`.
pub trait CdfModel {
    /// Estimated fraction of values `<= v`.
    fn cdf(&self, v: Value) -> f64;

    /// Maps a value to one of `p` equal-CDF-mass partitions:
    /// `floor(CDF(v) * p)`, clamped to `p - 1` (§2.2).
    fn partition(&self, v: Value, p: usize) -> usize {
        debug_assert!(p > 0);
        let raw = (self.cdf(v) * p as f64).floor() as isize;
        raw.clamp(0, p as isize - 1) as usize
    }

    /// The inclusive partition range `[lo_p, hi_p]` intersected by the value
    /// range `[lo, hi]`.
    fn partition_range(&self, lo: Value, hi: Value, p: usize) -> (usize, usize) {
        let a = self.partition(lo, p);
        let b = self.partition(hi, p);
        (a.min(b), a.max(b))
    }

    /// Approximate size of the model in bytes (for index-size accounting).
    fn size_bytes(&self) -> usize;
}
