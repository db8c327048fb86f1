#![warn(missing_docs)]

//! Dense linear algebra substrate for the KATO transistor-sizing stack.
//!
//! The KATO reproduction deliberately avoids third-party numerics crates, so
//! this crate provides everything the rest of the workspace needs:
//!
//! * [`Matrix`] — a small row-major dense `f64` matrix with the usual
//!   arithmetic, cache-blocked products and views.
//! * [`CholeskyFactor`] — persistent, updatable jittered Cholesky
//!   factorisation used by the Gaussian process crates: one-shot solves and
//!   log-determinants plus rank-k [`CholeskyFactor::extend`] updates for
//!   the incremental-refit hot path.
//! * [`Lu`] — partially-pivoted LU for the real Newton solves inside the MNA
//!   circuit simulator.
//! * [`Complex64`] / [`ComplexLu`] — minimal complex arithmetic and a complex
//!   LU solve for small-signal AC analysis.
//! * [`stats`] — summary statistics (mean/std/quantiles) used for output
//!   standardisation and experiment reporting.
//!
//! # Example
//!
//! ```
//! use kato_linalg::{Matrix, CholeskyFactor};
//!
//! # fn main() -> Result<(), kato_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = CholeskyFactor::new(&a)?;
//! let x = chol.solve(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod complex;
mod error;
mod kernels;
mod lu;
mod matrix;
pub mod stats;

pub use cholesky::CholeskyFactor;
pub use complex::{Complex64, ComplexLu};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;

/// Ascending total order over `f64` that ranks every NaN *below* `−∞`.
///
/// NaN is treated as the worst possible value: `max_by(cmp_nan_worst)`
/// never selects a NaN over a number, and a descending sort via
/// `|a, b| cmp_nan_worst(b, a)` pushes NaN to the end. This is the
/// NaN-tolerant replacement for the `partial_cmp(..).expect("NaN")`
/// pattern on "larger is better" scores: a misbehaving simulator degrades
/// the ranking instead of aborting the run.
#[must_use]
pub fn cmp_nan_worst(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(b),
    }
}

/// Ascending total order over `f64` that ranks every NaN *above* `+∞`, so
/// an ascending sort places NaN last regardless of its sign bit (plain
/// `total_cmp` would put negative-sign NaN first).
#[must_use]
pub fn cmp_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// Dot product of two equal-length slices.
///
/// **Deprecation note:** this free helper predates the blocked kernels in
/// the `kernels` module and the [`CholeskyFactor`]/[`Matrix`] methods that
/// wrap them. Prefer those methods for linear-algebra work; this helper is
/// kept for feature-space callers (kernel distance computations) and will
/// not gain the `simd` fast paths.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// **Deprecation note:** see [`dot`] — kept for feature-space callers; not
/// part of the blocked-kernel fast path.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean norm of a slice.
///
/// **Deprecation note:** see [`dot`] — kept for feature-space callers; not
/// part of the blocked-kernel fast path.
#[must_use]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sq_dist_is_zero_on_identical_inputs() {
        let v = [0.3, -1.5, 2.0];
        assert_eq!(sq_dist(&v, &v), 0.0);
    }

    #[test]
    fn norm_matches_pythagoras() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn cmp_nan_worst_ranks_nan_below_everything() {
        let mut v = [2.0, f64::NAN, -1.0, f64::NEG_INFINITY, f64::INFINITY];
        v.sort_by(cmp_nan_worst);
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[f64::NEG_INFINITY, -1.0, 2.0, f64::INFINITY]);
        // Descending via the reversed comparator: NaN ends up last.
        v.sort_by(|a, b| cmp_nan_worst(b, a));
        assert!(v[4].is_nan());
        assert_eq!(v[0], f64::INFINITY);
        // max_by never picks NaN over a number.
        let best = [f64::NAN, 0.5, f64::NAN]
            .iter()
            .copied()
            .max_by(cmp_nan_worst)
            .unwrap();
        assert_eq!(best, 0.5);
    }

    #[test]
    fn cmp_nan_last_sorts_nan_to_the_end() {
        let mut v = [f64::NAN, 1.0, -f64::NAN, 0.0, f64::INFINITY];
        v.sort_by(cmp_nan_last);
        assert_eq!(&v[..3], &[0.0, 1.0, f64::INFINITY]);
        assert!(v[3].is_nan() && v[4].is_nan());
    }
}
