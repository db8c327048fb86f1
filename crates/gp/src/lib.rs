#![deny(missing_docs)]

//! Gaussian processes with Neural Kernels and Knowledge-Alignment-and-
//! Transfer (KAT) — the modelling core of KATO (DAC 2024).
//!
//! Three pieces map directly onto the paper:
//!
//! * **Neural Kernel (Neuk)**, paper §3.1 (Eq. 8–10): primitive kernels
//!   (RBF / Rational-Quadratic / Periodic / Matérn-5/2) evaluated on learned
//!   linear projections of the inputs, combined through a positivity-
//!   constrained linear layer and `exp(·)` so the composite stays a valid
//!   covariance. See [`NeukSpec`].
//! * **Exact MLE training** (Eq. 3): [`Gp::fit`] maximises the marginal
//!   likelihood with Adam. Gradients are exact — each Gram entry `K_ij` is
//!   seeded with its adjoint `∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij`, so a single
//!   reverse sweep over the kernel yields the gradient for every
//!   hyperparameter ("B-matrix trick"). The sweep is written by hand for
//!   ARD-RBF and every Neuk primitive, hoists everything that depends on
//!   one point or on the parameters alone out of the pair loop, and equals
//!   the reverse sweep of an autodiff tape over the generic kernel
//!   evaluation bit for bit. The tape (`kato_autodiff`) is a test-only
//!   dependency: the reference these sweeps are checked against.
//! * **KAT-GP**, paper §3.2 (Eq. 11–12): a frozen source GP wrapped in a
//!   trainable encoder (target design space → source design space) and
//!   decoder (source output → target output), with Delta-method moment
//!   propagation. Its alignment training differentiates Eq. 12 with the
//!   same hand-written discipline: encoder, source posterior, decoder and
//!   likelihood are swept in reverse exactly as a tape would sweep them.
//!   See [`KatGp`].
//!
//! Both surrogate families implement [`IncrementalFit`]: per BO iteration
//! the archive only grows by a batch, so [`update_incremental`] appends
//! through the held Cholesky factor (rank-k
//! [`kato_linalg::CholeskyFactor::extend`]) and warm-starts hyperparameter
//! optimisation from the previous optimum instead of rebuilding from
//! scratch — with a full refit as the automatic fallback.
//!
//! # Example — fit and predict
//!
//! ```
//! use kato_gp::{Gp, GpConfig, KernelSpec};
//!
//! # fn main() -> Result<(), kato_gp::GpError> {
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast())?;
//! let (mean, var) = gp.predict(&[0.5]);
//! assert!((mean - (3.0_f64).sin()).abs() < 0.2);
//! assert!(var >= 0.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod gp;
mod incremental;
mod katgp;
mod kernels;
mod mlp;
mod optim;
mod scaler;

pub use error::GpError;
pub use gp::{Gp, GpConfig};
pub use incremental::{update_incremental, IncrementalFit};
pub use katgp::{KatConfig, KatGp};
pub use kernels::{KernelSpec, NeukSpec, PreparedKernel, PrimitiveKernel};
pub use mlp::MlpSpec;
pub use optim::{clip_gradients, Adam};
pub use scaler::Scaler;
