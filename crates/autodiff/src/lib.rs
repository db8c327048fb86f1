#![warn(missing_docs)]

//! Tape-based reverse-mode automatic differentiation — the test reference
//! for the hand-written gradients of `kato-gp`.
//!
//! The KATO paper trains its Neural Kernel (Neuk) and the encoder/decoder of
//! KAT-GP by gradient ascent on Gaussian-process log-likelihoods (paper
//! Eq. 3 and Eq. 12). The original implementation leans on PyTorch; this crate
//! is the from-scratch substitute: a classic Wengert-list (tape) reverse-mode
//! AD over `f64` scalars.
//!
//! `kato-gp` records no tape at run time. It trains plain GPs
//! and KAT-GP with hand-written replays of the tape's reverse sweep that
//! equal it bit for bit, and depends on this crate only in its tests,
//! where the tape is the reference those replays are checked against.
//!
//! Key pieces:
//!
//! * [`Tape`] — arena of operations; cleared and rebuilt every evaluation.
//! * [`Var`] — a copyable handle (value + node index) with full operator
//!   overloading.
//! * [`Scalar`] — a trait implemented by both `f64` and [`Var`], so the
//!   generic reference kernels and networks of `kato-gp` evaluate both
//!   plainly and taped.
//! * [`Tape::backward_seeded`] — multi-output backward pass for the GP
//!   "B-matrix" gradient trick, where each Gram-matrix entry gets its own
//!   adjoint seed `∂L/∂K_ij` and one sweep yields `∂L/∂θ` for every
//!   hyperparameter.
//! * [`check_gradient`] — central finite differences for gradient tests.
//!
//! # Example
//!
//! ```
//! use kato_autodiff::Tape;
//!
//! let tape = Tape::new();
//! let x = tape.var(2.0);
//! let y = tape.var(3.0);
//! let z = (x * y + x.sin()).exp();
//! let grads = tape.backward(z);
//! // dz/dx = exp(xy + sin x) * (y + cos x)
//! let expect = (2.0_f64 * 3.0 + 2.0_f64.sin()).exp() * (3.0 + 2.0_f64.cos());
//! assert!((grads.wrt(x) - expect).abs() < 1e-9);
//! ```

mod check;
mod scalar;
mod tape;

pub use check::{check_gradient, GradientCheck};
pub use scalar::{lift_slice, Scalar};
pub use tape::{Grads, Tape, Var};
