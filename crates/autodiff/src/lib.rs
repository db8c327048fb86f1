#![warn(missing_docs)]

//! Tape-based reverse-mode automatic differentiation.
//!
//! The KATO paper trains its Neural Kernel (Neuk) and the encoder/decoder of
//! KAT-GP by gradient ascent on Gaussian-process log-likelihoods (paper
//! Eq. 3 and Eq. 12). The original implementation leans on PyTorch; this crate
//! is the from-scratch substitute: a classic Wengert-list (tape) reverse-mode
//! AD over `f64` scalars.
//!
//! Key pieces:
//!
//! * [`Tape`] — arena of operations; cleared and rebuilt every optimisation
//!   step.
//! * [`Var`] — a copyable handle (value + node index) with full operator
//!   overloading.
//! * [`Scalar`] — a trait implemented by both `f64` and [`Var`], so kernel
//!   and network code in `kato-gp` is written once and used for both fast
//!   inference (plain `f64`) and training (taped).
//! * [`Adam`] — the stochastic optimiser used for all MLE fits.
//! * [`Tape::backward_seeded`] — multi-output backward pass for the GP
//!   "B-matrix" gradient trick, where each Gram-matrix entry gets its own
//!   adjoint seed `∂L/∂K_ij` and one sweep yields `∂L/∂θ` for every
//!   hyperparameter. `kato-gp` trains plain GPs with a hand-written
//!   replay of this sweep that equals it bit for bit, and keeps the tape
//!   as that replay's test reference and for KAT-GP training.
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
mod optim;
mod scalar;
mod tape;

pub use check::{check_gradient, GradientCheck};
pub use optim::{clip_gradients, Adam};
pub use scalar::{lift_slice, Scalar};
pub use tape::{Grads, Tape, Var};
