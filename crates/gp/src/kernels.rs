#[cfg(test)]
use kato_autodiff::Scalar;
use kato_linalg::Matrix;
use rand::Rng;

/// Primitive kernel used inside a Neural Kernel unit (paper Fig. 1a lists
/// PER, RBF and RQ; Matérn-5/2 is included as the common fourth choice).
///
/// Primitives are evaluated on *learned linear projections* of the inputs,
/// so they carry no lengthscales of their own — the projection absorbs all
/// scaling (paper Eq. 8). Only shape parameters remain (RQ's `α`, the
/// periodic kernel's period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveKernel {
    /// Squared exponential `exp(−r²)`.
    Rbf,
    /// Rational quadratic `(1 + r²/2α)^{−α}` with trainable `log α`.
    RationalQuadratic,
    /// Periodic `exp(−2 Σ sin²(π Δ_i / p))` with trainable `log p`.
    Periodic,
    /// Matérn-5/2 `(1 + √5r + 5r²/3)·exp(−√5 r)`.
    Matern52,
}

impl PrimitiveKernel {
    /// Number of internal shape parameters.
    #[must_use]
    pub fn internal_param_count(self) -> usize {
        match self {
            PrimitiveKernel::Rbf | PrimitiveKernel::Matern52 => 0,
            PrimitiveKernel::RationalQuadratic | PrimitiveKernel::Periodic => 1,
        }
    }

    /// Default internal parameters (log-domain).
    #[must_use]
    pub fn default_internal_params(self) -> Vec<f64> {
        match self {
            PrimitiveKernel::Rbf | PrimitiveKernel::Matern52 => vec![],
            // α = 1.0, period = 2.0.
            PrimitiveKernel::RationalQuadratic => vec![0.0],
            PrimitiveKernel::Periodic => vec![2.0_f64.ln()],
        }
    }

    /// Evaluates the primitive on projected feature vectors `a`, `b`.
    ///
    /// `internal` must hold [`PrimitiveKernel::internal_param_count`] values.
    /// The generic form is the test reference the hand-written reverse
    /// sweeps are checked against, bit for bit, on taped inputs.
    #[cfg(test)]
    pub fn eval<S: Scalar>(self, internal: &[S], a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len());
        let ctx = a[0];
        let mut r2 = ctx.lift(0.0);
        for (ai, bi) in a.iter().zip(b) {
            let d = *ai - *bi;
            r2 = r2 + d * d;
        }
        match self {
            PrimitiveKernel::Rbf => (-r2).exp(),
            PrimitiveKernel::RationalQuadratic => {
                let alpha = internal[0].exp();
                // (1 + r²/2α)^{−α} = exp(−α·ln(1 + r²/2α))
                let inner = (ctx.lift(1.0) + r2 / (alpha * 2.0)).ln();
                (-(alpha * inner)).exp()
            }
            PrimitiveKernel::Periodic => {
                let period = internal[0].exp();
                let mut s = ctx.lift(0.0);
                for (ai, bi) in a.iter().zip(b) {
                    let arg = (*ai - *bi) * std::f64::consts::PI / period;
                    let sv = arg.sin();
                    s = s + sv * sv;
                }
                (-(s * 2.0)).exp()
            }
            PrimitiveKernel::Matern52 => {
                // r²+ε keeps √· differentiable at coincident inputs.
                let r = (r2 + 1e-12).sqrt();
                let sq5r = r * 5.0_f64.sqrt();
                let poly = ctx.lift(1.0) + sq5r + r2 * (5.0 / 3.0);
                poly * (-sq5r).exp()
            }
        }
    }
}

/// Neural Kernel (Neuk) unit, paper §3.1.
///
/// For each primitive `h_i`, inputs are projected through a learned affine
/// map (`W⁽ⁱ⁾x + b⁽ⁱ⁾`, Eq. 8), the primitives are mixed by a linear layer
/// (Eq. 9) and squashed through `exp(·)` (Eq. 10):
///
/// `k(x₁,x₂) = exp( Σ_j [Σ_i softplus(Wz_ji)·h_i + bz_j] + b_k )`
///
/// The mixing weights pass through `softplus` so every coefficient is
/// positive — sums and products (via `exp`) of kernels with positive
/// coefficients are valid kernels, which keeps the composite positive
/// semi-definite by construction rather than by hope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeukSpec {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Projection (latent) dimensionality per primitive.
    pub latent_dim: usize,
    /// Primitive kernels in the unit.
    pub primitives: Vec<PrimitiveKernel>,
    /// Rows of the mixing layer (`z` dimension).
    pub mix_dim: usize,
}

impl NeukSpec {
    /// The default unit used throughout the KATO experiments:
    /// RBF + RQ + Periodic primitives, 2-dimensional projections, and a
    /// mixing layer as wide as the primitive count.
    #[must_use]
    pub fn standard(input_dim: usize) -> Self {
        NeukSpec {
            input_dim,
            latent_dim: 2,
            primitives: vec![
                PrimitiveKernel::Rbf,
                PrimitiveKernel::RationalQuadratic,
                PrimitiveKernel::Periodic,
            ],
            mix_dim: 3,
        }
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let proj = self.primitives.len() * (self.latent_dim * self.input_dim + self.latent_dim);
        let internal: usize = self
            .primitives
            .iter()
            .map(|p| p.internal_param_count())
            .sum();
        let mix = self.mix_dim * self.primitives.len() + self.mix_dim;
        proj + internal + mix + 1 // +1 output bias b_k
    }

    /// Reasonable random initialisation: projections near identity-scale,
    /// mixing weights small so the composite starts close to a plain
    /// product of primitives.
    pub fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.param_count());
        let scale = 1.0 / (self.input_dim as f64).sqrt();
        for prim in &self.primitives {
            for _ in 0..(self.latent_dim * self.input_dim) {
                p.push(rng.gen_range(-1.0..1.0) * scale);
            }
            p.extend(std::iter::repeat_n(0.0, self.latent_dim));
            p.extend(prim.default_internal_params());
        }
        for _ in 0..(self.mix_dim * self.primitives.len()) {
            // softplus(-1.0) ≈ 0.31: gentle initial mixing.
            p.push(-1.0 + rng.gen_range(-0.2..0.2));
        }
        p.extend(std::iter::repeat_n(0.0, self.mix_dim));
        p.push(0.0); // b_k → amplitude e^0 = 1 on standardized outputs
        p
    }

    /// Evaluates the Neuk covariance between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `params` has the wrong length.
    #[cfg(test)]
    pub fn eval<S: Scalar>(&self, params: &[S], a: &[S], b: &[S]) -> S {
        debug_assert_eq!(params.len(), self.param_count(), "Neuk param mismatch");
        let ctx = params[0];
        let mut offset = 0;
        let mut h = Vec::with_capacity(self.primitives.len());
        for prim in &self.primitives {
            let w = &params[offset..offset + self.latent_dim * self.input_dim];
            offset += self.latent_dim * self.input_dim;
            let bias = &params[offset..offset + self.latent_dim];
            offset += self.latent_dim;
            let n_int = prim.internal_param_count();
            let internal = &params[offset..offset + n_int];
            offset += n_int;

            let mut pa = Vec::with_capacity(self.latent_dim);
            let mut pb = Vec::with_capacity(self.latent_dim);
            for l in 0..self.latent_dim {
                let mut sa = bias[l];
                let mut sb = bias[l];
                for i in 0..self.input_dim {
                    let wli = w[l * self.input_dim + i];
                    sa = sa + wli * a[i];
                    sb = sb + wli * b[i];
                }
                pa.push(sa);
                pb.push(sb);
            }
            h.push(prim.eval(internal, &pa, &pb));
        }

        // Mixing layer with positive (softplus) weights, then exp.
        let wz = &params[offset..offset + self.mix_dim * self.primitives.len()];
        offset += self.mix_dim * self.primitives.len();
        let bz = &params[offset..offset + self.mix_dim];
        offset += self.mix_dim;
        let b_k = params[offset];

        let mut total = b_k;
        for j in 0..self.mix_dim {
            let mut zj = bz[j];
            for (i, hi) in h.iter().enumerate() {
                let raw = wz[j * h.len() + i];
                // softplus(w) = ln(1 + e^w) ≥ 0 keeps the combination PSD.
                let pos = (raw.exp() + ctx.lift(1.0)).ln();
                zj = zj + pos * *hi;
            }
            total = total + zj;
        }
        total.exp()
    }
}

/// Covariance function used by [`crate::Gp`]: either a classic ARD-RBF
/// (paper §2.2) or a Neural Kernel unit (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// `θ₀·exp(−Σ (Δ_i/ℓ_i)²)` with trainable log-amplitude and per-dimension
    /// log-lengthscales.
    ArdRbf {
        /// Input dimensionality.
        dim: usize,
    },
    /// Neural Kernel unit.
    Neuk(NeukSpec),
}

impl KernelSpec {
    /// Convenience constructor for the ARD-RBF kernel.
    #[must_use]
    pub fn ard_rbf(dim: usize) -> Self {
        KernelSpec::ArdRbf { dim }
    }

    /// Convenience constructor for the standard Neuk unit.
    #[must_use]
    pub fn neuk(dim: usize) -> Self {
        KernelSpec::Neuk(NeukSpec::standard(dim))
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        match self {
            KernelSpec::ArdRbf { dim } => *dim,
            KernelSpec::Neuk(spec) => spec.input_dim,
        }
    }

    /// Trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            KernelSpec::ArdRbf { dim } => dim + 1,
            KernelSpec::Neuk(spec) => spec.param_count(),
        }
    }

    /// Random initial parameters.
    pub fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        match self {
            // log-amplitude 0, log-lengthscales 0 (unit, on standardized x).
            KernelSpec::ArdRbf { dim } => {
                let mut p = vec![0.0];
                for _ in 0..*dim {
                    p.push(rng.gen_range(-0.3..0.3));
                }
                p
            }
            KernelSpec::Neuk(spec) => spec.init_params(rng),
        }
    }

    /// Evaluates `k(a, b)` generically — the test reference for the
    /// hand-written evaluator and reverse sweeps of this crate.
    #[cfg(test)]
    pub fn eval<S: Scalar>(&self, params: &[S], a: &[S], b: &[S]) -> S {
        match self {
            KernelSpec::ArdRbf { dim } => {
                debug_assert_eq!(params.len(), dim + 1);
                let amp = params[0].exp();
                let mut s = params[0].lift(0.0);
                for i in 0..*dim {
                    let ls = params[1 + i].exp();
                    let d = (a[i] - b[i]) / ls;
                    s = s + d * d;
                }
                amp * (-s).exp()
            }
            KernelSpec::Neuk(spec) => spec.eval(params, a, b),
        }
    }

    /// Precomputes per-point evaluation state for a whole point set at
    /// fixed hyperparameters — the plain-`f64` batched fast path.
    ///
    /// Everything that does not depend on the *pair* is hoisted out of the
    /// pair loop: ARD lengthscale scaling, Neuk linear projections,
    /// softplus-mixed combination weights and primitive shape parameters.
    /// A cross covariance between two prepared sets then costs only the
    /// primitive-kernel arithmetic, which is what makes
    /// `predict_batch`-style inference profitable even on one thread.
    /// Values agree with the exact per-pair evaluation (the one training
    /// uses) to floating-point re-association error (≪ 1e-10), not
    /// bitwise.
    #[must_use]
    pub fn prepare(&self, params: &[f64], pts: &[Vec<f64>]) -> PreparedKernel {
        match self {
            KernelSpec::ArdRbf { dim } => {
                debug_assert_eq!(params.len(), dim + 1);
                let amp = params[0].exp();
                let inv_ls: Vec<f64> = (0..*dim).map(|i| (-params[1 + i]).exp()).collect();
                let scaled = pts
                    .iter()
                    .map(|p| p.iter().zip(&inv_ls).map(|(x, il)| x * il).collect())
                    .collect();
                PreparedKernel {
                    kind: PreparedKind::Ard { amp, scaled },
                }
            }
            KernelSpec::Neuk(spec) => spec.prepare(params, pts),
        }
    }
}

/// Precomputed per-point state produced by [`KernelSpec::prepare`].
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    kind: PreparedKind,
}

#[derive(Debug, Clone)]
enum PreparedKind {
    Ard {
        amp: f64,
        /// Points pre-multiplied by the inverse lengthscales.
        scaled: Vec<Vec<f64>>,
    },
    Neuk {
        /// `(primitive, exp'd internal shape parameter)`; the shape slot is
        /// unused (0.0) for RBF and Matérn.
        prims: Vec<(PrimitiveKernel, f64)>,
        latent: usize,
        /// Per-point projected features, flattened `[primitive][latent]`.
        proj: Vec<Vec<f64>>,
        /// Per-primitive combined mixing weight `Σ_j softplus(wz[j][i])`.
        coef: Vec<f64>,
        /// Pair-independent offset `b_k + Σ_j bz[j]`.
        bias: f64,
    },
}

impl PreparedKernel {
    /// Number of prepared points.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.kind {
            PreparedKind::Ard { scaled, .. } => scaled.len(),
            PreparedKind::Neuk { proj, .. } => proj.len(),
        }
    }

    /// `true` when no points were prepared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Covariance between point `i` of `self` and point `j` of `other`.
    /// Both sets must come from the same [`KernelSpec::prepare`] kernel and
    /// hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if the two sets were prepared from different kernel families
    /// or if an index is out of bounds.
    #[must_use]
    pub fn eval(&self, i: usize, other: &PreparedKernel, j: usize) -> f64 {
        match (&self.kind, &other.kind) {
            (PreparedKind::Ard { amp, scaled }, PreparedKind::Ard { scaled: sb, .. }) => {
                let (a, b) = (&scaled[i], &sb[j]);
                let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                amp * (-s).exp()
            }
            (
                PreparedKind::Neuk {
                    prims,
                    latent,
                    proj,
                    coef,
                    bias,
                },
                PreparedKind::Neuk { proj: pb, .. },
            ) => {
                let (a, b) = (&proj[i], &pb[j]);
                let mut total = *bias;
                for (p, &(prim, shape)) in prims.iter().enumerate() {
                    let lo = p * latent;
                    let h = prim_eval_f64(prim, shape, &a[lo..lo + latent], &b[lo..lo + latent]);
                    total += coef[p] * h;
                }
                total.exp()
            }
            _ => panic!("PreparedKernel::eval across different kernel families"),
        }
    }
}

/// Plain-`f64` primitive kernel with pre-exponentiated shape parameter.
fn prim_eval_f64(prim: PrimitiveKernel, shape: f64, a: &[f64], b: &[f64]) -> f64 {
    let r2 = sq_dist(a, b);
    match prim {
        PrimitiveKernel::Rbf => (-r2).exp(),
        PrimitiveKernel::RationalQuadratic => (-(shape * (1.0 + r2 / (shape * 2.0)).ln())).exp(),
        PrimitiveKernel::Periodic => {
            let mut s = 0.0;
            for (x, y) in a.iter().zip(b) {
                let v = ((x - y) * std::f64::consts::PI / shape).sin();
                s += v * v;
            }
            (-(s * 2.0)).exp()
        }
        PrimitiveKernel::Matern52 => {
            let r = (r2 + 1e-12).sqrt();
            let sq5r = r * 5.0_f64.sqrt();
            (1.0 + sq5r + r2 * (5.0 / 3.0)) * (-sq5r).exp()
        }
    }
}

impl NeukSpec {
    /// See [`KernelSpec::prepare`].
    #[must_use]
    pub fn prepare(&self, params: &[f64], pts: &[Vec<f64>]) -> PreparedKernel {
        debug_assert_eq!(params.len(), self.param_count(), "Neuk param mismatch");
        let n_prims = self.primitives.len();
        let mut offset = 0;
        let mut prims = Vec::with_capacity(n_prims);
        let mut proj = vec![Vec::with_capacity(n_prims * self.latent_dim); pts.len()];
        for &prim in &self.primitives {
            let w = &params[offset..offset + self.latent_dim * self.input_dim];
            offset += self.latent_dim * self.input_dim;
            let bias = &params[offset..offset + self.latent_dim];
            offset += self.latent_dim;
            let n_int = prim.internal_param_count();
            let shape = if n_int > 0 { params[offset].exp() } else { 0.0 };
            offset += n_int;
            prims.push((prim, shape));
            for (x, feats) in pts.iter().zip(proj.iter_mut()) {
                project(w, bias, x, feats);
            }
        }
        let wz = &params[offset..offset + self.mix_dim * n_prims];
        offset += self.mix_dim * n_prims;
        let bz = &params[offset..offset + self.mix_dim];
        offset += self.mix_dim;
        let b_k = params[offset];
        let mut coef = vec![0.0; n_prims];
        for j in 0..self.mix_dim {
            for (i, c) in coef.iter_mut().enumerate() {
                *c += (wz[j * n_prims + i].exp() + 1.0).ln();
            }
        }
        let bias = b_k + bz.iter().sum::<f64>();
        PreparedKernel {
            kind: PreparedKind::Neuk {
                prims,
                latent: self.latent_dim,
                proj,
                coef,
                bias,
            },
        }
    }
}

/// One Neuk primitive's parameter-only quantities, hoisted out of the pair
/// loop.
#[derive(Debug, Clone, Copy)]
struct HoistedPrim {
    prim: PrimitiveKernel,
    /// Index of the primitive's first projection weight in the parameter
    /// vector: `latent × input` weights, row-major.
    proj_at: usize,
    /// Index of its first projection bias (`latent` of them).
    bias_at: usize,
    /// Index of its shape parameter (RQ's `log α`, the periodic `log p`).
    shape_at: usize,
    /// `α` (RQ) or the period (periodic), exp'd once.
    shape: f64,
    /// The per-pair divisor: `α·2` (RQ) or the period (periodic).
    den: f64,
    /// `1/den`, the quotient's partial in its numerator.
    inv_den: f64,
    /// `den·den`, the denominator of the quotient's partial in `den`.
    den_sq: f64,
    /// Offset of the primitive's cached per-pair values in a pair slot.
    slot_at: usize,
}

/// A softplus mixing weight `ln(e^w + 1)` with the two factors of its
/// derivative.
#[derive(Debug, Clone, Copy)]
struct Softplus {
    value: f64,
    exp: f64,
    /// `1/(e^w + 1)`.
    inv: f64,
}

#[derive(Debug, Clone, Copy)]
enum Family {
    Ard {
        amp: f64,
    },
    Neuk {
        latent: usize,
        mix_dim: usize,
        mix_at: usize,
    },
}

/// Hyperparameter-hoisted kernel evaluator whose values are bit-for-bit
/// those of the generic evaluation `KernelSpec::eval` (kept as a test
/// reference), plus the reverse sweeps of the taped evaluation.
///
/// Unlike [`PreparedKernel`], nothing is re-associated: every entry is
/// formed by the same operations in the same order as the generic code;
/// only values that depend on the parameters alone (exp'd lengthscales and
/// shapes, softplus weights) or on one point alone (Neuk projections) are
/// computed once instead of once per pair. The reverse sweep
/// ([`ExactKernel::backward`] for the parameters,
/// [`ExactKernel::backward_first`] for the first argument) replays the
/// adjoint arithmetic the seeded reverse sweep of an autodiff tape
/// (`kato_autodiff`, a test-only dependency) performs on the taped
/// evaluation: node by node in reverse creation order, partials formed as
/// the tape forms them (`adj·(1/v)`, never `adj/v`), and nodes with a zero
/// adjoint skipped. Every gradient component therefore equals the tape's
/// bit for bit.
///
/// A pair evaluation writes the values its reverse sweep needs into a
/// *slot* of `slot_len` values: `k`, then `h_p` per primitive, then each
/// primitive's extras (RQ: `ln(1 + r²/2α)`; periodic: one `sin` per latent
/// dimension; Matérn: `exp(−√5 r)`). ARD slots hold `k` and `exp(−s)`.
#[derive(Debug, Clone)]
pub(crate) struct ExactKernel {
    family: Family,
    input: usize,
    params: Vec<f64>,
    /// ARD: `(ℓ_i, ℓ_i², 1/ℓ_i)` per input dimension.
    ard: Vec<(f64, f64, f64)>,
    prims: Vec<HoistedPrim>,
    /// Neuk mixing weights, row-major `[mix row][primitive]`.
    mix: Vec<Softplus>,
    slot_len: usize,
}

impl Default for ExactKernel {
    fn default() -> Self {
        ExactKernel {
            family: Family::Ard { amp: 1.0 },
            input: 0,
            params: Vec::new(),
            ard: Vec::new(),
            prims: Vec::new(),
            mix: Vec::new(),
            slot_len: 0,
        }
    }
}

// The reverse sweep multiplies by the tape's partial `-1.0` rather than
// negating: unlike `-x`, `x * -1.0` leaves a NaN adjoint's bits as the
// tape's multiply leaves them.
#[allow(clippy::neg_multiply)]
impl ExactKernel {
    pub(crate) fn new(spec: &KernelSpec, params: &[f64]) -> Self {
        let mut k = ExactKernel::default();
        k.reset(spec, params);
        k
    }

    /// Re-hoists for new parameters, reusing the buffers.
    fn reset(&mut self, spec: &KernelSpec, params: &[f64]) {
        debug_assert_eq!(params.len(), spec.param_count(), "kernel param mismatch");
        self.input = spec.input_dim();
        self.params.clear();
        self.params.extend_from_slice(params);
        self.ard.clear();
        self.prims.clear();
        self.mix.clear();
        match spec {
            KernelSpec::ArdRbf { dim } => {
                self.ard.extend(params[1..=*dim].iter().map(|p| {
                    let ls = p.exp();
                    (ls, ls * ls, 1.0 / ls)
                }));
                self.family = Family::Ard {
                    amp: params[0].exp(),
                };
                self.slot_len = 2;
            }
            KernelSpec::Neuk(neuk) => {
                let latent = neuk.latent_dim;
                let n_prims = neuk.primitives.len();
                let mut at = 0;
                let mut slot_at = 1 + n_prims;
                for &prim in &neuk.primitives {
                    let proj_at = at;
                    let bias_at = at + latent * self.input;
                    at = bias_at + latent;
                    let shape_at = at;
                    at += prim.internal_param_count();
                    let shape = if prim.internal_param_count() > 0 {
                        params[shape_at].exp()
                    } else {
                        0.0
                    };
                    let (den, extras) = match prim {
                        PrimitiveKernel::Rbf => (1.0, 0),
                        PrimitiveKernel::RationalQuadratic => (shape * 2.0, 1),
                        PrimitiveKernel::Periodic => (shape, latent),
                        PrimitiveKernel::Matern52 => (1.0, 1),
                    };
                    self.prims.push(HoistedPrim {
                        prim,
                        proj_at,
                        bias_at,
                        shape_at,
                        shape,
                        den,
                        inv_den: 1.0 / den,
                        den_sq: den * den,
                        slot_at,
                    });
                    slot_at += extras;
                }
                self.mix
                    .extend(params[at..at + neuk.mix_dim * n_prims].iter().map(|w| {
                        let exp = w.exp();
                        let sum = exp + 1.0;
                        Softplus {
                            value: sum.ln(),
                            exp,
                            inv: 1.0 / sum,
                        }
                    }));
                self.family = Family::Neuk {
                    latent,
                    mix_dim: neuk.mix_dim,
                    mix_at: at,
                };
                self.slot_len = slot_at;
            }
        }
    }

    /// Per-point feature width: the input itself for ARD, the projections
    /// `[primitive][latent]` for Neuk.
    pub(crate) fn feat_len(&self) -> usize {
        match self.family {
            Family::Ard { .. } => self.input,
            Family::Neuk { latent, .. } => self.prims.len() * latent,
        }
    }

    /// Values one pair evaluation leaves for its reverse sweep.
    pub(crate) fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Appends the features of every point to `out` (cleared first).
    pub(crate) fn features(&self, pts: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        for x in pts {
            self.point_features(x, out);
        }
    }

    /// Appends the features of one point to `out`.
    pub(crate) fn point_features(&self, x: &[f64], out: &mut Vec<f64>) {
        match self.family {
            Family::Ard { .. } => out.extend_from_slice(x),
            Family::Neuk { .. } => {
                for hp in &self.prims {
                    let w = &self.params[hp.proj_at..hp.bias_at];
                    let bias = &self.params[hp.bias_at..hp.shape_at];
                    project(w, bias, x, out);
                }
            }
        }
    }

    /// `k(a, b)` from the two points' features, filling `slot`.
    pub(crate) fn eval(&self, fa: &[f64], fb: &[f64], slot: &mut [f64]) -> f64 {
        match self.family {
            Family::Ard { amp } => {
                let mut s = 0.0;
                for (i, &(ls, ..)) in self.ard.iter().enumerate() {
                    let d = (fa[i] - fb[i]) / ls;
                    s += d * d;
                }
                let ex = (-s).exp();
                slot[1] = ex;
                slot[0] = amp * ex;
            }
            Family::Neuk {
                latent,
                mix_dim,
                mix_at,
            } => {
                let n_prims = self.prims.len();
                for (p, hp) in self.prims.iter().enumerate() {
                    let a = &fa[p * latent..(p + 1) * latent];
                    let b = &fb[p * latent..(p + 1) * latent];
                    let r2 = sq_dist(a, b);
                    slot[1 + p] = match hp.prim {
                        PrimitiveKernel::Rbf => (-r2).exp(),
                        PrimitiveKernel::RationalQuadratic => {
                            let inner = (1.0 + r2 / hp.den).ln();
                            slot[hp.slot_at] = inner;
                            (-(hp.shape * inner)).exp()
                        }
                        PrimitiveKernel::Periodic => {
                            let mut s = 0.0;
                            for l in 0..latent {
                                let sv = ((a[l] - b[l]) * std::f64::consts::PI / hp.den).sin();
                                slot[hp.slot_at + l] = sv;
                                s += sv * sv;
                            }
                            (-(s * 2.0)).exp()
                        }
                        PrimitiveKernel::Matern52 => {
                            let r = (r2 + 1e-12).sqrt();
                            let sq5r = r * 5.0_f64.sqrt();
                            let poly = 1.0 + sq5r + r2 * (5.0 / 3.0);
                            let ex = (-sq5r).exp();
                            slot[hp.slot_at] = ex;
                            poly * ex
                        }
                    };
                }
                let mut total = self.params[mix_at + mix_dim * n_prims + mix_dim];
                for j in 0..mix_dim {
                    let mut z = self.params[mix_at + mix_dim * n_prims + j];
                    for (i, h) in slot[1..=n_prims].iter().enumerate() {
                        z += self.mix[j * n_prims + i].value * h;
                    }
                    total += z;
                }
                slot[0] = total.exp();
            }
        }
        slot[0]
    }

    /// Adds `seed · ∂k(a, b)/∂params` to `grad` exactly as the tape's
    /// reverse sweep over one taped `eval(params, a, b)` with that output
    /// seed would: `xa`/`xb` are the raw points, `fa`/`fb` their features
    /// and `slot` the one [`ExactKernel::eval`] filled for the pair.
    fn backward(
        &self,
        (xa, fa): (&[f64], &[f64]),
        (xb, fb): (&[f64], &[f64]),
        slot: &[f64],
        seed: f64,
        grad: &mut [f64],
    ) {
        // The seed lands on the output's zero adjoint.
        let adj_k = 0.0 + seed;
        if adj_k == 0.0 {
            return;
        }
        match self.family {
            Family::Ard { amp } => self.ard_backward(amp, xa, xb, slot, adj_k, grad),
            Family::Neuk {
                latent,
                mix_dim,
                mix_at,
            } => {
                // k = exp(total). Every addition of the mixing layer passes
                // the total's adjoint through unchanged.
                let adj = adj_k * slot[0];
                if adj == 0.0 {
                    return;
                }
                let n_prims = self.prims.len();
                let bz_at = mix_at + mix_dim * n_prims;
                for j in (0..mix_dim).rev() {
                    for i in (0..n_prims).rev() {
                        // softplus(w)·h_i, then ln(e^w + 1), e^w + 1, e^w.
                        let adj_sp = adj * slot[1 + i];
                        if adj_sp != 0.0 {
                            let m = self.mix[j * n_prims + i];
                            let adj_sum = adj_sp * m.inv;
                            if adj_sum != 0.0 {
                                grad[mix_at + j * n_prims + i] += adj_sum * m.exp;
                            }
                        }
                    }
                    grad[bz_at + j] += adj;
                }
                grad[bz_at + mix_dim] += adj;
                let mut sink = ParamSink { xa, xb, grad };
                self.prims_backward((latent, mix_dim), adj, (fa, fb), slot, &mut sink);
            }
        }
    }

    /// Adds `seed · ∂k(a, b)/∂a` to `adj_a` exactly as the tape's reverse
    /// sweep over one taped `eval(params, a, b)` with constant parameters
    /// and `b` would; `fa`/`fb` are the points' features and `slot` the
    /// one [`ExactKernel::eval`] filled for the pair. With `b_is_a` the
    /// pair is `k(a, a)` and both argument chains reach `adj_a`: ARD's
    /// difference node hands `a` its share before `b`, while each Neuk
    /// projection of `b` was taped after that of `a`, so `b` is pushed
    /// first.
    pub(crate) fn backward_first(
        &self,
        (fa, fb): (&[f64], &[f64]),
        slot: &[f64],
        seed: f64,
        b_is_a: bool,
        adj_a: &mut [f64],
    ) {
        let adj_k = 0.0 + seed;
        if adj_k == 0.0 {
            return;
        }
        match self.family {
            Family::Ard { amp } => {
                let Some(adj_s) = self.ard_sum_adjoint(amp, slot, adj_k) else {
                    return;
                };
                for (i, &(ls, _, inv_ls)) in self.ard.iter().enumerate().rev() {
                    let d = (fa[i] - fb[i]) / ls;
                    let mut adj_d = 0.0;
                    adj_d += adj_s * d;
                    adj_d += adj_s * d;
                    if adj_d == 0.0 {
                        continue;
                    }
                    let adj_sub = adj_d * inv_ls;
                    if adj_sub != 0.0 {
                        adj_a[i] += adj_sub;
                        if b_is_a {
                            adj_a[i] += adj_sub * -1.0;
                        }
                    }
                }
            }
            Family::Neuk {
                latent, mix_dim, ..
            } => {
                let adj = adj_k * slot[0];
                if adj == 0.0 {
                    return;
                }
                let mut sink = InputSink {
                    params: &self.params,
                    adj_a,
                    b_is_a,
                };
                self.prims_backward((latent, mix_dim), adj, (fa, fb), slot, &mut sink);
            }
        }
    }

    /// The adjoint of ARD's `s = Σ ((a_i − b_i)/ℓ_i)²` under
    /// `k = amp · exp(−s)`, or `None` where the tape's sweep stops short.
    fn ard_sum_adjoint(&self, amp: f64, slot: &[f64], adj_k: f64) -> Option<f64> {
        let adj_ex = adj_k * amp;
        if adj_ex == 0.0 {
            return None;
        }
        let adj_neg = adj_ex * slot[1];
        (adj_neg != 0.0).then_some(adj_neg * -1.0)
    }

    fn ard_backward(
        &self,
        amp: f64,
        xa: &[f64],
        xb: &[f64],
        slot: &[f64],
        adj_k: f64,
        grad: &mut [f64],
    ) {
        // k = amp · exp(−s), s = Σ ((a_i − b_i)/ℓ_i)².
        let adj_amp = adj_k * slot[1];
        if let Some(adj_s) = self.ard_sum_adjoint(amp, slot, adj_k) {
            for (i, &(ls, ls_sq, _)) in self.ard.iter().enumerate().rev() {
                let sub = xa[i] - xb[i];
                let d = sub / ls;
                let mut adj_d = 0.0;
                adj_d += adj_s * d;
                adj_d += adj_s * d;
                if adj_d != 0.0 {
                    let adj_ls = adj_d * (-sub / ls_sq);
                    if adj_ls != 0.0 {
                        grad[1 + i] += adj_ls * ls;
                    }
                }
            }
        }
        if adj_amp != 0.0 {
            grad[0] += adj_amp * amp;
        }
    }

    /// Reverse sweep below a Neuk output whose exponent carries the
    /// adjoint `adj`: primitive by primitive, last first, each `h_p`
    /// hearing from one mixing product per row, last row first.
    fn prims_backward<S: LatentSink>(
        &self,
        (latent, mix_dim): (usize, usize),
        adj: f64,
        (fa, fb): (&[f64], &[f64]),
        slot: &[f64],
        sink: &mut S,
    ) {
        let n_prims = self.prims.len();
        for (p, hp) in self.prims.iter().enumerate().rev() {
            let mut adj_h = 0.0;
            for j in (0..mix_dim).rev() {
                adj_h += adj * self.mix[j * n_prims + p].value;
            }
            if adj_h != 0.0 {
                let span = p * latent..(p + 1) * latent;
                let pair = (&fa[span.clone()], &fb[span]);
                self.prim_backward(hp, pair, slot, slot[1 + p], adj_h, sink);
            }
        }
    }

    /// Reverse sweep of one primitive, output `h`, from its adjoint `adj_h`;
    /// `a`/`b` are the pair's projections for this primitive.
    fn prim_backward<S: LatentSink>(
        &self,
        hp: &HoistedPrim,
        (a, b): (&[f64], &[f64]),
        slot: &[f64],
        h: f64,
        adj_h: f64,
        sink: &mut S,
    ) {
        let latent = a.len();
        // r² = Σ (a_l − b_l)²: each difference receives its adjoint twice.
        let r2_backward = |sink: &mut S, adj_r2: f64| {
            if adj_r2 == 0.0 {
                return;
            }
            for l in (0..latent).rev() {
                let d = a[l] - b[l];
                let mut adj_sub = 0.0;
                adj_sub += adj_r2 * d;
                adj_sub += adj_r2 * d;
                sink.latent(hp, l, adj_sub);
            }
        };
        match hp.prim {
            PrimitiveKernel::Rbf => {
                // h = exp(−r²)
                let adj_neg = adj_h * h;
                if adj_neg != 0.0 {
                    r2_backward(sink, adj_neg * -1.0);
                }
            }
            PrimitiveKernel::RationalQuadratic => {
                // h = exp(−(α·ln(1 + r²/(α·2))))
                let adj_neg = adj_h * h;
                if adj_neg == 0.0 {
                    return;
                }
                let inner = slot[hp.slot_at];
                let adj_m = adj_neg * -1.0;
                let mut adj_alpha = 0.0;
                adj_alpha += adj_m * inner;
                let adj_inner = adj_m * hp.shape;
                let mut adj_r2 = 0.0;
                if adj_inner != 0.0 {
                    let r2 = sq_dist(a, b);
                    let adj_sum = adj_inner * (1.0 / (1.0 + r2 / hp.den));
                    if adj_sum != 0.0 {
                        adj_r2 += adj_sum * hp.inv_den;
                        let adj_den = adj_sum * (-r2 / hp.den_sq);
                        if adj_den != 0.0 {
                            adj_alpha += adj_den * 2.0;
                        }
                    }
                }
                if adj_alpha != 0.0 {
                    sink.shape(hp, adj_alpha);
                }
                r2_backward(sink, adj_r2);
            }
            PrimitiveKernel::Periodic => {
                // h = exp(−(Σ sin²((a_l − b_l)·π/p)·2))
                let adj_neg = adj_h * h;
                if adj_neg == 0.0 {
                    return;
                }
                let adj_s = adj_neg * -1.0 * 2.0;
                let mut adj_period = 0.0;
                for l in (0..latent).rev() {
                    let sv = slot[hp.slot_at + l];
                    let mut adj_sv = 0.0;
                    adj_sv += adj_s * sv;
                    adj_sv += adj_s * sv;
                    if adj_sv == 0.0 {
                        continue;
                    }
                    let t = (a[l] - b[l]) * std::f64::consts::PI;
                    let adj_arg = adj_sv * (t / hp.den).cos();
                    if adj_arg == 0.0 {
                        continue;
                    }
                    let adj_t = adj_arg * hp.inv_den;
                    adj_period += adj_arg * (-t / hp.den_sq);
                    if adj_t != 0.0 {
                        sink.latent(hp, l, adj_t * std::f64::consts::PI);
                    }
                }
                if adj_period != 0.0 {
                    sink.shape(hp, adj_period);
                }
            }
            PrimitiveKernel::Matern52 => {
                // h = poly·ex, poly = (1 + √5r) + r²·5/3, ex = exp(−√5r),
                // r = √(r² + 1e-12)
                let ex = slot[hp.slot_at];
                let r2 = sq_dist(a, b);
                let r = (r2 + 1e-12).sqrt();
                let sq5r = r * 5.0_f64.sqrt();
                let poly = 1.0 + sq5r + r2 * (5.0 / 3.0);
                let adj_poly = adj_h * ex;
                let adj_ex = adj_h * poly;
                let mut adj_sq5r = 0.0;
                let mut adj_r2 = 0.0;
                if adj_ex != 0.0 {
                    let adj_neg = adj_ex * ex;
                    if adj_neg != 0.0 {
                        adj_sq5r += adj_neg * -1.0;
                    }
                }
                if adj_poly != 0.0 {
                    adj_r2 += adj_poly * (5.0 / 3.0);
                    adj_sq5r += adj_poly;
                }
                if adj_sq5r != 0.0 {
                    let adj_r = adj_sq5r * 5.0_f64.sqrt();
                    if adj_r != 0.0 {
                        let adj_e = adj_r * (0.5 / r);
                        if adj_e != 0.0 {
                            adj_r2 += adj_e;
                        }
                    }
                }
                r2_backward(sink, adj_r2);
            }
        }
    }

    /// The noiseless Gram matrix over `pts`, bitwise the generic
    /// `eval(params, pts[i], pts[j])` for `i ≤ j`, mirrored.
    pub(crate) fn gram(&self, pts: &[Vec<f64>]) -> Matrix {
        let mut feats = Vec::new();
        self.features(pts, &mut feats);
        let mut gram = Matrix::zeros(pts.len(), pts.len());
        let mut slot = vec![0.0; self.slot_len];
        self.fill_gram(&feats, &mut gram, &mut slot, false);
        gram
    }

    /// The `later.len() × earlier.len()` block whose entry `(p, j)` is the
    /// generic `eval(params, earlier[j], later[p])` bitwise — each pair
    /// oriented as the Gram of `earlier ++ later` orients it.
    pub(crate) fn cross(&self, earlier: &[Vec<f64>], later: &[Vec<f64>]) -> Matrix {
        let (mut fe, mut fl) = (Vec::new(), Vec::new());
        self.features(earlier, &mut fe);
        self.features(later, &mut fl);
        let fd = self.feat_len();
        let mut slot = vec![0.0; self.slot_len];
        Matrix::from_fn(later.len(), earlier.len(), |p, j| {
            self.eval(
                &fe[j * fd..(j + 1) * fd],
                &fl[p * fd..(p + 1) * fd],
                &mut slot,
            )
        })
    }

    /// Fills both triangles of `gram` from the upper one, in row-major pair
    /// order; `per_pair` advances through `slots` one slot per pair,
    /// otherwise every pair reuses the first.
    fn fill_gram(&self, feats: &[f64], gram: &mut Matrix, slots: &mut [f64], per_pair: bool) {
        let n = gram.rows();
        let (fd, s) = (self.feat_len(), self.slot_len);
        let mut at = 0;
        for i in 0..n {
            for j in i..n {
                let fa = &feats[i * fd..(i + 1) * fd];
                let fb = &feats[j * fd..(j + 1) * fd];
                let v = self.eval(fa, fb, &mut slots[at..at + s]);
                gram[(i, j)] = v;
                gram[(j, i)] = v;
                if per_pair {
                    at += s;
                }
            }
        }
    }
}

/// Receives what the reverse sweep of one Neuk pair hands below the
/// primitives.
trait LatentSink {
    /// The adjoint of primitive `hp`'s latent difference `a_l − b_l`.
    fn latent(&mut self, hp: &HoistedPrim, l: usize, adj_sub: f64);
    /// The adjoint of primitive `hp`'s exp'd shape parameter.
    fn shape(&mut self, hp: &HoistedPrim, adj: f64);
}

/// Pushes a pair's adjoints into the kernel-parameter gradient.
struct ParamSink<'a> {
    xa: &'a [f64],
    xb: &'a [f64],
    grad: &'a mut [f64],
}

#[allow(clippy::neg_multiply)] // the tape's partial, as in `ExactKernel`
impl LatentSink for ParamSink<'_> {
    /// Down both projection chains `bias_l + Σ_i W_li·x_i`: the `b` chain
    /// was taped after the `a` chain, so each weight and the bias hear
    /// from `b` first.
    fn latent(&mut self, hp: &HoistedPrim, l: usize, adj_sub: f64) {
        if adj_sub == 0.0 {
            return;
        }
        let (ga, gb) = (adj_sub, adj_sub * -1.0);
        let d = self.xa.len();
        let w = &mut self.grad[hp.proj_at + l * d..hp.proj_at + (l + 1) * d];
        for ((g, &va), &vb) in w.iter_mut().zip(self.xa).zip(self.xb) {
            *g += gb * vb;
            *g += ga * va;
        }
        self.grad[hp.bias_at + l] += gb;
        self.grad[hp.bias_at + l] += ga;
    }

    fn shape(&mut self, hp: &HoistedPrim, adj: f64) {
        self.grad[hp.shape_at] += adj * hp.shape;
    }
}

/// Pushes a pair's adjoints into the first argument, through the
/// projection weights.
struct InputSink<'a> {
    params: &'a [f64],
    adj_a: &'a mut [f64],
    /// `k(a, a)`: the `b` chain reaches `a` too, ahead of the `a` chain.
    b_is_a: bool,
}

#[allow(clippy::neg_multiply)] // the tape's partial, as in `ExactKernel`
impl LatentSink for InputSink<'_> {
    fn latent(&mut self, hp: &HoistedPrim, l: usize, adj_sub: f64) {
        if adj_sub == 0.0 {
            return;
        }
        let d = self.adj_a.len();
        let w = &self.params[hp.proj_at + l * d..hp.proj_at + (l + 1) * d];
        if self.b_is_a {
            let gb = adj_sub * -1.0;
            for (g, &wi) in self.adj_a.iter_mut().zip(w) {
                *g += gb * wi;
                *g += adj_sub * wi;
            }
        } else {
            for (g, &wi) in self.adj_a.iter_mut().zip(w) {
                *g += adj_sub * wi;
            }
        }
    }

    fn shape(&mut self, _: &HoistedPrim, _: f64) {}
}

/// Appends one Neuk projection of `x`, `bias_l + Σ_i w_li·x_i` for each
/// latent row `l` of the row-major `w`, summed left to right as the
/// generic `NeukSpec::eval` sums it.
fn project(w: &[f64], bias: &[f64], x: &[f64], out: &mut Vec<f64>) {
    for (l, &b) in bias.iter().enumerate() {
        let mut s = b;
        for (wi, xi) in w[l * x.len()..(l + 1) * x.len()].iter().zip(x) {
            s += wi * xi;
        }
        out.push(s);
    }
}

/// `Σ_l (a_l − b_l)²`, summed left to right as the generic
/// `PrimitiveKernel::eval` sums it.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut r2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        r2 += d * d;
    }
    r2
}

/// The marginal-likelihood gradient pass of [`crate::Gp`] training: a
/// forward sweep fills the Gram matrix and caches each pair's slot, a
/// reverse sweep accumulates `Σ_ij seed_ij·∂K_ij/∂params` in exactly the
/// order the tape's `backward_seeded` would over the pairs `(i, j ≥ i)`
/// taped row by row — so each component equals the tape's bit for bit.
/// Its buffers are reused from one Adam iteration to the next.
#[derive(Debug, Default)]
pub(crate) struct LikelihoodGrad {
    kernel: ExactKernel,
    n: usize,
    /// Raw points, flattened.
    xs: Vec<f64>,
    feats: Vec<f64>,
    slots: Vec<f64>,
}

impl LikelihoodGrad {
    /// Fills `gram` (`pts.len()` square, both triangles, no noise) at
    /// `params`, caching what [`LikelihoodGrad::backward`] needs.
    pub(crate) fn forward(
        &mut self,
        spec: &KernelSpec,
        params: &[f64],
        pts: &[Vec<f64>],
        gram: &mut Matrix,
    ) {
        debug_assert_eq!(gram.rows(), pts.len());
        self.kernel.reset(spec, params);
        self.n = pts.len();
        self.xs.clear();
        for x in pts {
            self.xs.extend_from_slice(x);
        }
        self.kernel.features(pts, &mut self.feats);
        let pairs = self.n * (self.n + 1) / 2;
        self.slots.resize(pairs * self.kernel.slot_len, 0.0);
        self.kernel
            .fill_gram(&self.feats, gram, &mut self.slots, true);
    }

    /// Adds `Σ_{i ≤ j} seed(i, j)·∂K_ij/∂params` (at the parameters of
    /// the last [`LikelihoodGrad::forward`]) to `grad`.
    pub(crate) fn backward(&self, seed: impl Fn(usize, usize) -> f64, grad: &mut [f64]) {
        let k = &self.kernel;
        let (d, fd, s) = (k.input, k.feat_len(), k.slot_len);
        let point = |i: usize| {
            (
                &self.xs[i * d..(i + 1) * d],
                &self.feats[i * fd..(i + 1) * fd],
            )
        };
        let mut at = self.slots.len();
        for i in (0..self.n).rev() {
            for j in (i..self.n).rev() {
                at -= s;
                k.backward(
                    point(i),
                    point(j),
                    &self.slots[at..at + s],
                    seed(i, j),
                    grad,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_linalg::CholeskyFactor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gram(spec: &KernelSpec, params: &[f64], xs: &[Vec<f64>]) -> Matrix {
        Matrix::from_fn(xs.len(), xs.len(), |i, j| spec.eval(params, &xs[i], &xs[j]))
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect()
    }

    /// The reference: every upper-triangle Gram entry taped row by row as
    /// `KernelSpec::eval` on `Var`s, each seeded, one `backward_seeded`.
    fn taped(
        spec: &KernelSpec,
        params: &[f64],
        pts: &[Vec<f64>],
        seed: &dyn Fn(usize, usize) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        use kato_autodiff::Tape;
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let x_vars: Vec<Vec<_>> = pts
            .iter()
            .map(|r| r.iter().map(|&v| tape.constant(v)).collect())
            .collect();
        let mut seeds = Vec::new();
        for i in 0..pts.len() {
            for j in i..pts.len() {
                seeds.push((spec.eval(&p_vars, &x_vars[i], &x_vars[j]), seed(i, j)));
            }
        }
        let grads = tape.backward_seeded(&seeds);
        let values = seeds.iter().map(|(k, _)| k.value()).collect();
        (values, grads.wrt_slice(&p_vars))
    }

    fn assert_pass_matches_tape(
        spec: &KernelSpec,
        params: &[f64],
        pts: &[Vec<f64>],
        seed: &dyn Fn(usize, usize) -> f64,
        pass: &mut LikelihoodGrad,
        what: &str,
    ) {
        let n = pts.len();
        let (values, want) = taped(spec, params, pts, seed);
        let mut gram = Matrix::zeros(n, n);
        pass.forward(spec, params, pts, &mut gram);
        let mut got = vec![0.0; params.len()];
        pass.backward(seed, &mut got);
        let mut at = 0;
        for i in 0..n {
            for j in i..n {
                let generic = spec.eval(params, &pts[i], &pts[j]);
                assert_eq!(
                    values[at].to_bits(),
                    generic.to_bits(),
                    "{what}: tape value ({i},{j})"
                );
                assert_eq!(
                    gram[(i, j)].to_bits(),
                    generic.to_bits(),
                    "{what}: K[{i}][{j}]"
                );
                assert_eq!(
                    gram[(j, i)].to_bits(),
                    generic.to_bits(),
                    "{what}: K[{j}][{i}]"
                );
                at += 1;
            }
        }
        for (p, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: ∂/∂θ[{p}] pass {g:e} vs tape {w:e}"
            );
        }
    }

    fn equivalence_specs() -> Vec<KernelSpec> {
        vec![
            KernelSpec::ard_rbf(3),
            KernelSpec::neuk(3),
            KernelSpec::Neuk(NeukSpec {
                input_dim: 3,
                latent_dim: 2,
                primitives: vec![
                    PrimitiveKernel::Rbf,
                    PrimitiveKernel::RationalQuadratic,
                    PrimitiveKernel::Periodic,
                    PrimitiveKernel::Matern52,
                ],
                mix_dim: 3,
            }),
        ]
    }

    /// Parameter vectors from the initialiser out to both ends of the ±8
    /// training clamp.
    fn equivalence_params(spec: &KernelSpec, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = spec.param_count();
        vec![
            spec.init_params(&mut rng),
            (0..m).map(|_| rng.gen_range(-8.0..=8.0)).collect(),
            (0..m).map(|_| rng.gen_range(-1.5..1.5)).collect(),
            (0..m)
                .map(|p| if p % 2 == 0 { 8.0 } else { -8.0 })
                .collect(),
            vec![8.0; m],
            vec![-8.0; m],
        ]
    }

    /// Seven points with duplicated rows and signed zeros.
    fn equivalence_points(seed: u64) -> Vec<Vec<f64>> {
        let mut pts = random_points(5, 3, seed);
        pts.push(pts[1].clone());
        pts.insert(3, pts[0].clone());
        pts[2][1] = 0.0;
        pts[4][2] = -0.0;
        pts
    }

    /// Seeds over the pairs: mostly spread values, with exact `0.0` and
    /// `-0.0` mixed in (skipped pairs).
    fn equivalence_seed(salt: u64) -> impl Fn(usize, usize) -> f64 {
        move |i, j| match (i * 5 + j * 3 + salt as usize) % 7 {
            0 => 0.0,
            1 => -0.0,
            r => (r as f64 - 3.7) * (1.0 + (i * j) as f64 * 0.173),
        }
    }

    #[test]
    fn likelihood_pass_matches_tape_bitwise() {
        for (s, spec) in equivalence_specs().iter().enumerate() {
            // One pass reused across every case, as across Adam iterations.
            let mut pass = LikelihoodGrad::default();
            for (c, params) in equivalence_params(spec, 80 + s as u64).iter().enumerate() {
                let pts = equivalence_points(90 + c as u64);
                let seed = equivalence_seed(c as u64);
                let what = format!("spec {s} params {c}");
                assert_pass_matches_tape(spec, params, &pts, &seed, &mut pass, &what);
            }
        }
    }

    #[test]
    fn likelihood_pass_matches_tape_on_gp_seeds() {
        // Seeds as training forms them, ½(ααᵀ − K⁻¹), on a duplicate-heavy
        // set. The projection biases only ever see a difference of two
        // projections, so their gradient is zero in exact arithmetic; on
        // the tape each pair adds −c then +c to an accumulator that starts
        // at +0.0, which cancels exactly, and the pass must land on the
        // same +0.0 rather than on a residue or −0.0.
        let pts: Vec<Vec<f64>> = [0.1, 0.1, -0.4, 0.7, 0.7, 0.7, 1.3]
            .iter()
            .map(|&v| vec![v, 0.5 - v, v * v])
            .collect();
        let ys = [0.3, 0.2, -1.0, 0.8, 0.9, 0.7, -0.2];
        for (s, spec) in equivalence_specs().iter().enumerate() {
            let params = spec.init_params(&mut SmallRng::seed_from_u64(s as u64));
            let mut k = gram(spec, &params, &pts);
            k.add_diagonal(0.05);
            let chol = CholeskyFactor::new(&k).unwrap();
            let alpha = chol.solve(&ys);
            let kinv = chol.inverse();
            let seed = |i: usize, j: usize| {
                let b = alpha[i] * alpha[j] - kinv[(i, j)];
                if i == j {
                    0.5 * b
                } else {
                    b
                }
            };
            let mut pass = LikelihoodGrad::default();
            assert_pass_matches_tape(spec, &params, &pts, &seed, &mut pass, &format!("spec {s}"));
            let KernelSpec::Neuk(neuk) = spec else {
                continue;
            };
            let mut grad = vec![0.0; params.len()];
            pass.backward(seed, &mut grad);
            assert!(
                grad.iter().any(|&g| g != 0.0),
                "spec {s}: no gradient at all"
            );
            let mut at = 0;
            for prim in &neuk.primitives {
                at += neuk.latent_dim * neuk.input_dim;
                for g in &grad[at..at + neuk.latent_dim] {
                    assert_eq!(
                        g.to_bits(),
                        0.0_f64.to_bits(),
                        "spec {s}: bias gradient {g:e}"
                    );
                }
                at += neuk.latent_dim + prim.internal_param_count();
            }
        }
    }

    #[test]
    fn exact_gram_and_cross_match_generic_eval_bitwise() {
        for (s, spec) in equivalence_specs().iter().enumerate() {
            for (c, params) in equivalence_params(spec, 20 + s as u64).iter().enumerate() {
                let earlier = equivalence_points(30 + c as u64);
                let later = random_points(3, 3, 40 + c as u64);
                let kernel = ExactKernel::new(spec, params);
                let g = kernel.gram(&later);
                for (p, a) in later.iter().enumerate() {
                    for (q, b) in later.iter().enumerate() {
                        let want = if p <= q {
                            spec.eval(params, a, b)
                        } else {
                            spec.eval(params, b, a)
                        };
                        assert_eq!(
                            g[(p, q)].to_bits(),
                            want.to_bits(),
                            "spec {s}/{c} gram ({p},{q})"
                        );
                    }
                }
                let x = kernel.cross(&earlier, &later);
                assert_eq!((x.rows(), x.cols()), (later.len(), earlier.len()));
                for (p, b) in later.iter().enumerate() {
                    for (j, a) in earlier.iter().enumerate() {
                        let want = spec.eval(params, a, b);
                        assert_eq!(
                            x[(p, j)].to_bits(),
                            want.to_bits(),
                            "spec {s}/{c} cross ({p},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn primitives_are_one_at_zero_distance() {
        let a = [0.3, -0.7];
        for prim in [
            PrimitiveKernel::Rbf,
            PrimitiveKernel::RationalQuadratic,
            PrimitiveKernel::Periodic,
            PrimitiveKernel::Matern52,
        ] {
            let internal = prim.default_internal_params();
            let v = prim.eval(&internal, &a, &a);
            assert!((v - 1.0).abs() < 1e-5, "{prim:?} k(x,x) = {v}");
        }
    }

    #[test]
    fn primitives_decay_with_distance() {
        let a = [0.0];
        for prim in [
            PrimitiveKernel::Rbf,
            PrimitiveKernel::RationalQuadratic,
            PrimitiveKernel::Matern52,
        ] {
            let internal = prim.default_internal_params();
            let near = prim.eval(&internal, &a, &[0.1]);
            let far = prim.eval(&internal, &a, &[1.5]);
            assert!(near > far, "{prim:?}: {near} vs {far}");
        }
    }

    #[test]
    fn periodic_kernel_repeats() {
        let internal = PrimitiveKernel::Periodic.default_internal_params();
        let period = internal[0].exp();
        let k0 = PrimitiveKernel::Periodic.eval(&internal, &[0.0], &[0.3]);
        let k1 = PrimitiveKernel::Periodic.eval(&internal, &[0.0], &[0.3 + period]);
        assert!((k0 - k1).abs() < 1e-9);
    }

    #[test]
    fn ard_rbf_symmetry_and_amplitude() {
        let spec = KernelSpec::ard_rbf(3);
        let params = vec![0.5_f64, 0.1, -0.2, 0.3];
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, 1.5, 2.0];
        let kab = spec.eval(&params, &a, &b);
        let kba = spec.eval(&params, &b, &a);
        assert!((kab - kba).abs() < 1e-14);
        let kaa = spec.eval(&params, &a, &a);
        assert!((kaa - 0.5_f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn neuk_param_count_consistent() {
        let spec = NeukSpec::standard(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = spec.init_params(&mut rng);
        assert_eq!(p.len(), spec.param_count());
        // 3 primitives × (2×5 W + 2 b) + 2 internal (RQ, PER) + mix 3×3+3 + 1
        assert_eq!(spec.param_count(), 3 * 12 + 2 + 12 + 1);
    }

    #[test]
    fn neuk_is_symmetric_and_positive() {
        let spec = NeukSpec::standard(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = spec.init_params(&mut rng);
        let a = [0.1, -0.5, 0.9];
        let b = [-0.3, 0.2, 0.4];
        let kab = spec.eval(&p, &a, &b);
        let kba = spec.eval(&p, &b, &a);
        assert!((kab - kba).abs() < 1e-12);
        assert!(kab > 0.0);
        let kaa = spec.eval(&p, &a, &a);
        assert!(kaa >= kab, "diagonal dominates: {kaa} vs {kab}");
    }

    #[test]
    fn neuk_gram_is_positive_definite() {
        // PSD-by-construction claim: Gram matrices over random points and
        // random parameters must factor with (at most jitter-level) help.
        let spec = KernelSpec::neuk(4);
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let params = spec.init_params(&mut rng);
            let xs = random_points(20, 4, seed + 100);
            let mut g = gram(&spec, &params, &xs);
            g.add_diagonal(1e-8);
            assert!(
                CholeskyFactor::new(&g).is_ok(),
                "Neuk gram not PD for seed {seed}"
            );
        }
    }

    #[test]
    fn ard_gram_is_positive_definite() {
        let spec = KernelSpec::ard_rbf(3);
        let mut rng = SmallRng::seed_from_u64(11);
        let params = spec.init_params(&mut rng);
        let xs = random_points(25, 3, 5);
        let mut g = gram(&spec, &params, &xs);
        g.add_diagonal(1e-8);
        assert!(CholeskyFactor::new(&g).is_ok());
    }

    #[test]
    fn neuk_taped_gradient_matches_finite_difference() {
        use kato_autodiff::{check_gradient, Tape};
        let spec = KernelSpec::neuk(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let params = spec.init_params(&mut rng);
        let a = [0.4, -0.1];
        let b = [-0.2, 0.7];

        let f = |p: &[f64]| spec.eval(p, &a, &b);
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let a_vars: Vec<_> = a.iter().map(|&v| tape.constant(v)).collect();
        let b_vars: Vec<_> = b.iter().map(|&v| tape.constant(v)).collect();
        let k = spec.eval(&p_vars, &a_vars, &b_vars);
        let grads = tape.backward(k);
        let analytic = grads.wrt_slice(&p_vars);
        let check = check_gradient(f, &params, &analytic, 1e-6);
        assert!(check.passes(1e-4), "{check:?}");
    }

    #[test]
    fn prepared_matches_generic_eval() {
        // Every kernel family with every primitive: the hoisted f64 fast
        // path must agree with the generic evaluation to re-association
        // error.
        let specs = [
            KernelSpec::ard_rbf(3),
            KernelSpec::neuk(3),
            KernelSpec::Neuk(NeukSpec {
                input_dim: 3,
                latent_dim: 2,
                primitives: vec![PrimitiveKernel::Matern52, PrimitiveKernel::Periodic],
                mix_dim: 2,
            }),
        ];
        for (s, spec) in specs.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(40 + s as u64);
            let params = spec.init_params(&mut rng);
            let xs = random_points(7, 3, 60 + s as u64);
            let qs = random_points(4, 3, 70 + s as u64);
            let px = spec.prepare(&params, &xs);
            let pq = spec.prepare(&params, &qs);
            assert_eq!(px.len(), 7);
            assert!(!pq.is_empty());
            for (j, q) in qs.iter().enumerate() {
                for (i, x) in xs.iter().enumerate() {
                    let slow = spec.eval(&params, q, x);
                    let fast = pq.eval(j, &px, i);
                    assert!(
                        (slow - fast).abs() <= 1e-12 * (1.0 + slow.abs()),
                        "spec {s} pair ({j},{i}): {slow} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn matern_gradient_finite_at_coincident_points() {
        use kato_autodiff::Tape;
        let spec = KernelSpec::Neuk(NeukSpec {
            input_dim: 2,
            latent_dim: 2,
            primitives: vec![PrimitiveKernel::Matern52],
            mix_dim: 1,
        });
        let mut rng = SmallRng::seed_from_u64(4);
        let params = spec.init_params(&mut rng);
        let tape = Tape::new();
        let p_vars: Vec<_> = params.iter().map(|&v| tape.var(v)).collect();
        let a: Vec<_> = [0.5, 0.5].iter().map(|&v| tape.constant(v)).collect();
        let k = spec.eval(&p_vars, &a, &a);
        let grads = tape.backward(k);
        for pv in &p_vars {
            assert!(grads.wrt(*pv).is_finite(), "NaN gradient on diagonal");
        }
    }
}
