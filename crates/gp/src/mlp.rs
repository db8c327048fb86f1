#[cfg(test)]
use kato_autodiff::Scalar;
use rand::Rng;

/// A small fully connected network with sigmoid hidden activations and a
/// linear output layer — the encoder/decoder architecture of KAT-GP
/// (paper §3.2: `linear(d_in×32) – sigmoid – linear(32×d_out)`).
///
/// Parameters live in an external flat slice, so one spec serves every
/// parameter vector a training run visits. Training differentiates the
/// forward pass with a hand-written reverse sweep that equals the sweep
/// of an autodiff tape over the same forward pass bit for bit.
///
/// # Example
///
/// ```
/// use kato_gp::MlpSpec;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let spec = MlpSpec::new(&[3, 8, 2]);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let params = spec.init_params(&mut rng);
/// let out = spec.forward(&params, &[0.1, -0.2, 0.3]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    sizes: Vec<usize>,
}

impl MlpSpec {
    /// Creates a spec from layer sizes `[in, hidden..., out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub fn new(sizes: &[usize]) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "zero-width layer");
        MlpSpec {
            sizes: sizes.to_vec(),
        }
    }

    /// The paper's KAT encoder/decoder shape: `in → 32 → out`.
    #[must_use]
    pub fn kat(d_in: usize, d_out: usize) -> Self {
        MlpSpec::new(&[d_in, 32, d_out])
    }

    /// Input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output width.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("non-empty")
    }

    /// Total number of parameters (weights + biases).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Xavier-style random initialisation.
    pub fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut params = Vec::with_capacity(self.param_count());
        for w in self.sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (2.0 / (n_in + n_out) as f64).sqrt();
            for _ in 0..(n_in * n_out) {
                params.push(rng.gen_range(-1.0..1.0) * scale);
            }
            params.extend(std::iter::repeat_n(0.0, n_out));
        }
        params
    }

    /// Forward pass. Hidden layers use sigmoid; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `input` have the wrong length.
    #[must_use]
    pub fn forward(&self, params: &[f64], input: &[f64]) -> Vec<f64> {
        let mut acts = Vec::new();
        self.forward_into(params, input, &mut acts);
        acts.split_off(acts.len() - self.output_dim())
    }

    /// [`MlpSpec::forward`] keeping every layer's activations: `acts`
    /// becomes the input followed by each layer's outputs, the network
    /// output last.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `input` have the wrong length.
    pub(crate) fn forward_into(&self, params: &[f64], input: &[f64], acts: &mut Vec<f64>) {
        assert_eq!(input.len(), self.sizes[0], "MLP input width mismatch");
        assert_eq!(params.len(), self.param_count(), "MLP param count mismatch");
        acts.clear();
        acts.extend_from_slice(input);
        let (mut p_at, mut in_at) = (0, 0);
        let n_layers = self.sizes.len() - 1;
        for (li, w) in self.sizes.windows(2).enumerate() {
            let (n_in, n_out) = (w[0], w[1]);
            let weights = &params[p_at..p_at + n_in * n_out];
            let biases = &params[p_at + n_in * n_out..p_at + n_in * n_out + n_out];
            p_at += n_in * n_out + n_out;
            for o in 0..n_out {
                let mut acc = biases[o];
                for i in 0..n_in {
                    acc += weights[o * n_in + i] * acts[in_at + i];
                }
                if li + 1 < n_layers {
                    acc = 1.0 / (1.0 + (-acc).exp());
                }
                acts.push(acc);
            }
            in_at += n_in;
        }
    }

    /// Adds to `grad` the gradient of `Σ_o adj_out[o]·output[o]`, exactly
    /// as the tape's reverse sweep over one taped [`MlpSpec::forward`]
    /// would: layer by layer and unit by unit, last first, with zero
    /// adjoints skipped. `acts` is what [`MlpSpec::forward_into`] left;
    /// `adj` is scratch.
    pub(crate) fn backward(
        &self,
        params: &[f64],
        acts: &[f64],
        adj_out: &[f64],
        grad: &mut [f64],
        adj: &mut Vec<f64>,
    ) {
        adj.clear();
        adj.resize(acts.len(), 0.0);
        let out_at = acts.len() - adj_out.len();
        adj[out_at..].copy_from_slice(adj_out);
        let n_layers = self.sizes.len() - 1;
        let (mut p_end, mut a_end) = (params.len(), acts.len());
        for li in (0..n_layers).rev() {
            let (n_in, n_out) = (self.sizes[li], self.sizes[li + 1]);
            let w_at = p_end - n_in * n_out - n_out;
            let b_at = p_end - n_out;
            let (in_at, o_at) = (a_end - n_out - n_in, a_end - n_out);
            let (below, above) = adj.split_at_mut(o_at);
            for o in (0..n_out).rev() {
                let mut adj_acc = above[o];
                if adj_acc == 0.0 {
                    continue;
                }
                if li + 1 < n_layers {
                    // Sigmoid, whose tape partial is `s·(1 − s)`.
                    let s = acts[o_at + o];
                    adj_acc *= s * (1.0 - s);
                    if adj_acc == 0.0 {
                        continue;
                    }
                }
                // acc = ((b + w_0·a_0) + w_1·a_1) + …: every link carries
                // `adj_acc`.
                let row = w_at + o * n_in;
                for i in (0..n_in).rev() {
                    grad[row + i] += adj_acc * acts[in_at + i];
                    if li > 0 {
                        below[in_at + i] += adj_acc * params[row + i];
                    }
                }
                grad[b_at + o] += adj_acc;
            }
            p_end = w_at;
            a_end = o_at;
        }
    }

    /// The generic forward pass, the test reference for the reverse sweep.
    #[cfg(test)]
    pub(crate) fn forward_scalar<S: Scalar>(&self, params: &[S], input: &[S]) -> Vec<S> {
        assert_eq!(input.len(), self.sizes[0], "MLP input width mismatch");
        assert_eq!(params.len(), self.param_count(), "MLP param count mismatch");
        let mut activ: Vec<S> = input.to_vec();
        let mut offset = 0;
        let n_layers = self.sizes.len() - 1;
        for (li, w) in self.sizes.windows(2).enumerate() {
            let (n_in, n_out) = (w[0], w[1]);
            let weights = &params[offset..offset + n_in * n_out];
            let biases = &params[offset + n_in * n_out..offset + n_in * n_out + n_out];
            offset += n_in * n_out + n_out;
            let mut next = Vec::with_capacity(n_out);
            for o in 0..n_out {
                let mut acc = biases[o];
                for (i, &a) in activ.iter().enumerate() {
                    acc = acc + weights[o * n_in + i] * a;
                }
                if li + 1 < n_layers {
                    acc = acc.sigmoid();
                }
                next.push(acc);
            }
            activ = next;
        }
        activ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_autodiff::{check_gradient, Tape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn param_count_matches_layout() {
        let spec = MlpSpec::new(&[3, 32, 1]);
        assert_eq!(spec.param_count(), 3 * 32 + 32 + 32 + 1);
        assert_eq!(MlpSpec::kat(5, 2).param_count(), 5 * 32 + 32 + 32 * 2 + 2);
    }

    #[test]
    fn forward_identity_network() {
        // 1→1 linear with weight 2, bias 1 (single layer → purely linear).
        let spec = MlpSpec::new(&[1, 1]);
        let out = spec.forward(&[2.0, 1.0], &[3.0]);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn hidden_layer_applies_sigmoid() {
        // 1→1→1 with weights 1, biases 0: out = sigmoid(x) · 1.
        let spec = MlpSpec::new(&[1, 1, 1]);
        let params = [1.0, 0.0, 1.0, 0.0];
        let out = spec.forward(&params, &[0.0]);
        assert!((out[0] - 0.5).abs() < 1e-12);
    }

    /// The hand sweep against the tape's, bit for bit, over shallow and
    /// deep nets, at the initialiser and out to the ±20 clamp KAT-GP
    /// training keeps its parameters in (saturated sigmoids), with one
    /// output seeded exactly zero.
    #[test]
    fn backward_matches_tape_bitwise() {
        let shapes: [&[usize]; 3] = [&[2, 4, 1], &[3, 5, 4, 2], &[4, 32, 3]];
        for (c, sizes) in shapes.iter().enumerate() {
            let spec = MlpSpec::new(sizes);
            let n_out = spec.output_dim();
            let mut rng = SmallRng::seed_from_u64(7 + c as u64);
            let init = spec.init_params(&mut rng);
            let wide: Vec<f64> = (0..init.len())
                .map(|_| rng.gen_range(-20.0..=20.0))
                .collect();
            for (k, params) in [init, wide].iter().enumerate() {
                let x: Vec<f64> = (0..sizes[0]).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let seeds: Vec<f64> = (0..n_out)
                    .map(|o| if o == 1 { 0.0 } else { 0.7 - o as f64 })
                    .collect();
                let tape = Tape::new();
                let p_vars: Vec<_> = params.iter().map(|&p| tape.var(p)).collect();
                let x_vars: Vec<_> = x.iter().map(|&v| tape.constant(v)).collect();
                let out = spec.forward_scalar(&p_vars, &x_vars);
                let seeded: Vec<_> = out.iter().copied().zip(seeds.iter().copied()).collect();
                let want = tape.backward_seeded(&seeded).wrt_slice(&p_vars);

                let mut acts = Vec::new();
                spec.forward_into(params, &x, &mut acts);
                let plain = spec.forward(params, &x);
                for (o, v) in out.iter().enumerate() {
                    let got = acts[acts.len() - n_out + o];
                    assert_eq!(got.to_bits(), v.value().to_bits(), "{c}/{k}: out {o}");
                    assert_eq!(plain[o].to_bits(), got.to_bits(), "{c}/{k}: forward {o}");
                }
                let mut got = vec![0.0; params.len()];
                spec.backward(params, &acts, &seeds, &mut got, &mut Vec::new());
                for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{c}/{k}: ∂/∂θ[{p}] {g:e} vs {w:e}"
                    );
                }
            }
        }
        // The math itself: the hand gradient against finite differences.
        let spec = MlpSpec::new(&[2, 4, 1]);
        let params = spec.init_params(&mut SmallRng::seed_from_u64(7));
        let x = [0.3, -0.8];
        let mut acts = Vec::new();
        spec.forward_into(&params, &x, &mut acts);
        let mut analytic = vec![0.0; params.len()];
        spec.backward(&params, &acts, &[1.0], &mut analytic, &mut Vec::new());
        let check = check_gradient(|p| spec.forward(p, &x)[0], &params, &analytic, 1e-6);
        assert!(check.passes(1e-5), "{check:?}");
    }

    #[test]
    fn deterministic_init_given_seed() {
        let spec = MlpSpec::kat(4, 1);
        let a = spec.init_params(&mut SmallRng::seed_from_u64(3));
        let b = spec.init_params(&mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let spec = MlpSpec::new(&[2, 1]);
        let _ = spec.forward(&[1.0, 1.0, 0.0], &[1.0]);
    }
}
