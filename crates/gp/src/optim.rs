/// Adam optimiser (Kingma & Ba, 2015) over a flat parameter vector.
///
/// Used for every maximum-likelihood fit in the workspace: Neuk GP
/// hyperparameters (paper Eq. 3) and the KAT-GP encoder/decoder (Eq. 12).
///
/// # Example
///
/// ```
/// use kato_gp::Adam;
///
/// // Minimise (p-3)² by stepping along -grad.
/// let mut p = vec![0.0];
/// let mut opt = Adam::new(1, 0.1);
/// for _ in 0..500 {
///     let grad = vec![2.0 * (p[0] - 3.0)];
///     opt.step(&mut p, &grad);
/// }
/// assert!((p[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimiser for `dim` parameters with learning rate `lr` and
    /// the standard moment decay rates (β₁ = 0.9, β₂ = 0.999).
    #[must_use]
    pub fn new(dim: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    /// Overrides the moment decay rates. Returns `self` for builder chaining.
    #[must_use]
    pub fn with_betas(mut self, beta1: f64, beta2: f64) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Current learning rate.
    #[must_use]
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Sets the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Takes one *descent* step: `params ← params − lr · m̂/(√v̂+ε)`.
    ///
    /// To maximise an objective, pass the negated gradient.
    ///
    /// Non-finite gradient entries are treated as zero, which keeps a single
    /// degenerate likelihood evaluation from destroying the moment estimates.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` length differs from the optimiser
    /// dimension.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "Adam: params length mismatch");
        assert_eq!(grads.len(), self.m.len(), "Adam: grads length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = if grads[i].is_finite() { grads[i] } else { 0.0 };
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// Rescales `grads` in place so its L2 norm does not exceed `max_norm`.
/// Returns the original norm.
pub fn clip_gradients(grads: &mut [f64], max_norm: f64) -> f64 {
    let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut p = vec![5.0, -4.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..2000 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 1e-3);
        assert!((p[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn nan_gradients_are_ignored() {
        let mut p = vec![1.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut p, &[f64::NAN]);
        assert!(p[0].is_finite());
        assert_eq!(p[0], 1.0); // zero effective gradient
    }

    #[test]
    fn step_counter_increments() {
        let mut opt = Adam::new(1, 0.1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut [0.0], &[1.0]);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn clip_shrinks_only_large_gradients() {
        let mut g = vec![3.0, 4.0];
        let norm = clip_gradients(&mut g, 10.0);
        assert_eq!(norm, 5.0);
        assert_eq!(g, vec![3.0, 4.0]);
        let _ = clip_gradients(&mut g, 1.0);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "params length mismatch")]
    fn wrong_dimension_panics() {
        let mut opt = Adam::new(2, 0.1);
        opt.step(&mut [0.0], &[1.0]);
    }

    #[test]
    fn learning_rate_mutable() {
        let mut opt = Adam::new(1, 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
