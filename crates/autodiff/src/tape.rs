use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// One entry of the Wengert list: up to two parents with precomputed local
/// partial derivatives.
#[derive(Debug, Clone, Copy)]
struct Node {
    parents: [usize; 2],
    partials: [f64; 2],
}

/// Arena recording every elementary operation for reverse-mode AD.
///
/// A tape is cheap to create and intended to be rebuilt for every evaluation
/// of the objective (gradients are exact for the recorded computation). All
/// [`Var`]s borrow the tape, which statically prevents mixing variables from
/// different tapes.
///
/// # Example
///
/// ```
/// use kato_autodiff::Tape;
///
/// let tape = Tape::new();
/// let a = tape.var(1.5);
/// let b = a * a + a;
/// let g = tape.backward(b);
/// assert!((g.wrt(a) - 4.0).abs() < 1e-12); // d(a²+a)/da = 2a+1
/// ```
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tape")
            .field("len", &self.nodes.borrow().len())
            .finish()
    }
}

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Clears the tape, keeping its allocation. All outstanding [`Var`]s
    /// become logically invalid (using them afterwards is a logic error that
    /// `debug_assert`s catch in tests).
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
    }

    /// Registers a new leaf variable with the given value.
    #[must_use]
    pub fn var(&self, value: f64) -> Var<'_> {
        let idx = self.push_leaf();
        Var {
            tape: self,
            idx,
            value,
        }
    }

    /// Registers a constant. Gradients flow *to* it (its adjoint is simply
    /// never read), so it is represented as a leaf too.
    #[must_use]
    pub fn constant(&self, value: f64) -> Var<'_> {
        self.var(value)
    }

    fn push_leaf(&self) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        nodes.push(Node {
            parents: [idx, idx],
            partials: [0.0, 0.0],
        });
        idx
    }

    fn push_unary(&self, parent: usize, partial: f64) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        nodes.push(Node {
            parents: [parent, idx],
            partials: [partial, 0.0],
        });
        idx
    }

    fn push_binary(&self, p0: usize, d0: f64, p1: usize, d1: f64) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        nodes.push(Node {
            parents: [p0, p1],
            partials: [d0, d1],
        });
        idx
    }

    /// Reverse sweep from a single scalar output (adjoint seed `1.0`).
    #[must_use]
    pub fn backward(&self, output: Var<'_>) -> Grads {
        self.backward_seeded(&[(output, 1.0)])
    }

    /// Reverse sweep with explicit adjoint seeds on several outputs.
    ///
    /// Computes `Σ_k seed_k · ∂(output_k)/∂(leaf)` for every leaf in one pass
    /// — the workhorse behind the GP marginal-likelihood gradient, where each
    /// Gram entry `K_ij` is seeded with `∂L/∂K_ij`.
    #[must_use]
    pub fn backward_seeded(&self, seeds: &[(Var<'_>, f64)]) -> Grads {
        let nodes = self.nodes.borrow();
        let mut adjoints = vec![0.0; nodes.len()];
        for (var, seed) in seeds {
            debug_assert!(var.idx < nodes.len(), "Var from a cleared/foreign tape");
            adjoints[var.idx] += seed;
        }
        for i in (0..nodes.len()).rev() {
            let a = adjoints[i];
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            if node.parents[0] != i {
                adjoints[node.parents[0]] += a * node.partials[0];
            }
            if node.parents[1] != i {
                adjoints[node.parents[1]] += a * node.partials[1];
            }
        }
        Grads { adjoints }
    }
}

/// Result of a backward pass: adjoints for every node, queried per-[`Var`].
#[derive(Debug, Clone)]
pub struct Grads {
    adjoints: Vec<f64>,
}

impl Grads {
    /// Gradient of the seeded output(s) with respect to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the tape that produced these
    /// gradients (index out of range).
    #[must_use]
    pub fn wrt(&self, v: Var<'_>) -> f64 {
        self.adjoints[v.idx]
    }

    /// Gradients for a slice of variables, in order.
    #[must_use]
    pub fn wrt_slice(&self, vars: &[Var<'_>]) -> Vec<f64> {
        vars.iter().map(|v| self.wrt(*v)).collect()
    }
}

/// Differentiable scalar: a value plus its position on a [`Tape`].
///
/// `Var` is `Copy` and supports the full set of arithmetic operators against
/// both `Var` and `f64`, plus the transcendental functions the GP kernels
/// need.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
    value: f64,
}

impl fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("idx", &self.idx)
            .field("value", &self.value)
            .finish()
    }
}

impl<'t> Var<'t> {
    /// Current value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.value
    }

    /// The tape this variable lives on.
    #[must_use]
    pub fn tape(self) -> &'t Tape {
        self.tape
    }

    fn unary(self, value: f64, partial: f64) -> Var<'t> {
        Var {
            tape: self.tape,
            idx: self.tape.push_unary(self.idx, partial),
            value,
        }
    }

    fn binary(self, rhs: Var<'t>, value: f64, d_self: f64, d_rhs: f64) -> Var<'t> {
        debug_assert!(
            std::ptr::eq(self.tape, rhs.tape),
            "mixing Vars from different tapes"
        );
        Var {
            tape: self.tape,
            idx: self.tape.push_binary(self.idx, d_self, rhs.idx, d_rhs),
            value,
        }
    }

    /// `e^self`.
    #[must_use]
    pub fn exp(self) -> Var<'t> {
        let v = self.value.exp();
        self.unary(v, v)
    }

    /// Natural logarithm. Non-positive inputs yield non-finite values, as
    /// with `f64::ln`.
    #[must_use]
    pub fn ln(self) -> Var<'t> {
        self.unary(self.value.ln(), 1.0 / self.value)
    }

    /// Square root.
    #[must_use]
    pub fn sqrt(self) -> Var<'t> {
        let v = self.value.sqrt();
        self.unary(v, 0.5 / v)
    }

    /// Hyperbolic tangent.
    #[must_use]
    pub fn tanh(self) -> Var<'t> {
        let v = self.value.tanh();
        self.unary(v, 1.0 - v * v)
    }

    /// Logistic sigmoid `1/(1+e^{-x})` (the activation of KAT-GP's
    /// encoder/decoder networks).
    #[must_use]
    pub fn sigmoid(self) -> Var<'t> {
        let v = 1.0 / (1.0 + (-self.value).exp());
        self.unary(v, v * (1.0 - v))
    }

    /// Sine (used by the Periodic primitive kernel).
    #[must_use]
    pub fn sin(self) -> Var<'t> {
        self.unary(self.value.sin(), self.value.cos())
    }

    /// Cosine.
    #[must_use]
    pub fn cos(self) -> Var<'t> {
        self.unary(self.value.cos(), -self.value.sin())
    }

    /// Integer power.
    #[must_use]
    pub fn powi(self, n: i32) -> Var<'t> {
        let v = self.value.powi(n);
        self.unary(v, f64::from(n) * self.value.powi(n - 1))
    }

    /// Absolute value with the `sign(x)` subgradient (`0` at the kink).
    #[must_use]
    pub fn abs(self) -> Var<'t> {
        let s = if self.value > 0.0 {
            1.0
        } else if self.value < 0.0 {
            -1.0
        } else {
            0.0
        };
        self.unary(self.value.abs(), s)
    }

    /// Value-wise maximum with the argmax subgradient.
    #[must_use]
    pub fn max_val(self, other: Var<'t>) -> Var<'t> {
        if self.value >= other.value {
            self.binary(other, self.value, 1.0, 0.0)
        } else {
            self.binary(other, other.value, 0.0, 1.0)
        }
    }
}

impl<'t> Add for Var<'t> {
    type Output = Var<'t>;
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, self.value + rhs.value, 1.0, 1.0)
    }
}

impl<'t> Sub for Var<'t> {
    type Output = Var<'t>;
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, self.value - rhs.value, 1.0, -1.0)
    }
}

impl<'t> Mul for Var<'t> {
    type Output = Var<'t>;
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, self.value * rhs.value, rhs.value, self.value)
    }
}

impl<'t> Div for Var<'t> {
    type Output = Var<'t>;
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(
            rhs,
            self.value / rhs.value,
            1.0 / rhs.value,
            -self.value / (rhs.value * rhs.value),
        )
    }
}

impl<'t> Neg for Var<'t> {
    type Output = Var<'t>;
    fn neg(self) -> Var<'t> {
        self.unary(-self.value, -1.0)
    }
}

impl<'t> Add<f64> for Var<'t> {
    type Output = Var<'t>;
    fn add(self, rhs: f64) -> Var<'t> {
        self.unary(self.value + rhs, 1.0)
    }
}

impl<'t> Sub<f64> for Var<'t> {
    type Output = Var<'t>;
    fn sub(self, rhs: f64) -> Var<'t> {
        self.unary(self.value - rhs, 1.0)
    }
}

impl<'t> Mul<f64> for Var<'t> {
    type Output = Var<'t>;
    fn mul(self, rhs: f64) -> Var<'t> {
        self.unary(self.value * rhs, rhs)
    }
}

impl<'t> Div<f64> for Var<'t> {
    type Output = Var<'t>;
    fn div(self, rhs: f64) -> Var<'t> {
        self.unary(self.value / rhs, 1.0 / rhs)
    }
}

impl<'t> Add<Var<'t>> for f64 {
    type Output = Var<'t>;
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        rhs + self
    }
}

impl<'t> Sub<Var<'t>> for f64 {
    type Output = Var<'t>;
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        rhs.unary(self - rhs.value, -1.0)
    }
}

impl<'t> Mul<Var<'t>> for f64 {
    type Output = Var<'t>;
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        rhs * self
    }
}

impl<'t> Div<Var<'t>> for f64 {
    type Output = Var<'t>;
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        rhs.unary(self / rhs.value, -self / (rhs.value * rhs.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value() {
        let tape = Tape::new();
        let x = tape.var(42.0);
        assert_eq!(x.value(), 42.0);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn simple_polynomial_gradient() {
        // f = 3x² + 2x + 1 at x=4 → f' = 6x+2 = 26
        let tape = Tape::new();
        let x = tape.var(4.0);
        let f = 3.0 * x * x + 2.0 * x + 1.0;
        assert_eq!(f.value(), 57.0);
        let g = tape.backward(f);
        assert!((g.wrt(x) - 26.0).abs() < 1e-12);
    }

    #[test]
    fn product_and_quotient_rules() {
        let tape = Tape::new();
        let x = tape.var(2.0);
        let y = tape.var(5.0);
        let f = (x * y) / (x + y);
        let g = tape.backward(f);
        // d/dx [xy/(x+y)] = y²/(x+y)²
        assert!((g.wrt(x) - 25.0 / 49.0).abs() < 1e-12);
        assert!((g.wrt(y) - 4.0 / 49.0).abs() < 1e-12);
    }

    #[test]
    fn transcendental_chain() {
        let tape = Tape::new();
        let x = tape.var(0.7);
        let f = (x.sin() * x.cos()).tanh();
        let g = tape.backward(f);
        // f = tanh(sin x cos x); f' = (1-f²)(cos²x − sin²x)
        let fv = (0.7_f64.sin() * 0.7_f64.cos()).tanh();
        let expect = (1.0 - fv * fv) * (0.7_f64.cos().powi(2) - 0.7_f64.sin().powi(2));
        assert!((g.wrt(x) - expect).abs() < 1e-12);
    }

    #[test]
    fn ln_sqrt_powi() {
        let tape = Tape::new();
        let x = tape.var(3.0);
        let f = x.ln() + x.sqrt() + x.powi(3);
        let g = tape.backward(f);
        let expect = 1.0 / 3.0 + 0.5 / 3.0_f64.sqrt() + 3.0 * 9.0;
        assert!((g.wrt(x) - expect).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_derivative() {
        let tape = Tape::new();
        let x = tape.var(0.3);
        let f = x.sigmoid();
        let g = tape.backward(f);
        let s = 1.0 / (1.0 + (-0.3_f64).exp());
        assert!((g.wrt(x) - s * (1.0 - s)).abs() < 1e-12);
    }

    #[test]
    fn abs_subgradient() {
        let tape = Tape::new();
        let x = tape.var(-2.0);
        let g = tape.backward(x.abs());
        assert_eq!(g.wrt(x), -1.0);
        let z = tape.var(0.0);
        let g = tape.backward(z.abs());
        assert_eq!(g.wrt(z), 0.0);
    }

    #[test]
    fn max_val_routes_gradient() {
        let tape = Tape::new();
        let a = tape.var(1.0);
        let b = tape.var(2.0);
        let m = a.max_val(b);
        assert_eq!(m.value(), 2.0);
        let g = tape.backward(m);
        assert_eq!(g.wrt(a), 0.0);
        assert_eq!(g.wrt(b), 1.0);
    }

    #[test]
    fn scalar_mixed_operations() {
        let tape = Tape::new();
        let x = tape.var(2.0);
        let f = 1.0 / x + (3.0 - x) * 2.0 + x / 4.0;
        let g = tape.backward(f);
        // d/dx [1/x + 6 − 2x + x/4] = −1/x² − 2 + 1/4
        assert!((g.wrt(x) - (-0.25 - 2.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn fan_out_accumulates() {
        // x used twice: f = x·x + x → f' = 2x + 1
        let tape = Tape::new();
        let x = tape.var(5.0);
        let f = x * x + x;
        let g = tape.backward(f);
        assert!((g.wrt(x) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_backward_combines_outputs() {
        // Two outputs y1=x², y2=3x. Seeds (2, −1) → grad = 2·2x − 3 = 4x−3.
        let tape = Tape::new();
        let x = tape.var(1.5);
        let y1 = x * x;
        let y2 = 3.0 * x;
        let g = tape.backward_seeded(&[(y1, 2.0), (y2, -1.0)]);
        assert!((g.wrt(x) - (4.0 * 1.5 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_length() {
        let tape = Tape::new();
        let _ = tape.var(1.0) + tape.var(2.0);
        assert_eq!(tape.len(), 3);
        tape.clear();
        assert!(tape.is_empty());
    }

    #[test]
    fn constant_receives_no_meaningful_grad_use() {
        let tape = Tape::new();
        let x = tape.var(2.0);
        let c = tape.constant(10.0);
        let f = x * c;
        let g = tape.backward(f);
        assert_eq!(g.wrt(x), 10.0);
        // The constant's adjoint exists but callers simply don't read it.
        assert_eq!(g.wrt(c), 2.0);
    }

    #[test]
    fn wrt_slice_orders_match() {
        let tape = Tape::new();
        let a = tape.var(1.0);
        let b = tape.var(2.0);
        let f = a * 2.0 + b * 3.0;
        let g = tape.backward(f);
        assert_eq!(g.wrt_slice(&[a, b]), vec![2.0, 3.0]);
    }
}
