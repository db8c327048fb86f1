//! The calibration kernel. Other tenants of a shared host slowed every
//! computation here, the program's CPU time included, by up to 2× for
//! minutes at a time; the kernel, timed next to each operation, measures
//! that slowdown so the operation's CPU time can be scaled out of it.
//!
//! The kernel is code of this package, so no change to the program under
//! test can speed it up or slow it down. It mixes the kinds of work the
//! program spends its time in, because each kind slows differently: small
//! and cache-sized dense products with an `exp` per entry (GP and MNA
//! kernels), a dependent walk over a permutation larger than the caches,
//! and short-lived allocations sorted in place. On the tuning VM, over
//! eight minutes of fluctuating load, the program's CPU time over the
//! mixed kernel's spread 0.015 (quartile distance over median of 30 s
//! windows), against 0.065 for the program's CPU time alone and 0.043
//! for the small products alone.

/// The kernel's CPU ms per thread that `*_ref` readings are scaled to:
/// about what it takes on an idle core of the 2-vCPU VM the benchmark was
/// tuned on, so those readings are near that machine's milliseconds.
pub const CALIBRATION_REF_MS: f64 = 6.0;

/// CPU ms per thread of the kernel, run at once on as many threads as the
/// program uses.
pub fn calibrate() -> f64 {
    let threads = kato_par::num_threads();
    let start = crate::report::process_cpu_s();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(kernel);
        }
    });
    (crate::report::process_cpu_s() - start) * 1e3 / threads as f64
}

fn kernel() -> f64 {
    products(48, 40) + products(160, 2) + walk(1 << 17, 60_000) + allocations(850)
}

/// `reps` rounds of an `n`×`n` product and an `exp` per entry.
fn products(n: usize, reps: usize) -> f64 {
    let mut a: Vec<f64> = (0..n * n)
        .map(|i| (i * 7919 % 1000) as f64 * 1e-3)
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| (i * 104_729 % 1000) as f64 * 1e-3 - 0.5)
        .collect();
    let mut c = vec![0.0; n * n];
    for _ in 0..reps {
        c.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        for (x, y) in a.iter_mut().zip(&c) {
            *x = (-y.abs() * 1e-2).exp();
        }
    }
    std::hint::black_box(a.iter().sum())
}

/// Shuffles a permutation of `len` entries, then follows it `steps` times.
fn walk(len: usize, steps: usize) -> f64 {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut s = Lcg(12_345);
    for i in (1..len).rev() {
        next.swap(i, s.next() as usize % (i + 1));
    }
    let (mut p, mut acc) = (0usize, 0u64);
    for _ in 0..steps {
        p = next[p] as usize;
        acc = acc.wrapping_add(p as u64);
    }
    std::hint::black_box(acc as f64)
}

/// `n` vectors of 16 to 215 pseudo-random values, each sorted and dropped.
fn allocations(n: usize) -> f64 {
    let mut s = Lcg(99);
    let mut total = 0.0;
    for _ in 0..n {
        let len = 16 + (s.next() % 200) as usize;
        let mut v: Vec<f64> = (0..len).map(|_| s.next() as f64).collect();
        v.sort_by(f64::total_cmp);
        total += v[len / 2];
    }
    std::hint::black_box(total)
}

/// Knuth's MMIX linear congruential generator; the high bits.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}
