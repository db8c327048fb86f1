//! Sample statistics and the result document.

use crate::calibration::{calibrate, CALIBRATION_REF_MS};
use kato_serve::Json;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile, sample count)`: the sample at sorted index
/// `n − 11`, so its percentile is `100·(n − 11)/(n − 1)`. Below 11
/// samples no percentile qualifies and the maximum is reported instead
/// (percentile 100), so a short run says so rather than hiding it.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN, 0),
        1..=10 => (s[n - 1], 100.0, n),
        _ => (s[n - 11], 100.0 * (n - 11) as f64 / (n - 1) as f64, n),
    }
}

/// Readings of the panel's operations over repeated passes: operation
/// `i` is the same work in every pass.
#[derive(Debug, Default)]
pub struct PanelTimes(Vec<Vec<Reading>>);

impl PanelTimes {
    pub fn add(&mut self, i: usize, r: Reading) {
        if i == self.0.len() {
            self.0.push(Vec::new());
        }
        self.0[i].push(r);
    }

    /// Mean over the operations of each one's median `field` over passes.
    pub fn mean_of_medians(&self, field: fn(&Reading) -> f64) -> f64 {
        let medians = self
            .0
            .iter()
            .map(|s| median(&s.iter().map(field).collect::<Vec<_>>()));
        medians.sum::<f64>() / self.0.len() as f64
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// CPU time of the whole process in seconds: every thread, exited ones
/// included, and none of the time the machine gave to other work.
pub fn process_cpu_s() -> f64 {
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("process_cpu_s assumes the 64-bit Linux timespec layout");
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) through the pointer, which
    // points to a live local of that layout; the clock id is Linux's.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU time of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// CPU ms scaled to the reference machine speed: `cpu_ms` times
    /// [`CALIBRATION_REF_MS`] over the mean of the calibrations taken
    /// just before and just after the operation.
    pub cpu_ref_ms: f64,
}

/// Wall and process CPU time since it was started, with a calibration on
/// each side (outside the timed span).
pub struct Stopwatch {
    calibration_ms: f64,
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        let calibration_ms = calibrate();
        Stopwatch {
            calibration_ms,
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn read(&self) -> Reading {
        let wall_ms = self.wall.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (process_cpu_s() - self.cpu_s) * 1e3;
        let calibration_ms = 0.5 * (self.calibration_ms + calibrate());
        Reading {
            wall_ms,
            cpu_ms,
            cpu_ref_ms: cpu_ms * CALIBRATION_REF_MS / calibration_ms,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metrics of one benchmark run, in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Names whose value is not a finite number (JSON cannot carry them).
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(n, 30);
        assert_eq!(value, 20.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!(pct > 50.0 && pct < 100.0);
        assert_eq!(median(&v), 15.5);
    }

    #[test]
    fn panel_times_average_per_operation_medians() {
        let r = |cpu_ms: f64| Reading {
            wall_ms: 0.0,
            cpu_ms,
            cpu_ref_ms: 0.0,
        };
        let mut t = PanelTimes::default();
        for cpu in [[10.0, 100.0], [12.0, 300.0], [11.0, 200.0]] {
            for (i, &c) in cpu.iter().enumerate() {
                t.add(i, r(c));
            }
        }
        t.add(0, r(1e9)); // an unfinished pass counts once per operation
        assert_eq!(t.mean_of_medians(|r| r.cpu_ms), (11.5 + 200.0) / 2.0);
    }
}
