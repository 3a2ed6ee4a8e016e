//! Measurement helpers: order statistics, the run's metric sheet, peak
//! resident memory, and the SplitMix64 stream every workload draws its
//! inputs from.

use std::time::Instant;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many of `n` samples lie beyond quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize
}

/// States how many of `n` samples lie beyond quantile `q`, flagging a tail
/// with fewer than ten beyond it as a weak estimate.
pub fn tail_count(n: usize, q: f64) -> String {
    let k = beyond(n, q);
    let weak = if k < 10 {
        " (fewer than ten: weak tail estimate)"
    } else {
        ""
    };
    format!("{n} samples, {k} beyond p{}{weak}", (q * 100.0).round())
}

/// Runs `f` `reps` times, appending each run's wall seconds to `secs`,
/// and returns the last result (earlier results are dropped outside the
/// timer).
pub fn time_into<R>(secs: &mut Vec<f64>, reps: usize, mut f: impl FnMut() -> R) -> R {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    last.expect("at least one repetition")
}

/// Runs `f` `reps` times and returns the median of its wall seconds and
/// the last result.
pub fn median_secs<R>(reps: usize, f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(reps);
    let last = time_into(&mut secs, reps, f);
    (median(&secs), last)
}

/// One named metric (its unit is in the metric table of `main`).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Sheet {
    /// Ops attempted (every op is checked).
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// Failed checks that are not tied to one op (attribution, artifacts).
    pub errors: Vec<String>,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Sheet {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked op; `problem` is `Some(reason)` when it failed.
    pub fn check_op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            // keep the log short: the first few reasons say enough
            if self.failed <= 5 {
                self.errors.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what follows. Returns false where the
/// kernel refuses (the watermark then spans the whole process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A matrix seed the serving protocol accepts (`<= u64::MAX >> 12`).
    pub fn matrix_seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(99, 0.9), 9);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
