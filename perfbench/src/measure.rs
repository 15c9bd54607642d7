//! Timing statistics and process gauges.
//!
//! The gated per-run value of every timing is its *fast envelope*: the
//! 0.1th percentile of the run's samples, which is the minimum when a run
//! holds fewer than 1000. On a 2-core host whose speed changes in phases lasting
//! 5–25 s, per-run medians of the same code moved 18.3–28.5 ms
//! (`Advisor::recommend` on TPC-H 22) while the fast envelope moved
//! 15.95–18.49 ms; see `perfbench/NOTES.md`. Medians and p99s are still
//! computed, and reported as diagnostics with their sample counts.

use std::time::{Duration, Instant};

/// Most samples one [`Samples`] keeps. Past it, every other kept sample
/// is dropped and the sampling stride doubles, so the kept set stays an
/// evenly spaced subset and the benchmark's own memory, which
/// `peak_rss_mb` includes, stays bounded whatever the run length.
///
/// The kept samples grow as an ordinary `Vec`, at most 32 KiB each. An
/// earlier version reserved room for 16384 samples up front in every
/// timing: those 128 KiB buffers, one per timing and per appended TPC-H
/// query, came partly from memory the allocator had already touched, and
/// moved advise-tpch22's `peak_rss_mb` by 1.5 MB from run to run.
const KEEP: usize = 1 << 12;

/// Samples of one timing, in the unit they were pushed in.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == KEEP {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(v);
            }
        }
        self.seen += 1;
    }

    /// Samples taken, kept or not.
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    /// The kept samples, in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }

    pub fn extend(&mut self, other: &Samples) {
        for &v in &other.kept {
            self.push(v);
        }
        // Each kept sample of `other` stands for `other.stride` taken.
        self.seen += other.seen - other.kept.len() as u64;
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.kept.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// The fast envelope: the 0.1th percentile, which is the minimum
    /// below 1000 samples.
    pub fn envelope(&self) -> f64 {
        self.quantile(0.001)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Samples of one operation over a mix of inputs, kept per input. Its
/// envelope is the mean of the per-input envelopes: over a mix, the plain
/// envelope would time only the cheapest input.
#[derive(Debug, Clone, Default)]
pub struct Mix(std::collections::BTreeMap<usize, Samples>);

impl Mix {
    pub fn push(&mut self, input: usize, v: f64) {
        self.0.entry(input).or_default().push(v);
    }

    pub fn extend(&mut self, other: &Mix) {
        for (k, s) in &other.0 {
            self.0.entry(*k).or_default().extend(s);
        }
    }

    pub fn envelope(&self) -> f64 {
        self.0.values().map(Samples::envelope).sum::<f64>() / self.0.len() as f64
    }

    /// Every sample, inputs pooled.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        self.0.values().for_each(|s| all.extend(s));
        all
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `setup` in batches of `batch` repetitions until `budget` has
/// passed and at least `min_batches` batches ran. Each sample is one
/// batch's time per repetition, in seconds, so a sample of a µs-scale
/// set-up spans many repetitions and stays well above timer and allocator
/// jitter. Returns the samples and the last repetition's product, which
/// the measured phase goes on to use.
pub fn repeat_setup<T>(
    batch: usize,
    min_batches: usize,
    budget: Duration,
    mut setup: impl FnMut() -> T,
) -> (Samples, T) {
    let start = Instant::now();
    let mut samples = Samples::default();
    loop {
        let t = Instant::now();
        let mut out = std::hint::black_box(setup());
        for _ in 1..batch {
            out = std::hint::black_box(setup());
        }
        samples.push(t.elapsed().as_secs_f64() / batch.max(1) as f64);
        if samples.len() >= min_batches && start.elapsed() >= budget {
            return (samples, out);
        }
    }
}

/// High-water resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// A memory field of `/proc/self/status` (`VmHWM`, `RssAnon`, ...) in MB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimation_keeps_an_even_subset_and_counts_every_sample() {
        let mut s = Samples::default();
        let n = 5 * KEEP as u64;
        for i in 0..n {
            s.push((n - i) as f64);
        }
        assert_eq!(s.len() as u64, n);
        assert!(s.values().len() <= KEEP && s.values().len() >= KEEP / 2);
        // The stride is 8 after three halvings; the kept set is every 8th.
        assert!(s.values().windows(2).all(|w| w[0] - w[1] == 8.0));
        let p = s.envelope();
        assert!(p <= 0.002 * n as f64, "{p}");
    }
}
