//! Sample statistics, the deterministic generator every workload draws its
//! inputs from, and the open-loop arrival schedule.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of all samples at or below it.
/// `None` for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Median and p90 of a latency sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        Some(Self {
            n: samples.len(),
            p50: percentile(samples, 0.5)?,
            p90: percentile(samples, 0.9)?,
        })
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64: a small, seedable generator.  Every input the benchmark
/// generates (queries, arrivals, mutation batches) comes from one of these,
/// so the same seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, split by `stream` so independent input
    /// families drawn from one workload seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (offsets from the start) of a Poisson arrival process at
/// `rate` requests per second over `duration`: exponential inter-arrival
/// gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 0.9), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn summary_reports_count_median_and_p90() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let summary = Summary::of(&samples).unwrap();
        assert_eq!((summary.n, summary.p50, summary.p90), (10, 5.0, 9.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let window = Duration::from_secs(30);
        let a = poisson_schedule(&mut Rng::new(7, 1), 20.0, window);
        let b = poisson_schedule(&mut Rng::new(7, 1), 20.0, window);
        let c = poisson_schedule(&mut Rng::new(8, 1), 20.0, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t < window));
    }

    #[test]
    fn schedule_has_the_requested_rate() {
        let window = Duration::from_secs(200);
        let due = poisson_schedule(&mut Rng::new(3, 1), 20.0, window);
        let rate = due.len() as f64 / window.as_secs_f64();
        assert!((rate - 20.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_eq!(Rng::new(1, 1).next_u64(), Rng::new(1, 1).next_u64());
        assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(1, 2).next_u64());
        let mut rng = Rng::new(5, 0);
        assert!((0..1000).all(|_| rng.below(10) < 10 && (0.0..1.0).contains(&rng.unit())));
    }
}
