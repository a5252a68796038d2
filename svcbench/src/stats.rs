//! The harness's own arithmetic: the percentile rule, medians, the
//! geometric mean, and the seeded generator every input is drawn from.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; fewer would make the tail one or two jobs.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile (`1..=99`) of ascending `sorted`
/// values, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// its rank (p50 needs 20 samples, p90 100, p99 1000).
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile rank out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of p99, p90, p75 and p50 that is at most `want` and has
/// enough samples beyond it, with its rank.
pub fn percentile_at_most(sorted: &[f64], want: usize) -> Option<(usize, f64)> {
    [99, 90, 75, 50]
        .into_iter()
        .filter(|&p| p <= want)
        .find_map(|p| percentile(sorted, p).map(|v| (p, v)))
}

/// `values` sorted ascending (total order, so NaN cannot scramble it).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values`; the mean of the two middle values for an even
/// count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Geometric mean, summing logarithms in input order so the result is
/// bit-identical for identical inputs. `None` when empty or when any
/// value is not finite and positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// SplitMix64: the harness's only random source. Every request, layer
/// pick, arrival time and repeat is drawn from it, so one seed gives one
/// input list on every machine.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted so different uses of one seed draw
    /// independent streams.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-high.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
