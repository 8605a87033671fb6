//! Order statistics used by every workload.
//!
//! Timings are summarised by their median and by one tail percentile.
//! The tail is the highest percentile (at most the 95th) that still has
//! at least [`TAIL_MIN_BEYOND`] samples above it, so a tail figure never
//! rests on a handful of outliers; the sample count travels with it.
//! With too few samples for any such percentile the tail is the median.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank value at 1-based `rank` of an ascending slice.
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (95 when there are ≥ 200 samples).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile up to the 95th with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, never below the rank just
/// above the middle. With [`TAIL_MIN_BEYOND`] samples or fewer no tail
/// can be resolved and the median is returned as the 50th percentile.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            pct: 50.0,
            value: median(samples),
            n,
        };
    }
    let p95_rank = (95 * n).div_ceil(100);
    let rank = p95_rank
        .min(n.saturating_sub(TAIL_MIN_BEYOND))
        .max(n / 2 + 1);
    Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: at_rank(&v, rank),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p95_once_ten_samples_lie_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.n, 200);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0, "rank 90 leaves exactly ten beyond");
        assert_eq!(t.pct, 90.0);
        let xs: Vec<f64> = (1..=62).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 52.0);
        assert!((t.pct - 100.0 * 52.0 / 62.0).abs() < 1e-12);
    }

    #[test]
    fn tail_never_drops_below_the_middle_rank() {
        let t = tail(&[
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
        ]);
        assert_eq!(t.value, 7.0, "12 samples: above the middle, not rank 2");
    }

    #[test]
    fn too_few_samples_give_the_median() {
        let t = tail(&[1.0, 3.0]);
        assert_eq!((t.pct, t.value, t.n), (50.0, 2.0, 2));
        assert_eq!(tail(&[5.0]).value, 5.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten).value, 5.5);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..300).map(|i| ((i * 7919) % 300) as f64).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(tail(&xs), a);
    }
}
