//! Summary statistics for repeated measurements: median, quartiles, the
//! tail-percentile rule, and the geometric mean.
//!
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here matches
//! the one `benchmark/spread.py` computes from the recorded per-run values.

/// Median of `xs` (mean of the two middle values for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives
/// them (method "exclusive"). A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    match xs.len() {
        0 => (0.0, 0.0),
        1 => (xs[0], xs[0]),
        _ => {
            let v = sorted(xs);
            (exclusive_quantile(&v, 1, 4), exclusive_quantile(&v, 3, 4))
        }
    }
}

/// Percentiles the tail rule may report, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] with at least ten
/// samples beyond it, and its value (interpolated). With fewer than 20
/// samples no percentile qualifies and the median is reported, marked by
/// `qualified == false`.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let chosen = TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - 1 - position(p, n).floor() as usize >= TAIL_MIN_BEYOND);
    let v = sorted(xs);
    match chosen {
        Some(&p) => Tail {
            percentile: p,
            value: interpolated(&v, p),
            n: xs.len(),
            qualified: true,
        },
        None => Tail {
            percentile: 50.0,
            value: median(xs),
            n: xs.len(),
            qualified: false,
        },
    }
}

/// Result of the tail-percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when none qualified).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Whether ten samples lie beyond the percentile.
    pub qualified: bool,
}

/// Geometric mean of positive values; 0 when empty or when any value is
/// not positive (a failed or missing cell must not masquerade as 1x).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `statistics.quantiles` method "exclusive": position `k·(n+1)/q`,
/// 1-based, with the bracketing index clamped to the sample and the
/// value linearly inter- or extrapolated from it, exactly as Python does.
fn exclusive_quantile(v: &[f64], k: usize, q: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (k * m / q).clamp(1, n - 1);
    let delta = (k * m) as f64 - (j * q) as f64;
    (v[j - 1] * (q as f64 - delta) + v[j] * delta) / q as f64
}

/// 0-based position of percentile `p` among `n` sorted samples, linearly
/// interpolated between ranks (so the 50th percentile is the median).
/// The epsilon keeps `0.9 * 99` from rounding past index 89.
fn position(p: f64, n: usize) -> f64 {
    (p / 100.0 * (n.max(1) - 1) as f64 + 1e-9).min((n.max(1) - 1) as f64)
}

/// Percentile `p` of sorted `v`, interpolated between neighbouring ranks.
fn interpolated(v: &[f64], p: f64) -> f64 {
    let pos = position(p, v.len());
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: with two
        // samples Python extrapolates past both ends.
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let t = tail(&xs);
        assert!(t.qualified);
        assert_eq!(t.percentile, 90.0);
        assert!((t.value - 90.1).abs() < 1e-6, "{}", t.value);
        // 1000 samples: p99 leaves 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.0);
        // 20 samples: only the median leaves 10 beyond, and reads as the
        // median.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0);
        assert!((tail(&xs).value - median(&xs)).abs() < 1e-6);
        assert!(tail(&xs).qualified);
        // 19 samples: nothing qualifies; the median stands in.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&xs);
        assert!(!t.qualified);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.n, 19);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(
            geomean(&[2.0, 0.0]),
            0.0,
            "a zero speedup is a failed cell, not a value"
        );
    }
}
