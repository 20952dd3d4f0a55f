//! Order statistics over timing samples. Percentiles are nearest-rank,
//! through `simkit::Cdf` — the rule the repo's own reports use.

use simkit::Cdf;

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One window of a run: the work it completed, how long it took, and
/// the latencies sampled in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub work: f64,
    pub seconds: f64,
    pub latencies_ms: Vec<f64>,
}

/// A run's figures, each read from the window that was best for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    pub rate_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Latency samples in the smallest window.
    pub samples: usize,
}

/// Best-of-windows: the highest rate of work, the lowest median
/// latency and the lowest p99 latency any one window showed.
///
/// The measuring box is a small shared VM: for seconds at a time
/// everything on it runs up to 1.5× slower, for reasons outside the
/// process. Such interference only ever makes a window worse, so each
/// figure's best window is the one that saw least of it, and repeats
/// from run to run where a whole-run mean or median does not.
pub fn quietest(windows: &[Window]) -> Option<Quiet> {
    let mut quiet: Option<Quiet> = None;
    for w in windows.iter().filter(|w| w.seconds > 0.0) {
        let lat = Cdf::from_samples(w.latencies_ms.clone());
        let (Some(p50), Some(p99)) = (lat.median(), lat.quantile(0.99)) else {
            continue;
        };
        let rate = w.work / w.seconds;
        quiet = Some(match quiet {
            None => Quiet {
                rate_per_s: rate,
                p50_ms: p50,
                p99_ms: p99,
                samples: lat.len(),
            },
            Some(q) => Quiet {
                rate_per_s: q.rate_per_s.max(rate),
                p50_ms: q.p50_ms.min(p50),
                p99_ms: q.p99_ms.min(p99),
                samples: q.samples.min(lat.len()),
            },
        });
    }
    quiet
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it — the sample-count rule every printed tail
/// figure is checked against (p99 needs 1000 samples).
pub fn supported_tail(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Relative distance between two readings of one metric, as a share
/// of their mean — what `--selfcheck` compares with the bound.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let cdf = |n: u32| Cdf::from_samples((1..=n).map(f64::from).collect());
        assert_eq!(cdf(100).quantile(0.5), Some(50.0));
        assert_eq!(cdf(100).quantile(0.99), Some(99.0));
        assert_eq!(cdf(3).quantile(0.99), Some(3.0), "small n: the max");
        assert_eq!(cdf(4).median(), Some(2.0));
        assert_eq!(cdf(0).median(), None);
    }

    #[test]
    fn each_figure_comes_from_its_best_window() {
        let window = |work, seconds, lat: &[f64]| Window {
            work,
            seconds,
            latencies_ms: lat.to_vec(),
        };
        let q = quietest(&[
            window(100.0, 2.0, &[4.0, 9.0, 30.0]),
            window(180.0, 2.0, &[5.0, 6.0, 7.0, 8.0]),
            window(0.0, 2.0, &[]),
        ])
        .unwrap();
        assert_eq!(
            (q.rate_per_s, q.p50_ms, q.p99_ms, q.samples),
            (90.0, 6.0, 8.0, 3)
        );
        assert_eq!(quietest(&[window(0.0, 2.0, &[])]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.9);
        assert_eq!(supported_tail(99), 0.5);
    }

    #[test]
    fn relative_difference_is_symmetric() {
        assert_eq!(rel_diff(90.0, 110.0), 0.2);
        assert_eq!(rel_diff(110.0, 90.0), 0.2);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
