//! Percentile summaries for timing samples.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, together with
//! the sample count, so a tail figure is never read off a handful of
//! samples. The gated figures are medians over time windows
//! ([`Windowed`]), so one bad second on a shared host moves one window,
//! not the figure.

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 75.0];

/// A summary of one timing's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order). Returns `None` when empty.
    pub fn new(mut samples: Vec<f64>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Summary {
            n: samples.len(),
            sorted: samples,
        })
    }

    /// Nearest-rank percentile `p` (0 < p <= 100).
    pub fn at(&self, p: f64) -> f64 {
        self.sorted[rank(self.n, p).clamp(1, self.n) - 1]
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.at(50.0)
    }

    /// The highest tail percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, or `None` when there are too few samples for any.
    pub fn tail_pct(&self) -> Option<f64> {
        TAILS.into_iter().find(|&p| beyond(self.n, p) >= MIN_BEYOND)
    }

    /// The value at `min(p, tail_pct())`: a named tail figure such as p99
    /// falls back to a lower percentile when the sample is too small to
    /// support it. With no supported tail at all it is the maximum.
    pub fn tail_at_most(&self, p: f64) -> (f64, f64) {
        match self.tail_pct() {
            Some(t) => {
                let q = t.min(p);
                (q, self.at(q))
            }
            None => (100.0, self.sorted[self.n - 1]),
        }
    }

    /// One-line rendering: `p50=… p99=… (n=…)` with the highest
    /// supported tail.
    pub fn render(&self, unit: &str) -> String {
        match self.tail_pct() {
            Some(t) => format!(
                "p50={:.4}{unit} p{t}={:.4}{unit} (n={})",
                self.p50(),
                self.at(t),
                self.n
            ),
            None => format!(
                "p50={:.4}{unit} max={:.4}{unit} (n={}, too few for a tail)",
                self.p50(),
                self.sorted[self.n - 1],
                self.n
            ),
        }
    }
}

/// Fewest samples in a window: enough for a p99 with ten beyond it.
pub const WINDOW_MIN: usize = 1_000;
/// Most windows a run's samples are cut into.
pub const WINDOWS_MAX: usize = 10;

/// A run's samples, in time order, cut into up to [`WINDOWS_MAX`]
/// consecutive windows of at least [`WINDOW_MIN`] samples (one window when
/// there are fewer), each summarised on its own.
pub struct Windowed {
    windows: Vec<Summary>,
}

impl Windowed {
    /// Cuts `samples` (in time order) into windows. `None` when empty.
    pub fn new(samples: &[f64]) -> Option<Windowed> {
        if samples.is_empty() {
            return None;
        }
        let count = (samples.len() / WINDOW_MIN).clamp(1, WINDOWS_MAX);
        let size = samples.len().div_ceil(count);
        Some(Windowed {
            windows: samples
                .chunks(size)
                .filter_map(|c| Summary::new(c.to_vec()))
                .collect(),
        })
    }

    /// Number of windows.
    pub fn count(&self) -> usize {
        self.windows.len()
    }

    /// The median over windows of `f(window)`.
    pub fn median_of(&self, f: impl Fn(&Summary) -> f64) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().map(f).collect();
        Summary::new(per_window).map_or(0.0, |s| s.p50())
    }

    /// The median over windows of each window's `tail_at_most(p)`, with
    /// the lowest percentile any window fell back to.
    pub fn tail_at_most(&self, p: f64) -> (f64, f64) {
        let used = self
            .windows
            .iter()
            .map(|w| w.tail_at_most(p).0)
            .fold(p, f64::min);
        (used, self.median_of(|w| w.tail_at_most(p).1))
    }
}

/// Nearest rank of percentile `p` among `n` samples; the epsilon keeps
/// `99.99% of 100000` from rounding up past 99990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Samples strictly beyond nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((1..=n).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(Summary::new(Vec::new()), None);
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(100);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.at(99.0), 99.0);
        assert_eq!(s.at(100.0), 100.0);
        assert_eq!(s.at(0.1), 1.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = Summary::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.p50(), 2.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(ramp(1000).tail_pct(), Some(99.0));
        assert_eq!(ramp(999).tail_pct(), Some(90.0));
        assert_eq!(ramp(10_000).tail_pct(), Some(99.9));
        assert_eq!(ramp(100_000).tail_pct(), Some(99.99));
        assert_eq!(ramp(100).tail_pct(), Some(90.0));
        assert_eq!(ramp(40).tail_pct(), Some(75.0));
        assert_eq!(ramp(39).tail_pct(), None);
    }

    #[test]
    fn named_tail_falls_back_when_unsupported() {
        assert_eq!(ramp(10_000).tail_at_most(99.0), (99.0, 9900.0));
        assert_eq!(ramp(100).tail_at_most(99.0), (90.0, 90.0));
        assert_eq!(ramp(5).tail_at_most(99.0), (100.0, 5.0));
    }

    #[test]
    fn windows_hold_at_least_a_thousand_samples() {
        let w = |n: usize| Windowed::new(&vec![1.0; n]).unwrap().count();
        assert!(Windowed::new(&[]).is_none());
        assert_eq!(w(500), 1);
        assert_eq!(w(2_500), 2);
        assert_eq!(w(20_000), 10);
        assert_eq!(w(1_000_000), 10);
    }

    #[test]
    fn one_bad_window_does_not_move_the_windowed_tail() {
        // Ten windows of 1..=1000; one has its top 5% replaced by spikes.
        let mut samples: Vec<f64> = (0..10).flat_map(|_| (1..=1000).map(f64::from)).collect();
        for v in &mut samples[3_950..4_000] {
            *v = 1e6;
        }
        let w = Windowed::new(&samples).unwrap();
        assert_eq!(w.tail_at_most(99.0), (99.0, 990.0));
        assert_eq!(w.median_of(Summary::p50), 500.0);
        assert_eq!(Summary::new(samples).unwrap().at(99.9), 1e6);
    }

    #[test]
    fn render_names_percentile_and_count() {
        assert_eq!(
            ramp(1000).render("ms"),
            "p50=500.0000ms p99=990.0000ms (n=1000)"
        );
        assert!(ramp(3).render("ms").contains("too few"));
    }
}
