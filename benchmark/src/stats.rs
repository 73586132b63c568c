//! Order statistics over latency samples.

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Completions per second as the median over consecutive blocks of
/// `block` completions: each block's rate is `block` over the time from
/// the completion before it to its last. A stall of the box (a shared
/// host freezes a guest for seconds now and then) lengthens one block
/// and leaves the median alone, where a count over the whole window
/// would lose the stall's share. `done_s` is unsorted; a sample too
/// small for two blocks gives its count over `window_s`.
pub fn median_rate(done_s: &[f64], block: usize, window_s: f64) -> f64 {
    if done_s.len() <= 2 * block {
        return done_s.len() as f64 / window_s;
    }
    let mut t = done_s.to_vec();
    t.sort_by(f64::total_cmp);
    let rates: Vec<f64> = (block..t.len())
        .step_by(block)
        .map(|i| block as f64 / (t[i] - t[i - block]))
        .collect();
    median(&rates)
}

/// Percentiles a tail may be reported at, ascending, in hundredths of
/// a percent (integers, so that rank arithmetic is exact).
const TAIL_LADDER: [usize; 6] = [7500, 9000, 9500, 9900, 9990, 9999];

/// Nearest rank (1-based) of a ladder percentile among `samples`.
fn ladder_rank(samples: usize, hundredths: usize) -> usize {
    (samples * hundredths).div_ceil(10_000).max(1)
}

/// The highest ladder percentile that keeps at least ten samples beyond
/// it, or `None` when even the lowest does not (fewer than 40 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    supported(samples).map(|h| h as f64 / 100.0)
}

fn supported(samples: usize) -> Option<usize> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&h| samples >= ladder_rank(samples, h) + 10)
}

/// Tail of an unsorted sample: `(percentile used, value)`; `(0, 0)`
/// when the sample supports no tail percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match supported(values.len()) {
        Some(h) => {
            let mut v = values.to_vec();
            v.sort_by(f64::total_cmp);
            (h as f64 / 100.0, v[ladder_rank(v.len(), h) - 1])
        }
        None => (0.0, 0.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (its default, exclusive method). Needs two or more values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)) / med.abs()
}
