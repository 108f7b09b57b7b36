//! Order statistics over measured samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Consecutive slices a run's operations are cut into for the
/// noise-robust estimates below.
pub const SEGMENTS: usize = 20;

/// Samples a slice needs before its own p99 is reported (at least ten
/// beyond it).
pub const P99_SUPPORT: usize = 1000;

/// Quantile of the slices' times that a timing reports: the second
/// quietest of twenty.
pub const QUIET: f64 = 0.1;

/// The `q` quantile, over [`SEGMENTS`] consecutive equal-count slices of
/// `ordered`, of `f` applied to each slice ([`QUIET`] for times, its
/// complement for rates). Contention from other tenants of the host only
/// ever slows a slice down, so the quiet end of the slices tracks the
/// program's own cost while noisy stretches of the run move it by a rank
/// each.
pub fn quiet_slice<T>(ordered: &[T], q: f64, f: impl Fn(&[T]) -> f64) -> f64 {
    if ordered.len() < SEGMENTS {
        return f(ordered);
    }
    let per: Vec<f64> = (0..SEGMENTS)
        .map(|i| f(&ordered[i * ordered.len() / SEGMENTS..(i + 1) * ordered.len() / SEGMENTS]))
        .collect();
    quantile(&sorted(&per), q)
}

/// `(p50, p99)` of latencies given in operation order, each the quiet
/// end ([`QUIET`]) of the slices' values. p99 is taken per slice only when every
/// slice holds [`P99_SUPPORT`] samples; otherwise over the whole run.
pub fn robust_latency(ordered_ms: &[f64]) -> (f64, f64) {
    let q = |s: &[f64], p: f64| quantile(&sorted(s), p);
    let p50 = quiet_slice(ordered_ms, QUIET, |s| q(s, 0.5));
    let p99 = if ordered_ms.len() / SEGMENTS >= P99_SUPPORT {
        quiet_slice(ordered_ms, QUIET, |s| q(s, 0.99))
    } else {
        q(ordered_ms, 0.99)
    };
    (p50, p99)
}

/// Samples behind each p99 that [`robust_latency`] reports.
pub fn p99_samples(n: usize) -> usize {
    if n / SEGMENTS >= P99_SUPPORT {
        n / SEGMENTS
    } else {
        n
    }
}

/// Operations per second from completion times (seconds since the run
/// started, ascending): the quiet end ([`QUIET`]) of the slices' rates.
pub fn robust_rate(ends_s: &[f64]) -> f64 {
    if ends_s.is_empty() {
        return 0.0;
    }
    let slices = SEGMENTS.min(ends_s.len());
    let per = ends_s.len() / slices;
    let rates: Vec<f64> = (0..slices)
        .map(|i| {
            let start = if i == 0 { 0.0 } else { ends_s[i * per - 1] };
            per as f64 / (ends_s[(i + 1) * per - 1] - start).max(1e-9)
        })
        .collect();
    quantile(&sorted(&rates), 1.0 - QUIET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slow_slices_do_not_move_the_quiet_end() {
        // twenty slices of 1000 samples; the third and seventh are ten times slower
        let slow = |i: usize| (2000..3000).contains(&i) || (6000..7000).contains(&i);
        let ms: Vec<f64> = (0..20_000)
            .map(|i| {
                if slow(i) {
                    10.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                }
            })
            .collect();
        let (p50, p99) = robust_latency(&ms);
        assert_eq!(p50, 1.49);
        assert_eq!(p99, 1.98);
        assert_eq!(p99_samples(ms.len()), 1000);
        // too few samples per slice: p99 over the whole run
        let (_, p99) = robust_latency(&ms[..19_000]);
        assert_eq!(p99, 10.0);
        let mut ends: Vec<f64> = (1..=2000).map(|i| i as f64 / 100.0).collect();
        for e in ends.iter_mut().skip(250) {
            *e += 4.0; // a four-second stall inside the third slice
        }
        assert!((robust_rate(&ends) - 100.0).abs() < 1e-6);
    }
}
