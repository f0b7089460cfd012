//! Order statistics of latency samples and per-segment rates.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples a tail value must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Consecutive samples per tail block (see [`tail`]).
pub const TAIL_BLOCK: usize = 256;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it (the 11th-largest sample; the largest with fewer than 11), taken in
/// blocks of [`TAIL_BLOCK`] consecutive samples, median over the blocks:
/// a rare stall of the machine moves one block's tail, not the median.
/// With fewer than two full blocks, one block holds every sample. Returns
/// the value, its percentile within a block, the block length and the
/// block count.
pub fn tail(values: &[f64]) -> (f64, f64, usize, usize) {
    let blocks: Vec<&[f64]> = if values.len() < 2 * TAIL_BLOCK {
        vec![values]
    } else {
        values.chunks_exact(TAIL_BLOCK).collect()
    };
    let tails: Vec<f64> = blocks.iter().map(|b| block_tail(b)).collect();
    let len = blocks[0].len();
    let pct = 100.0 * (tail_index(len) + 1) as f64 / len.max(1) as f64;
    (median(&tails), pct, len, blocks.len())
}

/// Index of the tail sample among `len` sorted samples.
fn tail_index(len: usize) -> usize {
    if len > TAIL_BEYOND {
        len - TAIL_BEYOND - 1
    } else {
        len.saturating_sub(1)
    }
}

fn block_tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(tail_index(v.len())).copied().unwrap_or(0.0)
}

/// Splits a timed phase into segments of at least `min` wall time and
/// records each segment's request rate and CPU time per request, so a
/// run can report medians that a transient stall of the machine does not
/// move. A partial last segment is dropped unless it is the only one.
#[derive(Debug)]
pub struct Segments {
    min: Duration,
    start: Instant,
    cpu0: f64,
    requests: u64,
    /// Requests per second of each closed segment.
    pub rates: Vec<f64>,
    /// CPU milliseconds per request of each closed segment.
    pub cpu_per_req: Vec<f64>,
}

impl Segments {
    /// Starts the first segment now.
    pub fn new(min: Duration) -> Segments {
        Segments {
            min,
            start: Instant::now(),
            cpu0: crate::procstat::cpu_ms(),
            requests: 0,
            rates: Vec::new(),
            cpu_per_req: Vec::new(),
        }
    }

    /// Counts `requests` completed; closes the segment once it has run
    /// for at least `min`.
    pub fn record(&mut self, requests: u64) {
        self.requests += requests;
        if self.start.elapsed() >= self.min {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.requests == 0 {
            return;
        }
        let cpu = crate::procstat::cpu_ms();
        self.rates
            .push(self.requests as f64 / self.start.elapsed().as_secs_f64());
        self.cpu_per_req
            .push((cpu - self.cpu0) / self.requests as f64);
        self.start = Instant::now();
        self.cpu0 = cpu;
        self.requests = 0;
    }

    /// The closed segments' count and rate range, for the run log.
    pub fn summary(&self) -> String {
        let lo = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.rates.iter().copied().fold(0.0, f64::max);
        format!(
            "{} segments at {lo:.1}..{hi:.1} requests/s",
            self.rates.len()
        )
    }

    /// Ends the timed phase: the median rate and the median CPU time per
    /// request over the segments.
    pub fn finish(mut self) -> (f64, f64) {
        if self.rates.is_empty() {
            self.close();
        }
        (median(&self.rates), median(&self.cpu_per_req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th.
        assert_eq!(tail(&v), (90.0, 90.0, 100, 1));
        assert_eq!(tail(&[5.0, 1.0]).0, 5.0);
        // One stalled block does not move the median of three.
        let mut w: Vec<f64> = (0..3 * TAIL_BLOCK)
            .map(|i| (i % TAIL_BLOCK) as f64)
            .collect();
        w[..TAIL_BLOCK].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(tail(&w).0, (TAIL_BLOCK - TAIL_BEYOND - 1) as f64);
        assert_eq!(tail(&w).3, 3);
    }
}
