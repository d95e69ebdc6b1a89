//! Order statistics and small helpers shared by every workload.

/// A nearest-rank percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q * n)`.
    pub value: f64,
    /// Samples strictly after that rank. A tail percentile is trustworthy
    /// only with at least [`MIN_BEYOND`] of them.
    pub beyond: usize,
}

/// Samples a tail percentile needs beyond it before it is reported as
/// resolved rather than as an estimate.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) for `q` in `0..=1`.
/// Returns `None` for an empty input.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((n as f64 * q.clamp(0.0, 1.0)).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// Median (nearest rank, lower middle for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// Per-round latency percentiles: `(p50, p99, samples beyond p99)` of one
/// round's samples (zeros for none).
pub fn round_latency(samples: &[f64]) -> (f64, f64, usize) {
    match (percentile(samples, 0.5), percentile(samples, 0.99)) {
        (Some(p50), Some(p99)) => (p50.value, p99.value, p99.beyond),
        _ => (0.0, 0.0, 0),
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

/// Classifies closed-loop calls by whether a monotone counter advanced
/// while each was outstanding. `readings[0]` is the counter before the
/// first call and `readings[i]` the value read right after call `i`, so the
/// result has one entry per call.
///
/// With one caller, a call is charged when the counter moved between the
/// end of the previous call and its own end: work the server finished in
/// that gap (here, a checkpoint append after the previous reply went out)
/// is work the call waited behind.
pub fn advanced_during(readings: &[u64]) -> Vec<bool> {
    readings.windows(2).map(|w| w[1] > w[0]).collect()
}

/// 64-bit FNV-1a, folded one `u64` at a time.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `v` (little-endian bytes) into the hash.
    pub fn add(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds a string's bytes and its length into the hash.
    pub fn add_str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self.add(s.len() as u64)
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_input_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample_with_nothing_beyond() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(
                percentile(&[7.5], q),
                Some(Percentile {
                    value: 7.5,
                    beyond: 0
                })
            );
        }
    }

    #[test]
    fn tail_percentile_reports_fewer_than_ten_beyond() {
        // 100 samples: p99 is rank 99, leaving one sample beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!(
            p99,
            Percentile {
                value: 99.0,
                beyond: 1
            }
        );
        assert!(p99.beyond < MIN_BEYOND);
        // 1000 samples leave exactly ten beyond p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!(
            p99,
            Percentile {
                value: 990.0,
                beyond: 10
            }
        );
        assert_eq!(median(&xs), 500.0);
    }

    #[test]
    fn classifier_charges_calls_whose_counter_advanced() {
        // Counter before call 0, then after each of six calls; a checkpoint
        // lands during calls 1 and 4, two land during call 5.
        let readings = [3, 3, 4, 4, 4, 5, 7];
        assert_eq!(
            advanced_during(&readings),
            vec![false, true, false, false, true, true]
        );
        assert!(advanced_during(&[9]).is_empty());
        assert!(advanced_during(&[]).is_empty());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = Fnv::default().add(1).add(2).finish();
        let b = Fnv::default().add(2).add(1).finish();
        assert_ne!(a, b);
        assert_ne!(
            Fnv::default().add_str("ab").finish(),
            Fnv::default().add_str("ba").finish()
        );
    }
}
