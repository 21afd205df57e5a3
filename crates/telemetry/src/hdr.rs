//! Log-bucketed (HDR-style) histograms: the crate's one histogram
//! type, behind every serving latency quantile and every
//! [`crate::Registry`] histogram.
//!
//! A fixed-bucket histogram cannot produce a trustworthy tail
//! quantile: everything past its last edge collapses into one bucket.
//! [`LogHistogram`] instead covers the full `u64` range with
//! logarithmic octaves split into 32 sub-buckets each, bounding
//! relative error at one part in 32 (~3.1%) at any magnitude —
//! nanoseconds to hours, single pivots to millions — in a flat
//! 1920-slot array with O(1) recording and no allocation after
//! construction.
//!
//! [`HdrSnapshot`] is the mergeable, JSON-serialisable view: sparse
//! `[index, count]` pairs, so per-shard snapshots stay small and merge
//! by addition (the property that makes per-shard p99s composable into
//! a fleet p99, which mean-of-quantiles is not).

use gddr_ser::json_struct;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total buckets needed to cover all of `u64`.
const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_COUNT as usize;

/// Bucket index for `value`. Values below `2 * SUB_COUNT` map to
/// themselves (exact); above, each octave splits into [`SUB_COUNT`]
/// equal sub-ranges.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) & (SUB_COUNT - 1);
    (((msb - SUB_BITS + 1) as u64) * SUB_COUNT + sub) as usize
}

/// Inclusive `(lower, upper)` value bounds of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let octave = index as u64 / SUB_COUNT;
    let sub = index as u64 % SUB_COUNT;
    if octave <= 1 {
        // First two octaves are exact single-value buckets.
        (index as u64, index as u64)
    } else {
        let shift = (octave - 1) as u32;
        let lower = (SUB_COUNT + sub) << shift;
        (lower, lower + (1u64 << shift) - 1)
    }
}

/// Width of the bucket containing `value` — the acceptance tolerance
/// when comparing an HDR quantile against an exact one.
pub fn bucket_width(value: u64) -> u64 {
    let (lo, hi) = bucket_bounds(bucket_index(value));
    hi - lo + 1
}

/// A streaming log-bucketed histogram over `u64` observations
/// (latencies in nanoseconds, by convention).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding that rank — conservative, never under-reports.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_over(self.count, self.counts.iter().copied().enumerate(), q)
    }

    /// A sparse, mergeable snapshot of current state.
    pub fn snapshot(&self) -> HdrSnapshot {
        HdrSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (i as u64, *c))
                .collect(),
        }
    }

    /// Rebuilds a live histogram from a snapshot — the warm-restart
    /// path, so a restored shard's tail quantiles continue from where
    /// the crashed process left off instead of resetting to empty.
    ///
    /// Returns `None` when the snapshot is inconsistent (an index out
    /// of range, or bucket counts that do not sum to `count`): a
    /// CRC-intact but semantically-corrupt snapshot must degrade, not
    /// panic or mis-report.
    pub fn from_snapshot(snap: &HdrSnapshot) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        let mut total = 0u64;
        for &(index, c) in &snap.buckets {
            let slot = h.counts.get_mut(usize::try_from(index).ok()?)?;
            *slot = slot.checked_add(c)?;
            total = total.checked_add(c)?;
        }
        if total != snap.count {
            return None;
        }
        h.count = snap.count;
        h.sum = snap.sum;
        Some(h)
    }
}

/// Shared quantile walk: rank = ceil(q * count) clamped to `1..=count`
/// (the same convention as the bench's sorted-percentile helper).
fn quantile_over(count: u64, buckets: impl Iterator<Item = (usize, u64)>, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    let mut last = 0usize;
    for (index, c) in buckets {
        if c == 0 {
            continue;
        }
        cum += c;
        last = index;
        if cum >= rank {
            return bucket_bounds(index).1;
        }
    }
    bucket_bounds(last).1
}

json_struct! {
    /// A sparse snapshot of a [`LogHistogram`]: JSON-serialisable and
    /// mergeable across shards by bucket-count addition.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct HdrSnapshot {
        /// Total observations.
        pub count: u64,
        /// Sum of observations (saturating).
        pub sum: u64 as saturating,
        /// Sparse `(bucket index, count)` pairs, ascending by index.
        pub buckets: Vec<(u64, u64)>,
    }
}

/// The `sum` field. The sum saturates at `u64::MAX`, which JSON writes
/// as 2^64, so decoding clamps instead of rejecting values past 2^53.
mod saturating {
    use gddr_ser::{Json, JsonError, ToJson};

    pub fn to_json(sum: &u64) -> Json {
        sum.to_json()
    }

    pub fn from_json(json: &Json) -> Result<u64, JsonError> {
        match json {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as u64),
            other => Err(JsonError(format!(
                "expected a non-negative integer sum, got {other:?}"
            ))),
        }
    }
}

impl HdrSnapshot {
    /// Merges `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &HdrSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while a.peek().is_some() || b.peek().is_some() {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) if ia == ib => {
                    merged.push((ia, ca + cb));
                    a.next();
                    b.next();
                }
                (Some(&&(ia, ca)), Some(&&(ib, _))) if ia < ib => {
                    merged.push((ia, ca));
                    a.next();
                }
                (Some(_), Some(&&(ib, cb))) => {
                    merged.push((ib, cb));
                    b.next();
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }

    /// The `q`-quantile over the snapshot (see
    /// [`LogHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_over(
            self.count,
            self.buckets.iter().map(|&(i, c)| (i as usize, c)),
            q,
        )
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::{FromJson, Json, ToJson};

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        for v in 0..64u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v), "value {v} should be exact");
        }
    }

    #[test]
    fn bounds_are_consistent_everywhere() {
        // Every probed value must fall inside its own bucket's bounds,
        // and relative bucket width stays under 1/32 + epsilon.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo},{hi}]");
            if v >= 64 {
                assert!(
                    (hi - lo + 1) as f64 / lo as f64 <= 1.0 / 32.0 + 1e-9,
                    "bucket too wide at {v}"
                );
            }
            v = v.saturating_mul(3) / 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantiles_match_exact_within_one_bucket() {
        let mut h = LogHistogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| (i * 7919 + 13) % 1_000_000).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for &(q, _) in &[(0.5, ()), (0.9, ()), (0.99, ())] {
            let rank = ((values.len() as f64) * q).ceil() as usize;
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q{q}: est {est} under-reports exact {exact}");
            assert!(
                est - exact <= bucket_width(exact),
                "q{q}: est {est} more than one bucket above exact {exact}"
            );
        }
    }

    #[test]
    fn snapshots_merge_like_a_combined_histogram() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..500u64 {
            let v = i * 31 + 7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.quantile(0.99), all.quantile(0.99));
        assert!(merged.mean() > 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 31, 32, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        let text = snap.to_json().to_string();
        let back = HdrSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn from_snapshot_restores_a_live_histogram() {
        let mut h = LogHistogram::new();
        for v in [3, 40, 999, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut back = LogHistogram::from_snapshot(&snap).unwrap();
        assert_eq!(back.snapshot(), snap);
        // The restored histogram keeps recording seamlessly.
        back.record(50);
        assert_eq!(back.count(), h.count() + 1);
        assert!(back.quantile(0.99) >= h.quantile(0.99));
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_snapshots() {
        // Out-of-range bucket index.
        let bad = HdrSnapshot {
            count: 1,
            sum: 1,
            buckets: vec![(u64::MAX, 1)],
        };
        assert!(LogHistogram::from_snapshot(&bad).is_none());
        // Bucket counts disagreeing with the declared total.
        let bad = HdrSnapshot {
            count: 5,
            sum: 10,
            buckets: vec![(3, 2)],
        };
        assert!(LogHistogram::from_snapshot(&bad).is_none());
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }
}
