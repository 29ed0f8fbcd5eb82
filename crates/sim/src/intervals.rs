//! Interval-set algebra over simulated time.
//!
//! Used to turn raw task `(start, end)` records into union busy intervals,
//! exposed-time breakdowns (time where one category blocks all others), and
//! bucketed utilization timelines.

use crate::time::{SimDuration, SimTime};

/// A set of disjoint, sorted, half-open intervals `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    spans: Vec<(SimTime, SimTime)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted) intervals; empty intervals are dropped.
    pub fn from_spans(mut spans: Vec<(SimTime, SimTime)>) -> Self {
        spans.retain(|&(s, e)| e > s);
        spans.sort_unstable();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        IntervalSet { spans: merged }
    }

    /// The disjoint spans, sorted ascending.
    pub fn spans(&self) -> &[(SimTime, SimTime)] {
        &self.spans
    }

    /// Total covered duration.
    pub fn measure(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &(s, e) in &self.spans {
            total += e - s;
        }
        total
    }

    /// Union of two sets.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.spans.clone();
        all.extend_from_slice(&other.spans);
        IntervalSet::from_spans(all)
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &(mut s, e) in &self.spans {
            // Skip subtrahend spans entirely before s.
            while j < other.spans.len() && other.spans[j].1 <= s {
                j += 1;
            }
            let mut k = j;
            while k < other.spans.len() && other.spans[k].0 < e {
                let (os, oe) = other.spans[k];
                if os > s {
                    out.push((s, os.min(e)));
                }
                s = s.max(oe);
                if s >= e {
                    break;
                }
                k += 1;
            }
            if s < e {
                out.push((s, e));
            }
        }
        IntervalSet { spans: out }
    }

    /// Intersection of two sets.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.spans.len() && j < other.spans.len() {
            let (a_s, a_e) = self.spans[i];
            let (b_s, b_e) = other.spans[j];
            let s = a_s.max(b_s);
            let e = a_e.min(b_e);
            if s < e {
                out.push((s, e));
            }
            if a_e <= b_e {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { spans: out }
    }

    /// Duration of overlap with the bucket `[bucket_start, bucket_end)`.
    pub fn overlap_with(&self, bucket_start: SimTime, bucket_end: SimTime) -> SimDuration {
        // Binary search to the first span that could overlap.
        let start_idx = self.spans.partition_point(|&(_, e)| e <= bucket_start);
        let mut total = SimDuration::ZERO;
        for &(s, e) in &self.spans[start_idx..] {
            if s >= bucket_end {
                break;
            }
            let lo = s.max(bucket_start);
            let hi = e.min(bucket_end);
            if hi > lo {
                total += hi - lo;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_spans(
            spans
                .iter()
                .map(|&(s, e)| (SimTime(s), SimTime(e)))
                .collect(),
        )
    }

    #[test]
    fn from_spans_merges_and_sorts() {
        let s = set(&[(5, 10), (0, 3), (2, 6), (20, 20)]);
        assert_eq!(s.spans(), &[(SimTime(0), SimTime(10))]);
        assert_eq!(s.measure(), SimDuration(10));
    }

    #[test]
    fn adjacent_spans_merge() {
        let s = set(&[(0, 5), (5, 10)]);
        assert_eq!(s.spans().len(), 1);
        assert_eq!(s.measure(), SimDuration(10));
    }

    #[test]
    fn union_covers_both() {
        let a = set(&[(0, 5)]);
        let b = set(&[(3, 8), (10, 12)]);
        let u = a.union(&b);
        assert_eq!(
            u.spans(),
            &[(SimTime(0), SimTime(8)), (SimTime(10), SimTime(12))]
        );
    }

    #[test]
    fn subtract_carves_holes() {
        let a = set(&[(0, 10)]);
        let b = set(&[(2, 4), (6, 8)]);
        let d = a.subtract(&b);
        assert_eq!(
            d.spans(),
            &[
                (SimTime(0), SimTime(2)),
                (SimTime(4), SimTime(6)),
                (SimTime(8), SimTime(10))
            ]
        );
        assert_eq!(d.measure(), SimDuration(6));
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let a = set(&[(0, 5)]);
        let b = set(&[(10, 20)]);
        assert_eq!(a.subtract(&b), a);
    }

    #[test]
    fn subtract_superset_is_empty() {
        let a = set(&[(2, 4)]);
        let b = set(&[(0, 10)]);
        assert!(a.subtract(&b).spans().is_empty());
    }

    #[test]
    fn intersect_finds_overlap() {
        let a = set(&[(0, 5), (8, 12)]);
        let b = set(&[(3, 9)]);
        let i = a.intersect(&b);
        assert_eq!(
            i.spans(),
            &[(SimTime(3), SimTime(5)), (SimTime(8), SimTime(9))]
        );
    }

    #[test]
    fn overlap_with_bucket() {
        let a = set(&[(0, 5), (8, 12)]);
        assert_eq!(a.overlap_with(SimTime(4), SimTime(10)), SimDuration(3));
        assert_eq!(a.overlap_with(SimTime(5), SimTime(8)), SimDuration::ZERO);
        assert_eq!(a.overlap_with(SimTime(0), SimTime(20)), SimDuration(9));
    }

    #[test]
    fn measure_of_empty_is_zero() {
        assert_eq!(IntervalSet::new().measure(), SimDuration::ZERO);
        assert!(IntervalSet::new().spans().is_empty());
    }
}
