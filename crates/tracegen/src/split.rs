//! Group-indexed views over a trace's arrival stream.
//!
//! The fleet runner simulates each virtual array on its own: a VA owns a
//! contiguous span of logical disks and must consume exactly the arrivals
//! addressed to it, in global trace order, without scanning the arrivals
//! it does not own. [`Trace::split_arrivals`] computes that view once, up
//! front: for every group, the (sorted, therefore order-preserving) list
//! of indices into `trace.records` whose record the group owns.
//!
//! The split is a *view* — indices, not copied records — so the parsed
//! trace itself stays shared and immutable behind a borrow or `Arc`.

use crate::record::{Trace, TraceRecord};

/// Per-group index lists produced by [`Trace::split_arrivals`]: `groups[g]`
/// holds the indices of every record assigned to group `g`, ascending.
///
/// Invariant (property-tested): the lists are pairwise disjoint and their
/// union is exactly `0..trace.len()` — no record is lost, duplicated, or
/// reordered relative to the global stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSplit {
    groups: Vec<Vec<u32>>,
}

impl ArrivalSplit {
    /// Index list for one group, ascending trace order.
    #[inline]
    pub fn group(&self, g: usize) -> &[u32] {
        &self.groups[g]
    }

    /// Number of groups the trace was split into.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Move one group's index list out (leaves it empty) — lets each
    /// group's consumer take ownership of its own list without cloning.
    #[inline]
    pub fn take_group(&mut self, g: usize) -> Vec<u32> {
        std::mem::take(&mut self.groups[g])
    }

    /// Per-group record counts, in group order.
    pub fn counts(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }
}

impl Trace {
    /// Split the arrival stream into `n_groups` disjoint, order-preserving
    /// index lists using `group_of` to assign each record to a group.
    ///
    /// `group_of` must return a value `< n_groups` for every record; out of
    /// range is a caller bug and panics. A single forward pass, so the
    /// per-group lists are ascending by construction and the concatenation
    /// of all lists sorted by index reproduces `0..len` exactly.
    pub fn split_arrivals<F>(&self, n_groups: usize, mut group_of: F) -> ArrivalSplit
    where
        F: FnMut(&TraceRecord) -> usize,
    {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_groups];
        // Records spread roughly evenly; reserving the mean avoids most
        // regrowth without overcommitting on skewed groupings.
        if let Some(per) = self.records.len().checked_div(n_groups) {
            for g in &mut groups {
                g.reserve(per + 1);
            }
        }
        for (i, r) in self.records.iter().enumerate() {
            let g = group_of(r);
            assert!(
                g < n_groups,
                "group_of returned {g} for n_groups {n_groups}"
            );
            groups[g].push(i as u32);
        }
        ArrivalSplit { groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessType;
    use simkit::SimTime;

    fn toy_trace(n_disks: u32, n_records: usize) -> Trace {
        let mut t = Trace::new(n_disks, 1_000);
        for i in 0..n_records {
            t.records.push(TraceRecord {
                at: SimTime::from_ns(i as u64 * 17),
                // Deterministic pseudo-scatter across disks.
                disk: ((i as u32).wrapping_mul(2_654_435_761)) % n_disks,
                block: (i as u64 * 37) % 1_000,
                nblocks: 1 + (i as u32 % 4),
                kind: if i % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
            });
        }
        t
    }

    /// The split is an exact partition: disjoint, exhaustive, ascending.
    #[test]
    fn split_partitions_exactly() {
        let t = toy_trace(12, 500);
        let split = t.split_arrivals(5, |r| (r.disk as usize) % 5);
        assert_eq!(split.n_groups(), 5);
        let mut all: Vec<u32> = Vec::new();
        for g in 0..5 {
            let idx = split.group(g);
            assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "group {g} not ascending"
            );
            assert!(idx
                .iter()
                .all(|&i| (t.records[i as usize].disk as usize) % 5 == g));
            all.extend_from_slice(idx);
        }
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn single_group_gets_everything_in_order() {
        let t = toy_trace(3, 40);
        let mut split = t.split_arrivals(1, |_| 0);
        assert_eq!(split.take_group(0), (0..40).collect::<Vec<u32>>());
        assert!(
            split.group(0).is_empty(),
            "take_group leaves the list empty"
        );
    }

    #[test]
    fn empty_trace_splits_into_empty_groups() {
        let t = Trace::new(4, 100);
        let split = t.split_arrivals(3, |r| r.disk as usize % 3);
        assert_eq!(split.counts(), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "group_of returned")]
    fn out_of_range_group_panics() {
        let t = toy_trace(4, 4);
        let _ = t.split_arrivals(2, |r| r.disk as usize);
    }
}
