//! RAID5 (rotated parity) and RAID4 (dedicated parity disk) mapping.

use super::{push_merged, Run, StripeMode, StripeWrite, WritePlan};

/// Striped mapping over `n + 1` disks with parity either rotated
/// (left-symmetric RAID5) or pinned to disk `n` (RAID4).
///
/// Stripe `s` holds `n` data units of `su` blocks plus one parity unit; the
/// physical block of any unit of stripe `s` is `s·su + off`, so every disk
/// contributes exactly one unit per stripe and carries `blocks_per_disk`
/// physical blocks total — the `(N+1)/N` capacity overhead of Section 3.2.
#[derive(Clone, Debug)]
pub struct RaidMap {
    pub n: u32,
    pub blocks_per_disk: u64,
    pub su: u32,
    pub rotated: bool,
    /// Whole stripes per disk; a striping unit that does not divide the
    /// disk leaves a sliver (< su blocks) unused at the inner edge.
    pub stripes: u64,
}

impl RaidMap {
    pub fn new(n: u32, blocks_per_disk: u64, striping_unit: u32, rotated: bool) -> RaidMap {
        assert!(striping_unit >= 1);
        let stripes = blocks_per_disk / striping_unit as u64;
        assert!(stripes > 0, "striping unit larger than the disk");
        RaidMap {
            n,
            blocks_per_disk,
            su: striping_unit,
            rotated,
            stripes,
        }
    }

    /// Logical blocks the array can hold (`n` data units per stripe).
    pub fn logical_capacity(&self) -> u64 {
        self.n as u64 * self.stripes * self.su as u64
    }

    #[inline]
    fn stripe_data_blocks(&self) -> u64 {
        self.n as u64 * self.su as u64
    }

    /// Parity disk of stripe `s`.
    #[inline]
    pub fn parity_disk(&self, s: u64) -> u32 {
        if self.rotated {
            self.n - (s % (self.n as u64 + 1)) as u32
        } else {
            self.n
        }
    }

    /// Physical disk of data unit `u` in stripe `s` (left-symmetric layout:
    /// unit 0 sits just after the parity disk, wrapping around).
    #[inline]
    pub fn data_disk(&self, s: u64, u: u32) -> u32 {
        if self.rotated {
            (self.parity_disk(s) + 1 + u) % (self.n + 1)
        } else {
            u
        }
    }

    /// Map one logical array address to (disk, physical block).
    #[inline]
    pub fn locate(&self, laddr: u64) -> (u32, u64) {
        debug_assert!(laddr < self.logical_capacity());
        let s = laddr / self.stripe_data_blocks();
        let w = laddr % self.stripe_data_blocks();
        let u = (w / self.su as u64) as u32;
        let off = w % self.su as u64;
        (self.data_disk(s, u), s * self.su as u64 + off)
    }

    /// Physical data runs of `[laddr, laddr + n)`.
    pub fn data_runs(&self, laddr: u64, n: u32) -> Vec<Run> {
        let mut runs = Vec::with_capacity(2);
        for a in laddr..laddr + n as u64 {
            let (disk, block) = self.locate(a);
            push_merged(&mut runs, disk, block);
        }
        runs
    }

    /// Decompose a write into per-stripe work (Section 2.1's small-write
    /// rule plus the full-stripe and reconstruct fast paths of Section 3.3).
    pub fn write_plan(&self, laddr: u64, n: u32) -> WritePlan {
        let sdb = self.stripe_data_blocks();
        let mut plan = WritePlan::default();
        let end = laddr + n as u64;
        let mut a = laddr;
        while a < end {
            let s = a / sdb;
            let stripe_end = (s + 1) * sdb;
            let chunk_end = end.min(stripe_end);
            plan.stripes.push(self.stripe_write(s, a, chunk_end));
            a = chunk_end;
        }
        plan
    }

    /// Build the stripe-`s` share covering logical `[from, to)` (within the
    /// stripe).
    fn stripe_write(&self, s: u64, from: u64, to: u64) -> StripeWrite {
        let sdb = self.stripe_data_blocks();
        let su = self.su as u64;
        let covered = to - from;
        let mode = if covered == sdb {
            StripeMode::Full
        } else if covered > sdb / 2 {
            StripeMode::Reconstruct
        } else {
            StripeMode::Rmw
        };

        let mut data = Vec::with_capacity(2);
        // Offsets within the striping unit touched by any covered unit.
        let mut off_covered = vec![false; self.su as usize];
        // (unit, off) coverage for reconstruct's complement computation.
        let mut unit_off = vec![false; (self.n as usize) * self.su as usize];
        for a in from..to {
            let (disk, block) = self.locate(a);
            push_merged(&mut data, disk, block);
            let w = a % sdb;
            let u = (w / su) as usize;
            let off = (w % su) as usize;
            off_covered[off] = true;
            unit_off[u * self.su as usize + off] = true;
        }

        let pdisk = self.parity_disk(s);
        let mut parity = Vec::with_capacity(1);
        match mode {
            StripeMode::Full => {
                parity.push(Run {
                    disk: pdisk,
                    block: s * su,
                    nblocks: self.su,
                });
            }
            _ => {
                for (off, &cov) in off_covered.iter().enumerate() {
                    if cov {
                        push_merged(&mut parity, pdisk, s * su + off as u64);
                    }
                }
            }
        }

        let mut extra_reads = Vec::new();
        if mode == StripeMode::Reconstruct {
            // Read every uncovered block at a parity-affected offset.
            for u in 0..self.n {
                let disk = self.data_disk(s, u);
                for (off, &cov) in off_covered.iter().enumerate() {
                    if cov && !unit_off[u as usize * self.su as usize + off] {
                        push_merged(&mut extra_reads, disk, s * su + off as u64);
                    }
                }
            }
        }

        StripeWrite {
            mode,
            data,
            extra_reads,
            parity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn raid5(n: u32, su: u32) -> RaidMap {
        RaidMap::new(n, 240, su, true)
    }

    #[test]
    fn parity_rotates_over_all_disks() {
        let m = raid5(4, 1);
        let pdisks: Vec<u32> = (0..5).map(|s| m.parity_disk(s)).collect();
        assert_eq!(pdisks, vec![4, 3, 2, 1, 0]);
        assert_eq!(m.parity_disk(5), 4, "period N+1");
    }

    #[test]
    fn raid4_parity_is_pinned() {
        let m = RaidMap::new(4, 240, 1, false);
        for s in 0..10 {
            assert_eq!(m.parity_disk(s), 4);
            for u in 0..4 {
                assert_eq!(m.data_disk(s, u), u);
            }
        }
    }

    #[test]
    fn left_symmetric_unit_placement() {
        let m = raid5(4, 1);
        // Stripe 0: parity on disk 4, units on 0,1,2,3.
        assert_eq!(
            (0..4).map(|u| m.data_disk(0, u)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Stripe 1: parity on disk 3, units wrap 4,0,1,2.
        assert_eq!(
            (0..4).map(|u| m.data_disk(1, u)).collect::<Vec<_>>(),
            vec![4, 0, 1, 2]
        );
    }

    #[test]
    fn locate_is_injective_and_avoids_parity() {
        let m = raid5(4, 2);
        let mut seen = std::collections::BTreeSet::new();
        for laddr in 0..4 * 240u64 {
            let (disk, block) = m.locate(laddr);
            assert!(seen.insert((disk, block)), "collision at laddr {laddr}");
            let s = block / 2;
            assert_ne!(disk, m.parity_disk(s), "data on parity disk");
            assert!(block < 240);
        }
    }

    #[test]
    fn single_block_write_is_rmw_with_one_parity_block() {
        let m = raid5(10, 1);
        let plan = m.write_plan(37, 1);
        assert_eq!(plan.stripes.len(), 1);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Rmw);
        assert_eq!(s.data.len(), 1);
        assert_eq!(s.data[0].nblocks, 1);
        assert_eq!(s.parity.len(), 1);
        assert_eq!(s.parity[0].nblocks, 1);
        // Stripe 3 (37/10): parity block 3 on the stripe's parity disk.
        assert_eq!(s.parity[0].block, 3);
        assert_eq!(s.parity[0].disk, m.parity_disk(3));
        assert!(s.extra_reads.is_empty());
    }

    #[test]
    fn full_stripe_write_needs_no_reads() {
        let m = raid5(4, 2);
        let plan = m.write_plan(16, 8); // stripe 2 exactly (8 data blocks)
        assert_eq!(plan.stripes.len(), 1);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Full);
        assert!(s.extra_reads.is_empty());
        assert_eq!(
            s.parity,
            vec![Run {
                disk: m.parity_disk(2),
                block: 4,
                nblocks: 2
            }]
        );
        let total: u32 = s.data.iter().map(|r| r.nblocks).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn majority_write_reconstructs() {
        let m = raid5(4, 1);
        // Stripe 0 holds laddr 0..4; write 3 of 4 blocks.
        let plan = m.write_plan(0, 3);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Reconstruct);
        // The single uncovered unit must be read.
        assert_eq!(s.extra_reads.len(), 1);
        assert_eq!(
            s.extra_reads[0],
            Run {
                disk: m.data_disk(0, 3),
                block: 0,
                nblocks: 1
            }
        );
        assert_eq!(s.parity.len(), 1);
    }

    #[test]
    fn exactly_half_write_uses_rmw() {
        let m = raid5(4, 1);
        let plan = m.write_plan(0, 2); // half of 4: "less than half" rule ⇒ RMW
        assert_eq!(plan.stripes[0].mode, StripeMode::Rmw);
    }

    #[test]
    fn multi_stripe_write_splits_per_stripe() {
        let m = raid5(4, 1);
        let plan = m.write_plan(2, 6); // stripe 0 blocks 2..4, stripe 1 blocks 4..8
        assert_eq!(plan.stripes.len(), 2);
        assert_eq!(plan.stripes[0].mode, StripeMode::Rmw);
        assert_eq!(plan.stripes[1].mode, StripeMode::Full);
    }

    #[test]
    fn large_striping_unit_keeps_small_requests_on_one_disk() {
        // The paper's point: with a multi-block striping unit, most small
        // requests are serviced by a single disk.
        let m = raid5(10, 8);
        for laddr in [0u64, 5, 13, 77, 400] {
            let runs = m.data_runs(laddr, 2);
            if laddr % 8 <= 6 {
                assert_eq!(runs.len(), 1, "2-block read split at laddr {laddr}");
            }
        }
    }

    proptest! {
        /// Every write plan covers exactly the written blocks, parity lands
        /// only on the stripe's parity disk, and reconstruct reads never
        /// overlap written data.
        #[test]
        fn prop_write_plan_consistency(
            n in 2u32..12,
            su in proptest::sample::select(vec![1u32, 2, 4, 8]),
            laddr in 0u64..2000,
            len in 1u32..64,
        ) {
            let m = RaidMap::new(n, 7200, su, true);
            prop_assume!(laddr + len as u64 <= n as u64 * 7200);
            let plan = m.write_plan(laddr, len);
            let total: u32 = plan
                .stripes
                .iter()
                .flat_map(|s| s.data.iter())
                .map(|r| r.nblocks)
                .sum();
            prop_assert_eq!(total, len);
            for sw in &plan.stripes {
                // All parity runs on one disk, and none of the data runs
                // touch it.
                let stripe = sw.parity.first().map(|p| p.block / su as u64);
                if let Some(s) = stripe {
                    let pdisk = m.parity_disk(s);
                    for p in &sw.parity {
                        prop_assert_eq!(p.disk, pdisk);
                    }
                    for d in &sw.data {
                        prop_assert_ne!(d.disk, pdisk);
                    }
                    for r in &sw.extra_reads {
                        prop_assert_ne!(r.disk, pdisk);
                        // Extra reads never overlap written data.
                        for d in &sw.data {
                            let overlap = r.disk == d.disk
                                && r.block < d.block + d.nblocks as u64
                                && d.block < r.block + r.nblocks as u64;
                            prop_assert!(!overlap);
                        }
                    }
                }
                match sw.mode {
                    StripeMode::Full => prop_assert!(sw.extra_reads.is_empty()),
                    StripeMode::Rmw => prop_assert!(sw.extra_reads.is_empty()),
                    StripeMode::Reconstruct => {}
                }
            }
        }

        /// locate() round-trips through distinct physical locations.
        #[test]
        fn prop_locate_injective(
            n in 2u32..8,
            su in proptest::sample::select(vec![1u32, 2, 4]),
        ) {
            let bpd = 240u64;
            let m = RaidMap::new(n, bpd, su, true);
            let mut seen = std::collections::BTreeSet::new();
            for laddr in 0..n as u64 * bpd {
                prop_assert!(seen.insert(m.locate(laddr)));
            }
        }
    }
}
