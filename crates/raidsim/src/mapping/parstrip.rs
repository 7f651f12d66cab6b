//! Parity Striping mapping (Gray, Horst & Walker; paper Section 2.2).

use super::{push_merged, Run, StripeMode, StripeWrite, WritePlan};
use crate::config::ParityPlacement;

/// Parity striping over `n + 1` disks.
///
/// Each physical disk is divided into `n + 1` equal areas of `area_blocks`
/// blocks: one parity area (at the slot chosen by the placement) and `n`
/// data areas. Data is laid out *sequentially*: the array's logical address
/// space fills disk 0's data areas, then disk 1's, and so on — no
/// interleaving, preserving per-disk seek affinity. The `d`-th data area of
/// disk `i` belongs to parity group `d` if `d < i`, else `d + 1`, and the
/// parity of group `g` lives in the parity area of disk `g`; thus group `g`
/// has one member area on every disk except `g`.
#[derive(Clone, Debug)]
pub struct ParStripMap {
    pub n: u32,
    pub blocks_per_disk: u64,
    pub area_blocks: u64,
    /// Slot index (0..=n) of the parity area on every disk.
    pub parity_slot: u32,
    pub placement: ParityPlacement,
    /// Fine-grained parity rotation: the group↔parity-disk assignment
    /// shifts by one disk every `band_blocks` of within-area offset
    /// (`None` = the classic pinned assignment). See
    /// [`ParityPlacement::MiddleRotated`].
    pub band_blocks: Option<u32>,
}

impl ParStripMap {
    pub fn new(n: u32, blocks_per_disk: u64, placement: ParityPlacement) -> ParStripMap {
        let slots = n as u64 + 1;
        // Areas are rounded down to tile the disk; the sliver past
        // `slots·area_blocks` at the disk end is unused (< slots blocks).
        let area_blocks = blocks_per_disk / slots;
        assert!(area_blocks > 0, "disk too small for {} areas", slots);
        let (parity_slot, band_blocks) = match placement {
            // Middle cylinders: the central slot.
            ParityPlacement::Middle => (n / 2, None),
            // The innermost slot.
            ParityPlacement::End => (n, None),
            ParityPlacement::MiddleRotated { band_blocks } => {
                assert!(band_blocks >= 1);
                (n / 2, Some(band_blocks))
            }
        };
        ParStripMap {
            n,
            blocks_per_disk,
            area_blocks,
            parity_slot,
            placement,
            band_blocks,
        }
    }

    /// Rotation band of a within-area offset (0 when rotation is off).
    #[inline]
    pub(crate) fn band_of(&self, w: u64) -> u32 {
        match self.band_blocks {
            Some(b) => ((w / b as u64) % (self.n as u64 + 1)) as u32,
            None => 0,
        }
    }

    /// Virtual disk identity of physical disk `i` in band `j`: the whole
    /// group structure of band `j` is the band-0 structure with disks
    /// relabeled by a rotation, which keeps every band singly
    /// fault-tolerant while spreading each group's parity across all
    /// disks.
    #[inline]
    pub(crate) fn virt(&self, i: u32, j: u32) -> u32 {
        (i + j) % (self.n + 1)
    }

    /// Physical disk holding the parity of virtual group `g` in band `j`.
    #[inline]
    pub(crate) fn parity_disk_of(&self, g_virt: u32, j: u32) -> u32 {
        (g_virt + self.n + 1 - j % (self.n + 1)) % (self.n + 1)
    }

    /// Virtual group that data area `d` of physical disk `i` belongs to in
    /// band `j`.
    #[inline]
    pub(crate) fn group_of(&self, i: u32, d: u32, j: u32) -> u32 {
        let iv = self.virt(i, j);
        if d < iv {
            d
        } else {
            d + 1
        }
    }

    /// The data area index on physical disk `k` that belongs to virtual
    /// group `g` in band `j`; `None` when `k` is the group's parity disk.
    #[inline]
    pub(crate) fn area_of_member(&self, k: u32, g_virt: u32, j: u32) -> Option<u32> {
        let kv = self.virt(k, j);
        if kv == g_virt {
            None
        } else if g_virt < kv {
            Some(g_virt)
        } else {
            Some(g_virt - 1)
        }
    }

    /// Logical blocks the array can hold (`(n+1)·n·area_blocks`).
    pub fn logical_capacity(&self) -> u64 {
        (self.n as u64 + 1) * self.n as u64 * self.area_blocks
    }

    /// Physical slot of data area `d` (0-based among the disk's `n` data
    /// areas): areas fill every slot except the parity slot, in order.
    #[inline]
    pub(crate) fn data_slot_pub(&self, d: u32) -> u32 {
        self.data_slot(d)
    }

    #[inline]
    fn data_slot(&self, d: u32) -> u32 {
        if d < self.parity_slot {
            d
        } else {
            d + 1
        }
    }

    /// Map a logical array address to (disk, physical block, parity disk,
    /// offset within area). The third element is the *physical disk holding
    /// this block's parity* (for the classic assignment it coincides with
    /// the parity-group id).
    #[inline]
    pub fn locate_full(&self, laddr: u64) -> (u32, u64, u32, u64) {
        debug_assert!(laddr < self.logical_capacity());
        let per_disk = self.n as u64 * self.area_blocks;
        let disk = (laddr / per_disk) as u32;
        let o = laddr % per_disk;
        let d = (o / self.area_blocks) as u32;
        let w = o % self.area_blocks;
        let j = self.band_of(w);
        let pdisk = self.parity_disk_of(self.group_of(disk, d, j), j);
        let block = self.data_slot(d) as u64 * self.area_blocks + w;
        (disk, block, pdisk, w)
    }

    /// Map to (disk, physical block).
    #[inline]
    pub fn locate(&self, laddr: u64) -> (u32, u64) {
        let (disk, block, _, _) = self.locate_full(laddr);
        (disk, block)
    }

    /// Parity location protecting `laddr`: block `w` of the parity area of
    /// the group's (band-dependent) parity disk.
    #[inline]
    pub fn parity_of(&self, laddr: u64) -> (u32, u64) {
        let (_, _, pdisk, w) = self.locate_full(laddr);
        (pdisk, self.parity_slot as u64 * self.area_blocks + w)
    }

    /// Physical data runs of `[laddr, laddr + n)` (addresses past the
    /// usable capacity wrap).
    pub fn data_runs(&self, laddr: u64, n: u32) -> Vec<Run> {
        let cap = self.logical_capacity();
        let mut runs = Vec::with_capacity(1);
        for a in laddr..laddr + n as u64 {
            let (disk, block) = self.locate(a % cap);
            push_merged(&mut runs, disk, block);
        }
        runs
    }

    /// Writes in parity striping are always read-modify-write: a "row"
    /// (same within-area offset across the group's member areas) is never
    /// fully covered by a realistic request, so the full/reconstruct fast
    /// paths of striped arrays do not apply.
    pub fn write_plan(&self, laddr: u64, n: u32) -> WritePlan {
        let cap = self.logical_capacity();
        let mut stripes: Vec<StripeWrite> = Vec::with_capacity(1);
        // Build coupled (data run, parity run) pairs block by block; a new
        // stripe starts whenever either side stops being contiguous. Note
        // two adjacent data areas of one disk are physically contiguous but
        // belong to different parity groups, so the parity side forces the
        // split there.
        let mut cur: Option<(Run, Run)> = None;
        for a in laddr..laddr + n as u64 {
            let a = a % cap;
            let (disk, block) = self.locate(a);
            let (pdisk, pblock) = self.parity_of(a);
            if let Some((d, p)) = &mut cur {
                if d.disk == disk
                    && d.block + d.nblocks as u64 == block
                    && p.disk == pdisk
                    && p.block + p.nblocks as u64 == pblock
                {
                    d.nblocks += 1;
                    p.nblocks += 1;
                    continue;
                }
                let (d, p) = (*d, *p);
                stripes.push(Self::rmw_stripe(d, p));
            }
            cur = Some((
                Run {
                    disk,
                    block,
                    nblocks: 1,
                },
                Run {
                    disk: pdisk,
                    block: pblock,
                    nblocks: 1,
                },
            ));
        }
        if let Some((d, p)) = cur {
            stripes.push(Self::rmw_stripe(d, p));
        }
        WritePlan { stripes }
    }

    fn rmw_stripe(data: Run, parity: Run) -> StripeWrite {
        StripeWrite {
            mode: StripeMode::Rmw,
            data: vec![data],
            extra_reads: Vec::new(),
            parity: vec![parity],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(n: u32, placement: ParityPlacement) -> ParStripMap {
        // 1100 blocks / (n+1) slots.
        ParStripMap::new(n, 1100, placement)
    }

    #[test]
    fn area_sizing_rounds_down() {
        let m = map(10, ParityPlacement::End);
        assert_eq!(m.area_blocks, 100);
        assert_eq!(m.logical_capacity(), 11 * 10 * 100);
    }

    #[test]
    fn parity_slot_by_placement() {
        assert_eq!(map(10, ParityPlacement::Middle).parity_slot, 5);
        assert_eq!(map(10, ParityPlacement::End).parity_slot, 10);
        assert_eq!(map(5, ParityPlacement::Middle).parity_slot, 2);
    }

    #[test]
    fn data_fills_disks_sequentially() {
        let m = map(4, ParityPlacement::End);
        // area_blocks = 220; per-disk data = 880.
        let (disk, block) = m.locate(0);
        assert_eq!((disk, block), (0, 0));
        let (disk, _) = m.locate(879);
        assert_eq!(disk, 0);
        let (disk, block) = m.locate(880);
        assert_eq!((disk, block), (1, 0));
    }

    #[test]
    fn middle_placement_shifts_data_slots() {
        let m = map(4, ParityPlacement::Middle); // parity slot 2, areas 220
                                                 // Data area 0 and 1 at slots 0,1; areas 2,3 at slots 3,4.
        assert_eq!(m.locate(0).1, 0);
        assert_eq!(m.locate(220).1, 220);
        assert_eq!(m.locate(440).1, 660, "area 2 skips the parity slot");
        assert_eq!(m.locate(660).1, 880);
    }

    #[test]
    fn group_membership_skips_own_disk() {
        let m = map(4, ParityPlacement::End);
        // Disk 0's areas belong to groups 1..4 (skipping 0).
        for (d, g) in [(0u64, 1u32), (1, 2), (2, 3), (3, 4)] {
            let (_, _, group, _) = m.locate_full(d * 220);
            assert_eq!(group, g);
        }
        // Disk 2's areas: groups 0,1,3,4.
        for (d, g) in [(0u64, 0u32), (1, 1), (2, 3), (3, 4)] {
            let (_, _, group, _) = m.locate_full(2 * 880 + d * 220);
            assert_eq!(group, g);
        }
    }

    #[test]
    fn parity_never_on_data_disk() {
        let m = map(4, ParityPlacement::Middle);
        for laddr in (0..m.logical_capacity()).step_by(37) {
            let (disk, _, _, _) = m.locate_full(laddr);
            let (pdisk, pblock) = m.parity_of(laddr);
            assert_ne!(disk, pdisk, "laddr {laddr}");
            // Parity block lies inside the parity slot.
            let slot = pblock / m.area_blocks;
            assert_eq!(slot as u32, m.parity_slot);
        }
    }

    #[test]
    fn write_plan_couples_data_and_parity_runs() {
        let m = map(4, ParityPlacement::End);
        let plan = m.write_plan(100, 4);
        assert_eq!(plan.stripes.len(), 1);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Rmw);
        assert_eq!(s.data[0].nblocks, 4);
        assert_eq!(s.parity[0].nblocks, 4);
        // Parity offsets mirror data offsets within the area.
        assert_eq!(
            s.parity[0].block % m.area_blocks,
            s.data[0].block % m.area_blocks
        );
    }

    #[test]
    fn write_plan_splits_at_area_boundary() {
        let m = map(4, ParityPlacement::End); // areas of 220
        let plan = m.write_plan(218, 4); // crosses area 0 → area 1 on disk 0
        assert_eq!(plan.stripes.len(), 2);
        // Different groups ⇒ different parity disks.
        let p0 = plan.stripes[0].parity[0].disk;
        let p1 = plan.stripes[1].parity[0].disk;
        assert_ne!(p0, p1);
    }

    #[test]
    fn rotated_parity_moves_across_bands() {
        let m = ParStripMap::new(4, 1100, ParityPlacement::MiddleRotated { band_blocks: 10 });
        assert_eq!(m.parity_slot, 2, "rotated placement keeps the middle slot");
        // Same data area, consecutive bands: parity disk rotates.
        let (pd0, _) = m.parity_of(0); // w = 0, band 0
        let (pd1, _) = m.parity_of(10); // w = 10, band 1
        let (pd2, _) = m.parity_of(20); // band 2
        assert_ne!(pd0, pd1);
        assert_ne!(pd1, pd2);
        // Over one full rotation period the parity visits every disk except
        // the data disk itself.
        let mut seen = std::collections::BTreeSet::new();
        for band in 0..5u64 {
            let (pd, _) = m.parity_of(band * 10);
            assert_ne!(pd, 0, "parity never lands on the data's own disk");
            seen.insert(pd);
        }
        assert_eq!(
            seen.len(),
            4,
            "parity spread over all other disks: {seen:?}"
        );
    }

    #[test]
    fn rotated_parity_balances_update_load() {
        // Hammer one data area with writes: pinned parity sends every
        // update to one disk; rotated parity spreads them.
        let pinned = ParStripMap::new(4, 1100, ParityPlacement::Middle);
        let rotated = ParStripMap::new(4, 1100, ParityPlacement::MiddleRotated { band_blocks: 8 });
        let spread = |m: &ParStripMap| {
            let mut disks = std::collections::BTreeSet::new();
            for w in 0..m.area_blocks {
                disks.insert(m.parity_of(w).0);
            }
            disks.len()
        };
        assert_eq!(spread(&pinned), 1);
        assert_eq!(spread(&rotated), 4);
    }

    proptest! {
        /// Rotated placement keeps the single-fault-tolerance structure:
        /// the parity disk is never the data disk, and locate stays
        /// injective.
        #[test]
        fn prop_rotated_structure(n in 2u32..8, band in 1u32..40) {
            let m = ParStripMap::new(
                n,
                660,
                ParityPlacement::MiddleRotated { band_blocks: band },
            );
            let mut seen = std::collections::BTreeSet::new();
            for laddr in 0..m.logical_capacity() {
                let (disk, block, pdisk, _) = m.locate_full(laddr);
                prop_assert!(seen.insert((disk, block)));
                prop_assert_ne!(disk, pdisk);
                prop_assert!(pdisk <= n);
            }
        }

        /// locate() is injective over the logical capacity and never lands
        /// in any disk's parity slot.
        #[test]
        fn prop_locate_injective_and_slot_safe(
            n in 2u32..8,
            placement in proptest::sample::select(vec![ParityPlacement::Middle, ParityPlacement::End]),
        ) {
            let m = ParStripMap::new(n, 660, placement);
            let mut seen = std::collections::BTreeSet::new();
            for laddr in 0..m.logical_capacity() {
                let (disk, block) = m.locate(laddr);
                prop_assert!(seen.insert((disk, block)));
                prop_assert!(disk <= n);
                let slot = (block / m.area_blocks) as u32;
                prop_assert_ne!(slot, m.parity_slot);
                prop_assert!(block < 660);
            }
        }

        /// Every parity group has exactly one member area per non-parity
        /// disk.
        #[test]
        fn prop_groups_are_balanced(n in 2u32..8) {
            let m = ParStripMap::new(n, 660, ParityPlacement::End);
            let mut members = std::collections::BTreeMap::new();
            for laddr in (0..m.logical_capacity()).step_by(m.area_blocks as usize) {
                let (disk, _, group, _) = m.locate_full(laddr);
                let set = members.entry(group).or_insert_with(std::collections::BTreeSet::new);
                prop_assert!(set.insert(disk), "duplicate member disk in group {group}");
            }
            for (group, set) in members {
                prop_assert_eq!(set.len(), n as usize, "group {} size", group);
                prop_assert!(!set.contains(&group), "group contains its parity disk");
            }
        }
    }
}
