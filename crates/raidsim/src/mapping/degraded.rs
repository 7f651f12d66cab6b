//! Degraded-mode (one failed disk) planning.
//!
//! The paper notes that "large arrays are less reliable and have worse
//! performance during reconstruction following a disk failure"
//! (Section 4.2.1) without quantifying it; this module makes degraded
//! operation simulable. One physical disk of an array is marked failed;
//! requests are re-planned:
//!
//! * **Reads** of lost blocks are served by reading the *peer* blocks —
//!   the same-offset blocks of every surviving member of the stripe/parity
//!   group (data + parity) — and XOR-reconstructing in the controller.
//! * **Writes** to a stripe with a failed data disk cannot read-modify-
//!   write: the new parity is computed from the new data plus the current
//!   contents of the surviving unwritten units (read first), then written
//!   outright — a reconstruct-write.
//! * Writes whose **parity** lives on the failed disk skip the parity
//!   update entirely (plain writes).
//! * **Mirror** reads/writes simply use the surviving copy.

use super::{OrgMap, Run, StripeMode, WritePlan};

/// Spare-area target for block `block` of the failed disk under
/// *distributed sparing*: instead of one hot spare absorbing the whole
/// reconstructed disk, every survivor reserves a spare area and the failed
/// disk's blocks are struck across them round-robin. Survivor `i` (in
/// ascending disk order, the failed slot skipped) takes the blocks with
/// `block ≡ i (mod dpa−1)`, so rebuild writes spread evenly over all
/// `dpa−1` surviving spindles — the mechanism behind distributed sparing's
/// shorter rebuild window.
///
/// The returned index is a real disk of the array, never `failed`.
pub(crate) fn distributed_spare_target(dpa: u32, failed: u32, block: u64) -> u32 {
    debug_assert!(dpa >= 2 && failed < dpa);
    let i = (block % (dpa as u64 - 1)) as u32;
    // The i-th survivor in ascending order: indices below `failed` map
    // straight through, the rest shift past the failed slot.
    if i < failed {
        i
    } else {
        i + 1
    }
}

/// How a read decomposes under a failed disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradedRead {
    /// Runs on surviving disks, read normally.
    pub direct: Vec<Run>,
    /// Peer runs to read for XOR reconstruction of lost blocks.
    pub reconstruct: Vec<Run>,
}

impl OrgMap {
    /// Peer locations (disk, block) needed to reconstruct one lost block at
    /// `(failed_disk, block)`: every surviving member of its redundancy
    /// group, including parity. Empty for Base (no redundancy).
    pub fn peers_of(&self, failed_disk: u32, block: u64) -> Vec<(u32, u64)> {
        match self {
            OrgMap::Base(_) => Vec::new(),
            OrgMap::Mirror(_) => vec![(failed_disk ^ 1, block)],
            OrgMap::Raid(m) => {
                let s = block / m.su as u64;
                (0..=m.n)
                    .filter(|&d| d != failed_disk)
                    .map(|d| (d, block))
                    .map(|(d, b)| {
                        debug_assert!(s == b / m.su as u64);
                        (d, b)
                    })
                    .collect()
            }
            OrgMap::ParStrip(m) => {
                // Tail-sliver blocks beyond the (n+1) tiled areas belong to
                // no redundancy group: they are unused by the address map and
                // unprotected, so there is nothing to reconstruct from.
                let slot64 = block / m.area_blocks;
                if slot64 > m.n as u64 {
                    return Vec::new();
                }
                let slot = slot64 as u32;
                let w = block % m.area_blocks;
                let j = m.band_of(w);
                // Virtual group of the lost block (its band decides the
                // rotation; see ParStripMap::virt).
                let g_virt = if slot == m.parity_slot {
                    // Lost a parity block of the group whose band-j parity
                    // disk is `failed_disk`.
                    m.virt(failed_disk, j)
                } else {
                    let d = if slot < m.parity_slot { slot } else { slot - 1 };
                    m.group_of(failed_disk, d, j)
                };
                let pdisk = m.parity_disk_of(g_virt, j);
                let mut peers: Vec<(u32, u64)> = (0..=m.n)
                    .filter(|&k| k != failed_disk)
                    .filter_map(|k| {
                        m.area_of_member(k, g_virt, j)
                            .map(|d| (k, m.data_slot_pub(d) as u64 * m.area_blocks + w))
                    })
                    .collect();
                if pdisk != failed_disk {
                    peers.push((pdisk, m.parity_slot as u64 * m.area_blocks + w));
                }
                peers
            }
        }
    }

    /// Decompose a read under a failed disk.
    pub fn degraded_read_runs(&self, laddr: u64, n: u32, failed_disk: u32) -> DegradedRead {
        let mut out = DegradedRead::default();
        for run in self.read_runs(laddr, n) {
            if run.disk != failed_disk {
                out.direct.push(run);
                continue;
            }
            if let OrgMap::Mirror(_) = self {
                // Whole run redirects to the surviving copy.
                out.direct.push(Run {
                    disk: run.disk ^ 1,
                    ..run
                });
                continue;
            }
            for b in 0..run.nblocks as u64 {
                for (disk, block) in self.peers_of(failed_disk, run.block + b) {
                    super::push_merged(&mut out.reconstruct, disk, block);
                }
            }
        }
        out
    }

    /// Re-plan a write under a failed disk.
    pub fn degraded_write_plan(&self, laddr: u64, n: u32, failed_disk: u32) -> WritePlan {
        let plan = self.write_plan(laddr, n);
        if let OrgMap::Mirror(_) | OrgMap::Base(_) = self {
            // Mirror: drop the failed copy; Base has no redundancy to adapt.
            let stripes = plan
                .stripes
                .into_iter()
                .map(|mut s| {
                    s.data.retain(|r| r.disk != failed_disk);
                    s
                })
                .filter(|s| !s.data.is_empty())
                .collect();
            return WritePlan { stripes };
        }

        let mut stripes = Vec::with_capacity(plan.stripes.len());
        for mut stripe in plan.stripes {
            let parity_failed = stripe.parity.iter().any(|p| p.disk == failed_disk);
            let data_failed: Vec<Run> = stripe
                .data
                .iter()
                .copied()
                .filter(|r| r.disk == failed_disk)
                .collect();
            stripe.data.retain(|r| r.disk != failed_disk);
            stripe.extra_reads.retain(|r| r.disk != failed_disk);

            if parity_failed {
                // No parity to maintain: surviving data writes go out plain.
                stripe.parity.clear();
                stripe.extra_reads.clear();
                stripe.mode = StripeMode::Full;
                if !stripe.data.is_empty() {
                    stripes.push(stripe);
                }
                continue;
            }
            if data_failed.is_empty() {
                stripes.push(stripe);
                continue;
            }
            // A written unit is lost: compute parity from new data plus the
            // current contents of every surviving block at the covered
            // offsets that this request does not overwrite.
            let mut extra = std::mem::take(&mut stripe.extra_reads);
            for run in &data_failed {
                for b in 0..run.nblocks as u64 {
                    let block = run.block + b;
                    for (disk, pblock) in self.peers_of(failed_disk, block) {
                        let is_parity = stripe
                            .parity
                            .iter()
                            .any(|p| p.disk == disk && covers(p, pblock));
                        let written = stripe
                            .data
                            .iter()
                            .any(|d| d.disk == disk && covers(d, pblock));
                        let already = extra.iter().any(|e| e.disk == disk && covers(e, pblock));
                        if !is_parity && !written && !already {
                            super::push_merged(&mut extra, disk, pblock);
                        }
                    }
                }
            }
            // With no survivors left to read (the write covered the rest of
            // the stripe) the parity is computable from new data alone.
            stripe.mode = if extra.is_empty() {
                StripeMode::Full
            } else {
                StripeMode::Reconstruct
            };
            stripe.extra_reads = extra;
            stripes.push(stripe);
        }
        WritePlan { stripes }
    }
}

#[inline]
fn covers(run: &Run, block: u64) -> bool {
    block >= run.block && block < run.block + run.nblocks as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Organization, ParityPlacement};

    fn raid5() -> OrgMap {
        OrgMap::new(Organization::Raid5 { striping_unit: 1 }, 4, 240)
    }

    fn parstrip() -> OrgMap {
        OrgMap::new(
            Organization::ParityStriping {
                placement: ParityPlacement::End,
            },
            4,
            1100,
        )
    }

    #[test]
    fn raid5_peers_cover_the_whole_stripe() {
        let m = raid5();
        // laddr 0 → stripe 0, unit 0 → disk 0, block 0; peers disks 1..4.
        let peers = m.peers_of(0, 0);
        assert_eq!(peers.len(), 4);
        let disks: Vec<u32> = peers.iter().map(|p| p.0).collect();
        assert_eq!(disks, vec![1, 2, 3, 4]);
        assert!(peers.iter().all(|p| p.1 == 0), "same physical offset");
    }

    #[test]
    fn degraded_read_reconstructs_lost_blocks_only() {
        let m = raid5();
        // laddr 0..2 → disks 0 and 1 (stripe 0). Fail disk 0.
        let d = m.degraded_read_runs(0, 2, 0);
        assert_eq!(
            d.direct,
            vec![Run {
                disk: 1,
                block: 0,
                nblocks: 1
            }]
        );
        // Reconstruction reads: disks 1..4 at block 0.
        assert_eq!(d.reconstruct.len(), 4);
        assert!(d.reconstruct.iter().all(|r| r.disk != 0));
    }

    #[test]
    fn degraded_read_on_surviving_disks_is_unchanged() {
        let m = raid5();
        let normal = m.read_runs(5, 1);
        let d = m.degraded_read_runs(5, 1, 0);
        if normal[0].disk != 0 {
            assert_eq!(d.direct, normal);
            assert!(d.reconstruct.is_empty());
        }
    }

    #[test]
    fn mirror_degraded_read_redirects() {
        let m = OrgMap::new(Organization::Mirror, 4, 1000);
        let d = m.degraded_read_runs(500, 2, 0); // primary disk 0 failed
        assert_eq!(
            d.direct,
            vec![Run {
                disk: 1,
                block: 500,
                nblocks: 2
            }]
        );
        assert!(d.reconstruct.is_empty());
    }

    #[test]
    fn write_with_failed_parity_goes_plain() {
        let m = raid5();
        // Stripe 0's parity is on disk 4; fail disk 4 and write laddr 0.
        let plan = m.degraded_write_plan(0, 1, 4);
        assert_eq!(plan.stripes.len(), 1);
        let s = &plan.stripes[0];
        assert!(s.parity.is_empty());
        assert_eq!(s.mode, StripeMode::Full);
        assert_eq!(s.data.len(), 1);
    }

    #[test]
    fn write_to_failed_data_disk_reconstructs_parity() {
        let m = raid5();
        // laddr 0 lives on disk 0 (stripe 0). Fail disk 0.
        let plan = m.degraded_write_plan(0, 1, 0);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Reconstruct);
        assert!(s.data.is_empty(), "the lost unit cannot be written");
        // Surviving unwritten units (disks 1,2,3) must be read; parity
        // (disk 4) written.
        assert_eq!(s.extra_reads.len(), 3);
        assert!(s.extra_reads.iter().all(|r| r.disk != 0 && r.disk != 4));
        assert_eq!(s.parity.len(), 1);
        assert_eq!(s.parity[0].disk, 4);
    }

    #[test]
    fn multiblock_write_mixed_survivors() {
        let m = raid5();
        // laddr 0..3: disks 0,1,2 of stripe 0. Fail disk 1.
        let plan = m.degraded_write_plan(0, 3, 1);
        let s = &plan.stripes[0];
        assert_eq!(s.mode, StripeMode::Reconstruct);
        let data_disks: Vec<u32> = s.data.iter().map(|r| r.disk).collect();
        assert_eq!(data_disks, vec![0, 2]);
        // Only disk 3 (the unwritten surviving unit) needs reading.
        assert_eq!(
            s.extra_reads,
            vec![Run {
                disk: 3,
                block: 0,
                nblocks: 1
            }]
        );
    }

    #[test]
    fn parstrip_peers_for_data_and_parity_blocks() {
        let m = parstrip();
        let OrgMap::ParStrip(ps) = &m else {
            unreachable!()
        };
        // Data block: disk 0, area 0 (slot 0) → group 1. Peers: members of
        // group 1 = all disks except 1, minus the failed one (0), plus
        // parity on disk 1.
        let peers = m.peers_of(0, 5);
        assert_eq!(peers.len(), 4);
        let parity_peer = peers.iter().find(|p| p.0 == 1).unwrap();
        assert_eq!(parity_peer.1, ps.parity_slot as u64 * ps.area_blocks + 5);
        // Parity block on disk 2 (group 2): peers are data areas of every
        // other disk.
        let pblock = ps.parity_slot as u64 * ps.area_blocks + 7;
        let peers = m.peers_of(2, pblock);
        assert_eq!(peers.len(), 4);
        assert!(peers.iter().all(|p| p.0 != 2));
        assert!(peers.iter().all(|&(_, b)| b % ps.area_blocks == 7));
    }

    #[test]
    fn rotated_parstrip_peers_cover_the_band_group() {
        use proptest::prelude::*;
        let m = OrgMap::new(
            Organization::ParityStriping {
                placement: ParityPlacement::MiddleRotated { band_blocks: 7 },
            },
            4,
            1100,
        );
        let OrgMap::ParStrip(ps) = &m else {
            unreachable!()
        };
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(0u32..=4, 0u64..(5 * ps.area_blocks)),
                |(failed, block)| {
                    let peers = m.peers_of(failed, block);
                    // Peers never include the failed disk and are distinct.
                    let mut disks = std::collections::BTreeSet::new();
                    for &(d, _) in &peers {
                        prop_assert!(d != failed);
                        prop_assert!(disks.insert(d));
                    }
                    // N peers either way: N−1 members + parity for a data
                    // block, the N member areas for a lost parity block.
                    prop_assert_eq!(peers.len(), 4);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn base_has_no_peers() {
        let m = OrgMap::new(Organization::Base, 4, 1000);
        assert!(m.peers_of(0, 10).is_empty());
    }

    #[test]
    fn parstrip_sliver_blocks_have_no_peers() {
        // bpd = 1103 with n = 4 → area 220; blocks ≥ 1100 are the unused
        // tail sliver, which belongs to no redundancy group.
        let m = OrgMap::new(
            Organization::ParityStriping {
                placement: ParityPlacement::End,
            },
            4,
            1103,
        );
        assert!(m.peers_of(0, 1100).is_empty());
        assert!(m.peers_of(3, 1102).is_empty());
        // The last tiled block still resolves to a full group.
        assert_eq!(m.peers_of(0, 1099).len(), 4);
    }

    #[test]
    fn peers_round_trip_across_organizations() {
        use proptest::prelude::*;
        let orgs: Vec<(&str, OrgMap, u32)> = vec![
            ("base", OrgMap::new(Organization::Base, 4, 1100), 4),
            ("mirror", OrgMap::new(Organization::Mirror, 4, 1100), 8),
            (
                "raid5",
                OrgMap::new(Organization::Raid5 { striping_unit: 4 }, 4, 1100),
                5,
            ),
            (
                "raid4",
                OrgMap::new(Organization::Raid4 { striping_unit: 4 }, 4, 1100),
                5,
            ),
            (
                "parstrip",
                OrgMap::new(
                    Organization::ParityStriping {
                        placement: ParityPlacement::MiddleRotated { band_blocks: 7 },
                    },
                    4,
                    1100,
                ),
                5,
            ),
        ];
        let norgs = orgs.len();
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(&(0usize..norgs, 0u32..8, 0u64..1100), |(oi, fd, block)| {
                let (name, m, disks) = &orgs[oi];
                let failed = fd % disks;
                // ParStrip's tail sliver is covered by the dedicated test;
                // keep the round-trip inside the tiled region where groups
                // exist.
                let block = if let OrgMap::ParStrip(ps) = m {
                    block % ((ps.n as u64 + 1) * ps.area_blocks)
                } else {
                    block
                };
                let peers = m.peers_of(failed, block);
                let want = match *name {
                    "base" => 0,
                    "mirror" => 1,
                    _ => 4,
                };
                prop_assert_eq!(peers.len(), want, "wrong peer count for {}", name);
                let mut seen = std::collections::BTreeSet::new();
                for &(d, b) in &peers {
                    prop_assert!(d != failed, "{}: peer on the failed disk", name);
                    prop_assert!(d < *disks, "{}: peer disk out of range", name);
                    prop_assert!(seen.insert(d), "{}: duplicate peer disk", name);
                    // Round-trip: the lost block must be a peer of each of
                    // its peers (they share one redundancy group).
                    let back = m.peers_of(d, b);
                    prop_assert!(
                        back.contains(&(failed, block)),
                        "{}: asymmetric peers ({},{}) -> ({},{})",
                        name,
                        failed,
                        block,
                        d,
                        b
                    );
                }
                Ok(())
            })
            .unwrap();
    }
}
