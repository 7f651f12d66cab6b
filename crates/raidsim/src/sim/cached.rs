//! Cached-controller request handling: LRU cache front-end, synchronous
//! writebacks, the periodic destage process, and RAID4 parity spooling.

use super::planning::OrgPlanner;
use super::{DestageJob, DiskOp, EnqueueRule, Ev, OpMarks, OpRole, ParityJob, Simulator, WriteOps};
use crate::mapping::StripeMode;
use diskmodel::{AccessKind, Band, DiskScheduler};
use nvcache::{BlockKey, DestageGroup, DirtyEviction};
use simkit::SimTime;
use tracegen::TraceRecord;

impl<'t> Simulator<'t> {
    /// Cache keys of a request (keyed by global logical disk + block).
    fn keys_of(rec: &TraceRecord) -> Vec<BlockKey> {
        (0..rec.nblocks as u64)
            .map(|i| BlockKey::new(rec.disk, rec.block + i))
            .collect()
    }

    fn laddr_of_key(&self, key: BlockKey) -> u64 {
        ((key.disk % self.n) as u64 * self.bpd + key.block) % self.planner.logical_capacity()
    }

    pub(super) fn cached_read(&mut self, req: u32, rec: &TraceRecord, array: u32, _laddr: u64) {
        let keys = Self::keys_of(rec);
        let missing = self.caches[array as usize].read_probe(&keys);
        let now = self.engine.now();
        let bytes = rec.nblocks as u64 * self.block_bytes;

        if missing.is_empty() {
            // Read hit: response is just the channel wait + transfer.
            let tr = self.channels[array as usize].request(now, bytes);
            self.note_channel_finish(req, tr.end);
            return;
        }

        // Fetch missing blocks; the host transfer runs after the last one
        // lands ("on a read miss the block is fetched from disk").
        self.reqs.get_mut(req).tail_channel_bytes = bytes;
        let mut evictions = Vec::new();
        for &key in &missing {
            evictions.extend(self.caches[array as usize].insert_fetched(key));
        }
        // Merge consecutive missing blocks into fetch runs.
        let mut seg_start = 0;
        for i in 0..missing.len() {
            let split = i + 1 == missing.len()
                || missing[i + 1].block != missing[i].block + 1
                || missing[i + 1].disk != missing[i].disk;
            if split {
                let laddr = self.laddr_of_key(missing[seg_start]);
                let nblocks = (i - seg_start + 1) as u32;
                let (direct, reconstruct) = match self.failed_in(array) {
                    Some(f) => {
                        let d = self.planner.degraded_read_runs(laddr, nblocks, f);
                        (d.direct, d.reconstruct)
                    }
                    None => (self.planner.read_runs(laddr, nblocks), Vec::new()),
                };
                for run in direct.into_iter().chain(reconstruct) {
                    let run = self.choose_replica(array, run);
                    let t = self.new_op(DiskOp {
                        role: OpRole::CacheFetch,
                        req: Some(req),
                        job: None,
                        dgroup: None,
                        gdisk: self.gdisk(array, run.disk),
                        block: run.block,
                        nblocks: run.nblocks,
                        kind: AccessKind::Read,
                        band: Band::Normal,
                        feeds: false,
                        read_end: SimTime::ZERO,
                        transfer_ns: 0,
                        attempts: 0,
                        marks: OpMarks::default(),
                    });
                    self.reqs.get_mut(req).pending += 1;
                    self.enqueue_op(t);
                }
                seg_start = i + 1;
            }
        }
        for ev in evictions {
            self.issue_writeback(Some(req), array, ev);
        }
    }

    pub(super) fn cached_write(&mut self, req: u32, rec: &TraceRecord, array: u32, laddr: u64) {
        let keys = Self::keys_of(rec);
        if self.battery_out() {
            // NVRAM battery failed: the cache cannot hold dirty data, so the
            // write goes straight to disk (blocks cached clean) and the
            // request waits for the media like a non-cached write.
            let (_hit, evictions) = self.caches[array as usize].write_through(&keys);
            let now = self.engine.now();
            let tr =
                self.channels[array as usize].request(now, rec.nblocks as u64 * self.block_bytes);
            self.reqs.get_mut(req).stage_end = tr.end;
            let immediate = self.build_write_ops(WriteOps {
                req: Some(req),
                array,
                laddr,
                n: rec.nblocks,
                band: Band::Normal,
                data_role: OpRole::HostWrite,
                old_known: false,
                spool: false,
            });
            self.note_channel_finish(req, tr.end);
            self.engine.schedule_at(tr.end, Ev::Issue(immediate.into()));
            for ev in evictions {
                self.issue_writeback(Some(req), array, ev);
            }
            self.note_write_through();
            return;
        }
        let keep_old = self.cfg.organization.has_parity();
        let (_hit, evictions) = self.caches[array as usize].write_access(&keys, keep_old);
        let now = self.engine.now();
        let tr = self.channels[array as usize].request(now, rec.nblocks as u64 * self.block_bytes);
        self.note_channel_finish(req, tr.end);
        for ev in evictions {
            self.issue_writeback(Some(req), array, ev);
        }
    }

    /// Synchronously write back an evicted dirty block (the evicting miss
    /// waits for it when `req` is set). In parity organizations the parity
    /// must be updated too; the cached old data, when present, saves the
    /// data-disk pre-read. RAID4 routes the parity update through the
    /// spool.
    pub(super) fn issue_writeback(&mut self, req: Option<u32>, array: u32, ev: DirtyEviction) {
        let laddr = self.laddr_of_key(ev.key);
        let spool = self.parity_cached;
        let immediate = self.build_write_ops(WriteOps {
            req,
            array,
            laddr,
            n: 1,
            band: Band::Normal,
            data_role: OpRole::Writeback,
            old_known: ev.had_old,
            spool,
        });
        for t in immediate {
            self.enqueue_op(t);
        }
        if spool {
            self.try_drain_spool(array);
        }
    }

    /// Buffer one parity-block update in the RAID4 spool, reserving a cache
    /// slot when it does not merge. Falls back to a direct parity-disk RMW
    /// when the cache cannot yield a slot (and counts the stall).
    pub(super) fn spool_parity(&mut self, array: u32, pblock: u64, full: bool, req: Option<u32>) {
        let a = array as usize;
        if self.spools[a].contains(pblock) {
            self.spools[a].add(pblock, full);
            return;
        }
        match self.caches[a].reserve_slots(1) {
            Some(evs) => {
                self.spools[a].add(pblock, full);
                for ev in evs {
                    self.issue_writeback(None, array, ev);
                }
            }
            None => {
                // Spool occupies the whole cache: service the parity update
                // directly from disk (Section 3.4's overflow behavior).
                self.spool_stalls += 1;
                let pdisk = self.n; // RAID4 parity disk
                if let Some(q) = req {
                    self.reqs.get_mut(q).pending += 1;
                }
                let t = self.new_op(DiskOp {
                    role: OpRole::ParityRmw,
                    req,
                    job: None,
                    dgroup: None,
                    gdisk: self.gdisk(array, pdisk),
                    block: pblock,
                    nblocks: 1,
                    kind: if full {
                        AccessKind::Write
                    } else {
                        AccessKind::RmwParityRead
                    },
                    band: Band::Normal,
                    feeds: false,
                    read_end: SimTime::ZERO,
                    transfer_ns: 0,
                    attempts: 0,
                    marks: OpMarks::default(),
                });
                self.enqueue_op(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // destage
    // ------------------------------------------------------------------

    pub(super) fn on_destage_tick(&mut self, array: u32) {
        let a = array as usize;
        let groups = self.caches[a].collect_destage();
        for group in groups {
            self.issue_destage_group(array, group);
        }
        if self.parity_cached {
            self.try_drain_spool(array);
        }

        // Keep ticking while there is anything left to clean.
        let work_left = self.arrivals_remaining()
            || self.inflight > 0
            || self.caches[a].dirty_count() > 0
            || self.spools.get(a).is_some_and(|s| !s.is_empty());
        if work_left {
            self.engine
                .schedule_after(self.destage_period_ns, Ev::DestageTick { array });
        }
    }

    pub(super) fn issue_destage_group(&mut self, array: u32, group: DestageGroup) {
        let a = array as usize;
        let laddr = self.laddr_of_key(BlockKey::new(group.disk, group.block));
        let plan = self.plan_write(array, laddr, group.nblocks);
        let has_parity = self.cfg.organization.has_parity();

        // RAID4: reserve spool slots for every new parity block up front;
        // defer the whole group if the cache cannot hold them.
        if self.parity_cached {
            let mut new_blocks = 0usize;
            for stripe in &plan.stripes {
                for p in &stripe.parity {
                    for b in 0..p.nblocks as u64 {
                        if !self.spools[a].contains(p.block + b) {
                            new_blocks += 1;
                        }
                    }
                }
            }
            match self.caches[a].reserve_slots(new_blocks) {
                Some(evs) => {
                    for stripe in &plan.stripes {
                        // Full-stripe *and* reconstruct writes compute the
                        // actual parity, writable without the old-parity
                        // pre-read.
                        let full = stripe.mode != StripeMode::Rmw;
                        for p in &stripe.parity {
                            for b in 0..p.nblocks as u64 {
                                self.spools[a].add(p.block + b, full);
                            }
                        }
                    }
                    for ev in evs {
                        self.issue_writeback(None, array, ev);
                    }
                }
                None => {
                    self.spool_stalls += 1;
                    self.caches[a].destage_abort(&group);
                    return;
                }
            }
        }

        let data_ops: u32 = plan.stripes.iter().map(|s| s.data.len() as u32).sum();
        if data_ops == 0 {
            // Degraded mode: every dirty block of the group lived on the
            // failed disk. The parity/reconstruct work still runs below,
            // but there is no data write to wait for — settle the cache
            // now so the destage loop terminates.
            self.caches[a].destage_complete(&group);
        }
        let dg = (data_ops > 0).then(|| {
            self.dgroups.insert(DestageJob {
                group,
                remaining: data_ops,
            })
        });

        for stripe in plan.stripes {
            let rmw_needed = has_parity && !self.parity_cached && stripe.mode != StripeMode::Full;
            // A job couples background parity RMWs to their feeder reads.
            let feeders = if stripe.mode == StripeMode::Reconstruct {
                stripe.extra_reads.len()
            } else if !group.has_old {
                stripe.data.len()
            } else {
                0
            };
            let job = (rmw_needed && feeders > 0).then(|| {
                self.jobs.insert(ParityJob {
                    data_not_started: feeders as u32,
                    ready: SimTime::ZERO,
                    pending_parity: Vec::new(),
                    rule: EnqueueRule::AtReady,
                    refs: (feeders + stripe.parity.len()) as u32,
                })
            });

            let mut feeders = Vec::new();
            if stripe.mode == StripeMode::Reconstruct && has_parity && !self.parity_cached {
                for r in &stripe.extra_reads {
                    let t = self.new_op(DiskOp {
                        role: OpRole::ExtraRead,
                        req: None,
                        job,
                        dgroup: None,
                        gdisk: self.gdisk(array, r.disk),
                        block: r.block,
                        nblocks: r.nblocks,
                        kind: AccessKind::Read,
                        band: Band::Background,
                        feeds: true,
                        read_end: SimTime::ZERO,
                        transfer_ns: 0,
                        attempts: 0,
                        marks: OpMarks::default(),
                    });
                    feeders.push(t);
                }
            }

            // Data writes: plain when the old contents are cached or no
            // parity RMW is needed; pre-reading otherwise.
            let data_kind = if rmw_needed && stripe.mode == StripeMode::Rmw && !group.has_old {
                AccessKind::RmwData
            } else {
                AccessKind::Write
            };
            // RAID4 without cached old data must still pre-read to form the
            // spool delta.
            let data_kind =
                if self.parity_cached && !group.has_old && stripe.mode == StripeMode::Rmw {
                    AccessKind::RmwData
                } else {
                    data_kind
                };
            for r in &stripe.data {
                let is_feeder = data_kind == AccessKind::RmwData && !self.parity_cached;
                let t = self.new_op(DiskOp {
                    role: OpRole::DestageData,
                    req: None,
                    job: if is_feeder { job } else { None },
                    dgroup: dg,
                    gdisk: self.gdisk(array, r.disk),
                    block: r.block,
                    nblocks: r.nblocks,
                    kind: data_kind,
                    band: Band::Background,
                    feeds: is_feeder && job.is_some(),
                    read_end: SimTime::ZERO,
                    transfer_ns: 0,
                    attempts: 0,
                    marks: OpMarks::default(),
                });
                feeders.push(t);
            }

            if !has_parity || self.parity_cached {
                for t in feeders {
                    self.enqueue_op(t);
                }
                continue; // RAID4 parity went to the spool above
            }
            for p in &stripe.parity {
                let kind = if stripe.mode == StripeMode::Rmw {
                    AccessKind::RmwParityRead
                } else {
                    AccessKind::Write
                };
                let t = self.new_op(DiskOp {
                    role: OpRole::DestageParity,
                    req: None,
                    job,
                    dgroup: None,
                    gdisk: self.gdisk(array, p.disk),
                    block: p.block,
                    nblocks: p.nblocks,
                    kind,
                    band: Band::Background,
                    feeds: false,
                    read_end: SimTime::ZERO,
                    transfer_ns: 0,
                    attempts: 0,
                    marks: OpMarks::default(),
                });
                match job {
                    None => self.enqueue_op(t),
                    Some(j) => self.jobs.pending_parity[j as usize].push(t),
                }
            }
            // Enqueue feeders only after the parity ops are registered.
            for t in feeders {
                self.enqueue_op(t);
            }
        }
    }

    /// Keep the RAID4 parity disk fed from the spool whenever it is idle.
    pub(super) fn try_drain_spool(&mut self, array: u32) {
        if !self.parity_cached {
            return;
        }
        let a = array as usize;
        let pdisk = self.gdisk(array, self.n);
        if self.in_service[pdisk as usize].is_some()
            || !self.queues[pdisk as usize].is_empty()
            || self.spools[a].is_empty()
        {
            return;
        }
        // Two tracks' worth per sweep step keeps individual ops short.
        let Some(run) = self.spools[a].pop_run(12) else {
            return;
        };
        let t = self.new_op(DiskOp {
            role: OpRole::SpoolDrain,
            req: None,
            job: None,
            dgroup: None,
            gdisk: pdisk,
            block: run.block,
            nblocks: run.nblocks,
            kind: if run.full {
                AccessKind::Write
            } else {
                AccessKind::RmwParityRead
            },
            band: Band::Background,
            feeds: false,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        });
        self.enqueue_op(t);
    }
}
