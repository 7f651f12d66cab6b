//! Planning layer: organization-specific request decomposition.
//!
//! The simulator holds its organization's [`OrgMap`] (`Simulator::map`),
//! which turns logical addresses into per-disk runs — healthy and degraded
//! reads, write plans, mirror and parity-peer lookups. This module turns
//! those plans into disk operations and parity jobs. The two policy
//! questions that are not address mapping — whether the organization
//! survives a disk loss, and whether an NV cache spools its parity — are
//! [`Organization::has_redundancy`] and [`Organization::caches_parity`] in
//! `config.rs`, answered once at construction or from `cfg`.
//!
//! Neither this module nor any other simulator layer matches on
//! [`Organization`]: simlint's `scheduler-seam` rule confines that dispatch
//! to `config.rs`, `report.rs`, and `mapping/`, so adding an organization
//! means one `Organization` variant plus one `OrgMap` variant.

use super::*;
use crate::mapping::WritePlan;

impl<'t> Simulator<'t> {
    /// The failed disk's index within `array`, if one is currently failed.
    #[inline]
    pub(super) fn failed_in(&self, array: u32) -> Option<u32> {
        self.failed_local[array as usize]
    }

    /// The organization-appropriate write plan, accounting for a failed
    /// disk in this array.
    pub(super) fn plan_write(&self, array: u32, laddr: u64, n: u32) -> WritePlan {
        match self.failed_in(array) {
            Some(f) => self.map.degraded_write_plan(laddr, n, f),
            None => self.map.write_plan(laddr, n),
        }
    }

    /// For mirrors, send a read to the pair member with the shorter queue,
    /// breaking ties by arm distance ("shortest seek optimization") then
    /// disk id.
    pub(super) fn choose_replica(&self, array: u32, run: Run) -> Run {
        let Some(alt) = self.map.mirror_of(run) else {
            return run;
        };
        // A failed pair member is never selected.
        if self.failed_in(array) == Some(run.disk) {
            return alt;
        }
        if self.failed_in(array) == Some(alt.disk) {
            return run;
        }
        let load = |r: &Run| {
            let g = self.gdisk(array, r.disk) as usize;
            (
                self.queues[g].foreground_len() + self.in_service[g].is_some() as usize,
                self.disks[g].arm_distance(r.block),
                r.disk,
            )
        };
        if load(&alt) < load(&run) {
            alt
        } else {
            run
        }
    }

    /// Create the disk ops (and parity jobs) for a write of
    /// `[laddr, laddr+n)` under the organization's (possibly degraded)
    /// plan; returns the immediately issuable tokens — parity ops gated by
    /// a synchronization rule are issued later by their job.
    pub(super) fn build_write_ops(&mut self, w: WriteOps) -> Vec<u32> {
        let WriteOps {
            req,
            array,
            laddr,
            n,
            band,
            data_role,
            old_known,
            spool,
        } = w;
        let plan = self.plan_write(array, laddr, n);
        let parity_band = if band == Band::Normal && self.cfg.sync.has_priority() {
            Band::Priority
        } else {
            band
        };
        let mut immediate = Vec::new();
        for stripe in plan.stripes {
            if spool && !stripe.parity.is_empty() {
                // RAID4 parity caching: buffer the update instead of
                // touching the parity disk. Full-stripe and reconstruct
                // writes hold real parity; RMW deltas still need the
                // old-parity pre-read at drain time.
                let full = stripe.mode != StripeMode::Rmw;
                for p in &stripe.parity {
                    for b in 0..p.nblocks as u64 {
                        self.spool_parity(array, p.block + b, full, req);
                    }
                }
            }
            match stripe.mode {
                StripeMode::Full => {
                    for r in &stripe.data {
                        let t =
                            self.data_op(req, array, r, data_role, AccessKind::Write, band, None);
                        immediate.push(t);
                    }
                    if !spool {
                        for p in &stripe.parity {
                            let t = self.data_op(
                                req,
                                array,
                                p,
                                OpRole::ParityWrite,
                                AccessKind::Write,
                                parity_band,
                                None,
                            );
                            immediate.push(t);
                        }
                    }
                }
                StripeMode::Reconstruct => {
                    // Parity is recomputed from the surviving reads; when it
                    // is spooled (RAID4) or absent (degraded parity disk),
                    // the helper reads serve no one and are skipped.
                    let job = (!spool && !stripe.parity.is_empty()).then(|| {
                        self.jobs.insert(ParityJob {
                            data_not_started: stripe.extra_reads.len() as u32,
                            ready: SimTime::ZERO,
                            pending_parity: Vec::new(),
                            rule: EnqueueRule::AtReady,
                            refs: (stripe.extra_reads.len() + stripe.parity.len()) as u32,
                        })
                    });
                    if let Some(job) = job {
                        for p in &stripe.parity {
                            let t = self.data_op(
                                req,
                                array,
                                p,
                                OpRole::ParityWrite,
                                AccessKind::Write,
                                parity_band,
                                Some(job),
                            );
                            self.jobs.pending_parity[job as usize].push(t);
                        }
                        if stripe.extra_reads.is_empty() {
                            // Parity computable from new data alone.
                            let pending =
                                std::mem::take(&mut self.jobs.pending_parity[job as usize]);
                            immediate.extend(pending);
                        }
                        for r in &stripe.extra_reads {
                            let t = self.extra_read_op(array, r, job, band);
                            immediate.push(t);
                        }
                    }
                    for r in &stripe.data {
                        let t =
                            self.data_op(req, array, r, data_role, AccessKind::Write, band, None);
                        immediate.push(t);
                    }
                }
                StripeMode::Rmw => {
                    let rule = match self.cfg.sync {
                        SyncPolicy::SimultaneousIssue => EnqueueRule::AlreadyIssued,
                        SyncPolicy::ReadFirst | SyncPolicy::ReadFirstPriority => {
                            EnqueueRule::AtReady
                        }
                        SyncPolicy::DiskFirst | SyncPolicy::DiskFirstPriority => {
                            EnqueueRule::AtAllStarted
                        }
                    };
                    // With the old data cached (writeback of a block whose
                    // old copy was retained) the parity delta is computable
                    // up front: data goes out as a plain write and the
                    // parity RMW needs no feeder. A spooled parity still
                    // wants the pre-read when the old data is unknown, to
                    // form the delta, but nothing waits on it.
                    let pre_read = !stripe.parity.is_empty() && !old_known;
                    let data_kind = if pre_read {
                        AccessKind::RmwData
                    } else {
                        AccessKind::Write
                    };
                    let needs_job = !spool && pre_read;
                    let job = needs_job.then(|| {
                        self.jobs.insert(ParityJob {
                            data_not_started: stripe.data.len() as u32,
                            ready: SimTime::ZERO,
                            pending_parity: Vec::new(),
                            rule,
                            refs: (stripe.data.len() + stripe.parity.len()) as u32,
                        })
                    });
                    for r in &stripe.data {
                        let role = if job.is_some() {
                            OpRole::RmwData
                        } else {
                            data_role
                        };
                        let t = self.data_op(req, array, r, role, data_kind, band, job);
                        immediate.push(t);
                    }
                    if spool {
                        continue;
                    }
                    for p in &stripe.parity {
                        let t = self.data_op(
                            req,
                            array,
                            p,
                            OpRole::ParityRmw,
                            AccessKind::RmwParityRead,
                            parity_band,
                            job,
                        );
                        match job {
                            None => immediate.push(t), // ready immediately
                            Some(j) => {
                                if rule == EnqueueRule::AlreadyIssued {
                                    immediate.push(t);
                                } else {
                                    self.jobs.pending_parity[j as usize].push(t);
                                }
                            }
                        }
                    }
                }
            }
        }
        immediate
    }

    #[allow(clippy::too_many_arguments)] // a plain op builder; a params struct would add noise
    pub(super) fn data_op(
        &mut self,
        req: Option<u32>,
        array: u32,
        run: &Run,
        role: OpRole,
        kind: AccessKind,
        band: Band,
        job: Option<u32>,
    ) -> u32 {
        if let Some(q) = req {
            self.reqs.get_mut(q).pending += 1;
        }
        self.new_op(DiskOp {
            role,
            req,
            job,
            dgroup: None,
            gdisk: self.gdisk(array, run.disk),
            block: run.block,
            nblocks: run.nblocks,
            kind,
            band,
            feeds: kind == AccessKind::RmwData && job.is_some(),
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        })
    }

    /// Reconstruct helper read: feeds its parity job and never counts
    /// toward the request (the parity write it feeds always finishes
    /// later).
    pub(super) fn extra_read_op(&mut self, array: u32, run: &Run, job: u32, band: Band) -> u32 {
        self.new_op(DiskOp {
            role: OpRole::ExtraRead,
            req: None,
            job: Some(job),
            dgroup: None,
            gdisk: self.gdisk(array, run.disk),
            block: run.block,
            nblocks: run.nblocks,
            kind: AccessKind::Read,
            band,
            feeds: true,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        })
    }
}
