//! Reporting layer: phase attribution, request completion statistics, the
//! periodic sampler, the JSONL event log, and [`SimReport`] assembly.
//!
//! Everything here is observation. The sampler and event log never touch
//! timing, and the scheduler statistics are attached to the report only
//! for non-FCFS disciplines (or on explicit opt-in) so the default
//! report's serialized form — which the determinism suite hashes — is
//! unchanged by the dispatch seam.

use super::*;
use std::io::Write as _;

impl<'t> Simulator<'t> {
    /// Append one pre-formatted line to the JSONL event log, if enabled.
    pub(super) fn write_log(&mut self, line: &str) {
        if let Some(w) = self.event_log.as_mut() {
            let _ = writeln!(w, "{line}");
        }
    }

    /// Decompose a finished disk op into request phases. `done` is when the
    /// disk finished; `at` is when the request part completed (later than
    /// `done` only for the post-read channel transfer). The eight components
    /// telescope exactly: they sum to `at − arrive` in nanoseconds.
    pub(super) fn op_phase(&self, op: &DiskOp, done: SimTime, at: SimTime) -> PhaseSample {
        let r = self.reqs.get(op.req_id());
        let m = &op.marks;
        let media = m.seek_ns + m.latency_ns + op.transfer_ns;
        let service = done - m.start;
        let queue_raw = m.start - m.enqueue;
        // How much background (destage/spool) service overlapped this op's
        // queue wait; the rest of the wait was behind foreground work.
        let interference = (self.bg_busy_cum[op.gdisk as usize] - m.bg_snap).min(queue_raw);
        PhaseSample {
            admission_ns: r.admit - r.arrive,
            channel_ns: (r.stage_end - r.admit) + (at - done),
            disk_queue_ns: queue_raw - interference,
            destage_interference_ns: interference,
            seek_ns: m.seek_ns,
            rotation_ns: m.latency_ns,
            transfer_ns: op.transfer_ns,
            // Sync wait before the op could even enqueue, plus any extra
            // rotations the disk was held beyond the media time (RMW
            // turnaround, Section 3.3).
            parity_ns: (m.enqueue - r.stage_end) + (service - media),
        }
    }

    pub(super) fn request_part_done(&mut self, req: u32, at: SimTime, phase: PhaseSample) {
        let r = self.reqs.get_mut(req);
        // Keep the breakdown of the critical path: the part finishing last
        // carries the request's phase decomposition.
        if at >= r.finish {
            r.finish = at;
            r.phase = phase;
        }
        r.pending -= 1;
        if r.pending == 0 {
            self.finalize_request(req);
        }
    }

    pub(super) fn finalize_request(&mut self, req: u32) {
        let mut r = self.reqs.remove(req);
        if r.tail_channel_bytes > 0 {
            let tr = self.channels[r.array as usize].request(r.finish, r.tail_channel_bytes);
            r.phase.channel_ns += tr.end - r.finish;
            r.finish = tr.end;
        }
        let total_ns = r.finish - r.arrive;
        debug_assert_eq!(
            r.phase.sum_ns(),
            total_ns,
            "phase components must sum exactly to the response time"
        );
        let ms = simkit::time::ns_to_ms(total_ns);
        self.resp_all.push(ms);
        self.hist.record(ms);
        self.completed += 1;
        if let Some(cs) = self.classes.as_mut() {
            let c = &mut cs.reports[r.class as usize];
            c.completed += 1;
            c.response_ms.push(ms);
            c.histogram_ms.record(ms);
        }
        if let Some(f) = self.fault.as_mut() {
            match r.window {
                0 => f.resp_healthy.push(ms),
                1 => f.resp_degraded.push(ms),
                2 => f.resp_rebuilding.push(ms),
                _ => f.resp_dataloss.push(ms),
            }
        }
        if r.is_read {
            self.resp_reads.push(ms);
            self.completed_reads += 1;
            self.phase_reads.push(&r.phase);
        } else {
            self.resp_writes.push(ms);
            self.completed_writes += 1;
            self.phase_writes.push(&r.phase);
        }
        self.inflight -= 1;
        if self.event_log.is_some() {
            let p = &r.phase;
            let line = format!(
                "{{\"t\":{},\"ev\":\"req_done\",\"req\":{},\"read\":{},\"resp_ns\":{},\"admission_ns\":{},\"channel_ns\":{},\"disk_queue_ns\":{},\"destage_interference_ns\":{},\"seek_ns\":{},\"rotation_ns\":{},\"transfer_ns\":{},\"parity_ns\":{}}}",
                r.finish.as_ns(),
                r.serial,
                r.is_read,
                total_ns,
                p.admission_ns,
                p.channel_ns,
                p.disk_queue_ns,
                p.destage_interference_ns,
                p.seek_ns,
                p.rotation_ns,
                p.transfer_ns,
                p.parity_ns
            );
            self.write_log(&line);
        }

        if r.buffers_held > 0 {
            self.buffers[r.array as usize].release(r.buffers_held);
            self.admit_waiters(r.array);
        }
    }

    pub(super) fn report(&self) -> SimReport {
        let elapsed_ns = self.engine.now().as_ns();
        let cache = (!self.caches.is_empty()).then(|| {
            let mut total = *self.caches[0].stats();
            for c in &self.caches[1..] {
                let s = c.stats();
                total.read_hits += s.read_hits;
                total.read_misses += s.read_misses;
                total.write_hits += s.write_hits;
                total.write_misses += s.write_misses;
                total.dirty_evictions += s.dirty_evictions;
                total.overflow_events += s.overflow_events;
            }
            total
        });
        let faults = self.fault.as_ref().map(|f| {
            let end = self.engine.now();
            let battery_ns = f.battery_window_ns
                + if f.battery_out {
                    end - f.battery_fail_at
                } else {
                    0
                };
            // Sum degraded exposure and rebuild spans over arrays and
            // episodes; a window still open at the end of the run is
            // truncated there.
            let mut degraded_ns = 0u64;
            let mut rebuild_ns = 0u64;
            for af in &f.arr {
                degraded_ns += af.degraded_banked_ns + af.degraded_since.map_or(0, |t0| end - t0);
                if let Some(t0) = af.rebuild_started {
                    rebuild_ns += af.rebuild_done.unwrap_or(end) - t0;
                }
            }
            FaultReport {
                degraded_window_ms: simkit::time::ns_to_ms(degraded_ns),
                rebuild_ms: simkit::time::ns_to_ms(rebuild_ns),
                rebuild_blocks: f.rebuild_blocks,
                disk_failures: f.disk_failures,
                spares_used: f.spares_used,
                latent_errors: f.latent_errors,
                latent_repaired: f.latent_repaired,
                scrub_blocks: f.scrub_blocks,
                blocks_lost: f.blocks_lost,
                lost_reads: f.lost_reads,
                transient_errors: f.transient_errors,
                retries: f.retries,
                escalations: f.escalations,
                ops_aborted: f.ops_aborted,
                ops_replayed: f.ops_replayed,
                battery_window_ms: simkit::time::ns_to_ms(battery_ns),
                writes_written_through: f.writes_written_through,
                response_healthy_ms: f.resp_healthy,
                response_degraded_ms: f.resp_degraded,
                response_rebuilding_ms: f.resp_rebuilding,
                response_dataloss_ms: f.resp_dataloss,
            }
        });
        let reliability = self.fault.as_ref().map(|f| {
            let end = self.engine.now();
            let mut exposure_ns = 0u64;
            for af in &f.arr {
                exposure_ns += af.degraded_banked_ns + af.degraded_since.map_or(0, |t0| end - t0);
            }
            let rebuilding = (0..self.arrays as usize)
                .any(|a| self.failed_local[a].is_some() && f.arr[a].rebuild_active);
            let health = if self.dataloss.iter().any(|&d| d) {
                "data-loss"
            } else if rebuilding {
                "rebuilding"
            } else if self.failed_local.iter().any(Option::is_some) {
                "degraded"
            } else {
                "healthy"
            };
            let total_blocks = self.bpd * self.disks.len() as u64;
            ReliabilityReport {
                health: health.to_string(),
                disk_failures: f.disk_failures,
                spares_used: f.spares_used,
                spares_available: f.arr.iter().map(|a| a.spares_left as u64).sum(),
                latent_errors: f.latent_errors,
                latent_repaired: f.latent_repaired,
                scrub_blocks: f.scrub_blocks,
                scrub_coverage: if total_blocks > 0 {
                    f.scrub_blocks as f64 / total_blocks as f64
                } else {
                    0.0
                },
                blocks_lost: f.blocks_lost,
                lost_reads: f.lost_reads,
                exposure_ms: simkit::time::ns_to_ms(exposure_ns),
                data_loss_at_ms: f
                    .arr
                    .iter()
                    .filter_map(|a| a.data_loss_at)
                    .min()
                    .map(|t| t.as_ms_f64()),
            }
        });
        // Attached only off the FCFS default (or on explicit opt-in):
        // the default report must serialize byte-identically to the
        // pre-seam simulator.
        let scheduler = (self.cfg.scheduler != Discipline::Fcfs
            || self.cfg.observability.scheduler_stats)
            .then(|| SchedulerReport {
                discipline: self.cfg.scheduler.label().to_string(),
                seek_distance_cyl: self.sched_seek_cyl,
                queue_depth_priority: self.sched_qdepth[0],
                queue_depth_normal: self.sched_qdepth[1],
                queue_depth_background: self.sched_qdepth[2],
            });
        SimReport {
            organization: self.cfg.organization.label().to_string(),
            requests_completed: self.completed,
            reads_completed: self.completed_reads,
            writes_completed: self.completed_writes,
            response_all_ms: self.resp_all,
            response_reads_ms: self.resp_reads,
            response_writes_ms: self.resp_writes,
            histogram_ms: self.hist.clone(),
            phases_reads: self.phase_reads.clone(),
            phases_writes: self.phase_writes.clone(),
            per_disk_accesses: self.disk_counts.clone(),
            disk_utilization: self
                .disks
                .iter()
                .map(|d| d.utilization(elapsed_ns))
                .collect(),
            channel_utilization: self
                .channels
                .iter()
                .map(|c| c.utilization(elapsed_ns))
                .collect(),
            cache,
            spool_peak: self.spools.iter().map(|s| s.peak()).max().unwrap_or(0),
            spool_merges: self.spools.iter().map(|s| s.merges()).sum(),
            spool_stalls: self.spool_stalls,
            disk_ops: self.disk_ops,
            buffer_waits: self.buffer_waits,
            elapsed_secs: self.engine.now().as_secs_f64(),
            faults,
            reliability,
            timeseries: self.ts.clone(),
            scheduler,
        }
    }

    /// Record one time-series row (queue depths, utilizations, channel busy,
    /// cache occupancy) and reschedule while the simulation still has work.
    /// Purely observational: it reads state and never touches timing.
    pub(super) fn on_sample(&mut self) {
        let now = self.engine.now();
        let now_ns = now.as_ns();
        let dt = now_ns - self.last_sample_ns;
        let Some(ts) = self.ts.as_mut() else {
            return;
        };
        let mut row = Vec::with_capacity(ts.width());
        for (g, q) in self.queues.iter().enumerate() {
            let depth = q.len() + usize::from(self.in_service[g].is_some());
            row.push(depth as f64);
        }
        for (g, d) in self.disks.iter().enumerate() {
            let busy = d.busy_ns();
            // Windowed busy fraction; can exceed 1.0 because service time is
            // committed when an op starts, not accrued as it runs. Saturate:
            // spare promotion replaces the disk and zeroes its counter, so
            // the first window after a rebuild starts may see `busy` below
            // the previous snapshot.
            let frac = if dt > 0 {
                busy.saturating_sub(self.prev_disk_busy[g]) as f64 / dt as f64
            } else {
                0.0
            };
            self.prev_disk_busy[g] = busy;
            row.push(frac);
        }
        for (a, c) in self.channels.iter().enumerate() {
            let busy = c.busy_ns();
            let frac = if dt > 0 {
                (busy - self.prev_chan_busy[a]) as f64 / dt as f64
            } else {
                0.0
            };
            self.prev_chan_busy[a] = busy;
            row.push(frac);
        }
        for cache in &self.caches {
            row.push(cache.dirty_count() as f64);
            row.push((cache.len() - cache.dirty_count()) as f64);
        }
        ts.push(now_ns, row);
        self.last_sample_ns = now_ns;

        let work_left = self.arrivals_remaining()
            || self.inflight > 0
            || self.caches.iter().any(|c| c.dirty_count() > 0)
            || self.spools.iter().any(|s| !s.is_empty())
            || self.fault.as_ref().is_some_and(|f| {
                f.arr.iter().any(|a| a.rebuild_active)
                    || (f.fcfg.scrub_rate_mbps > 0 && f.scrub.iter().any(|s| !s.done))
            });
        if work_left {
            self.engine
                .schedule_at(now + self.sample_period_ns, Ev::Sample);
        }
    }
}
