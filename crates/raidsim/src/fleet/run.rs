//! Fleet execution: route tenant substreams, pre-split by virtual array,
//! simulate VAs serially or in parallel, merge in VA index order.
//!
//! The virtual array is the unit of execution: VAs share no simulator
//! state (each is its own `Simulator` over its own pre-split arrival
//! feed), so the crate's one worker pool (`crate::pool::map`) runs whole
//! VAs and returns their outcomes by VA index. The merge consumes them in
//! that order regardless of completion order, which makes the parallel
//! fleet run byte-identical to the serial one.
//!
//! Warm-start pools are shared per **disk class**: every VA's `SimConfig`
//! carries the fleet seed and its class's geometry and seek curve, which
//! are exactly the parameters [`crate::WarmDisks::matches`] checks, so one
//! pool per class warm-starts every VA of that class (cold fallback remains
//! byte-identical by the single-array warm-start contract).

use super::alloc::{allocate, FleetPlan};
use super::config::FleetConfig;
use super::report::{FleetReport, VaOutcome};
use crate::config::SimConfig;
use crate::pool;
use crate::sim::{RunStats, WarmPools};
use tracegen::{route, SynthSpec, TenantStream, Trace};

/// One virtual array's ready-to-run inputs.
pub(super) struct VaJob {
    config: SimConfig,
    /// The VA's arrivals in VA-local disk numbering.
    trace: Trace,
    /// Per-record tenant index (the request class).
    classes: Vec<u16>,
}

/// Build tenant `t`'s substream spec: the Trace-2 OLTP shape re-skinned
/// with the tenant's demand, skew, and write mix over its VA's span.
fn tenant_substream(fleet: &FleetConfig, plan: &FleetPlan, t: usize) -> TenantStream {
    let tenant = &fleet.tenants[t];
    let va = &plan.vas[plan.placement[t]];
    let mut spec = SynthSpec::trace2();
    spec.name = tenant.id.clone();
    // Per-tenant seed: the fleet seed mixed with the tenant index through
    // the golden-ratio increment, so substreams are decorrelated but the
    // whole fleet trace stays a pure function of (spec, fleet seed).
    spec.seed = fleet
        .seed
        .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    spec.n_disks = va.data_disks;
    spec.blocks_per_disk = va.config.geometry.blocks_per_disk();
    spec.duration_secs = fleet.duration_secs;
    spec.n_requests = ((tenant.demand_iops * fleet.duration_secs).ceil() as usize).max(1);
    spec.write_fraction = tenant.write_fraction;
    spec.disk_skew_theta = tenant.skew;
    TenantStream {
        tenant: t as u16,
        base_disk: va.base_disk,
        spec,
    }
}

/// Route every tenant substream into the master stream and materialize one
/// pre-split job per VA (records re-based to VA-local disk numbering, each
/// tagged with its tenant class).
fn build_jobs(fleet: &FleetConfig, plan: &FleetPlan) -> Result<Vec<VaJob>, String> {
    let streams: Vec<TenantStream> = (0..fleet.tenants.len())
        .map(|t| tenant_substream(fleet, plan, t))
        .collect();
    let routed = route(plan.total_logical_disks, plan.max_blocks_per_disk, &streams)?;

    // Fleet-global disk → owning VA.
    let mut owner = vec![0usize; plan.total_logical_disks as usize];
    for (v, va) in plan.vas.iter().enumerate() {
        for d in va.base_disk..va.base_disk + va.data_disks {
            owner[d as usize] = v;
        }
    }
    let mut split = routed
        .master
        .split_arrivals(plan.vas.len(), |r| owner[r.disk as usize]);

    let jobs = plan
        .vas
        .iter()
        .enumerate()
        .map(|(v, va)| {
            let indices = split.take_group(v);
            let mut trace = Trace::new(va.data_disks, va.config.geometry.blocks_per_disk());
            trace.records.reserve(indices.len());
            let mut classes = Vec::with_capacity(indices.len());
            for &i in &indices {
                let mut r = routed.master.records[i as usize];
                r.disk -= va.base_disk;
                trace.records.push(r);
                classes.push(routed.tenant_of[i as usize]);
            }
            VaJob {
                config: va.config.clone(),
                trace,
                classes,
            }
        })
        .collect();
    Ok(jobs)
}

/// Simulate one VA job (warm-started from its class pool) and collect its
/// outcome.
fn run_job(job: &VaJob, pools: &WarmPools, n_tenants: u16) -> Result<VaOutcome, String> {
    let mut sim = pools.simulator(job.config.clone(), &job.trace)?;
    sim.set_classes(job.classes.clone(), n_tenants)?;
    let (report, stats, classes) = sim.run_classed();
    Ok(VaOutcome {
        report,
        stats,
        classes,
        arrivals: job.trace.len() as u64,
    })
}

/// Plan, route, and simulate the whole fleet, `threads`-wide (`0` uses the
/// machine's available parallelism; `1` is fully serial). Any thread count
/// returns byte-identical results.
pub fn run_fleet(fleet: &FleetConfig, threads: usize) -> Result<(FleetReport, RunStats), String> {
    let plan = allocate(fleet)?;
    let jobs = build_jobs(fleet, &plan)?;
    let n_tenants = fleet.tenants.len() as u16;

    // One warm pool per disk class, sized for the class's largest VA.
    let pools = WarmPools::new(
        jobs.iter()
            .map(|job| (&job.config, job.config.total_disks(job.trace.n_disks))),
    );
    let out = pool::map(jobs.len(), threads, |v| {
        run_job(&jobs[v], &pools, n_tenants)
    });

    // Merge in VA index order — completion order never leaks into the
    // report, which is what keeps every thread count byte-identical.
    let mut outcomes = Vec::with_capacity(out.len());
    for (r, va) in out.into_iter().zip(&plan.vas) {
        outcomes.push(r.map_err(|e| format!("virtual array {:?}: {e}", va.name))?);
    }
    Ok(FleetReport::assemble(fleet, &plan, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_runs_end_to_end() {
        let fleet = FleetConfig::small();
        let (report, stats) = run_fleet(&fleet, 1).unwrap();
        assert_eq!(report.vas.len(), fleet.arrays.len());
        assert_eq!(report.tenants.len(), fleet.tenants.len());
        assert!(report.requests_completed > 0);
        assert!(stats.events_processed > 0);
        // Zero replay amplification by construction: every routed record
        // lands in exactly one VA's feed.
        assert!((stats.replay_amplification - 1.0).abs() < 1e-12);
        let owned: u64 = stats.partitions.iter().map(|p| p.arrivals_owned).sum();
        let demand: usize = fleet
            .tenants
            .iter()
            .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as usize).max(1))
            .sum();
        assert_eq!(
            owned as usize, demand,
            "router must neither drop nor duplicate arrivals"
        );
    }

    #[test]
    fn parallel_fleet_matches_serial_bytes() {
        let fleet = FleetConfig::small();
        let serial = format!("{:#?}", run_fleet(&fleet, 1).unwrap().0);
        for threads in [2, 3] {
            let par = format!("{:#?}", run_fleet(&fleet, threads).unwrap().0);
            assert_eq!(par, serial, "fleet diverged at {threads} threads");
        }
    }

    #[test]
    fn every_tenant_reports_completions() {
        let fleet = FleetConfig::small();
        let (report, _) = run_fleet(&fleet, 2).unwrap();
        for t in &report.tenants {
            assert!(t.completed > 0, "tenant {} completed nothing", t.id);
            assert!(t.p99_ms > 0.0);
        }
    }
}
