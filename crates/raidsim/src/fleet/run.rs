//! Fleet execution: each virtual array generates, merges, and simulates
//! its own tenants' arrivals as one pool unit; outcomes merge in VA index
//! order.
//!
//! The virtual array is the unit of execution from trace generation
//! onward: VAs share no simulator state and no arrivals (a tenant lives on
//! exactly one VA), so the crate's one worker pool (`crate::pool::map`)
//! runs whole VAs — substream generation, the [`tracegen::route`] merge of
//! the VA's own tenants, and the simulation — and returns their outcomes
//! by VA index. Every arrival is generated inside the one VA that owns it,
//! so replay amplification is 1.0 by construction. Merging in VA index
//! order regardless of completion order makes the parallel fleet run
//! byte-identical to the serial one.
//!
//! Routing per VA is the global route restricted to that VA: streams are
//! listed in increasing tenant index, so the tie rule (equal timestamps →
//! earlier tenant first) orders a VA's records exactly as a fleet-wide
//! merge would.

use super::alloc::{allocate, FleetPlan, VaPlan};
use super::config::FleetConfig;
use super::report::{FleetReport, VaOutcome};
use crate::pool;
use crate::sim::{RunStats, Simulator};
use tracegen::{route, SynthSpec, TenantStream};

/// Tenant `t`'s substream spec: the Trace-2 OLTP shape re-skinned with the
/// tenant's demand, skew, and write mix over the data disks of `va`, its VA.
fn tenant_spec(fleet: &FleetConfig, va: &VaPlan, t: usize) -> SynthSpec {
    let tenant = &fleet.tenants[t];
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
    spec
}

/// Virtual array `v`'s tenant substreams in VA-local disk numbering, in
/// increasing tenant index (the router's tie order), each tagged with its
/// position in `plan.vas[v].tenants`.
fn va_streams(fleet: &FleetConfig, plan: &FleetPlan, v: usize) -> Vec<TenantStream> {
    let va = &plan.vas[v];
    va.tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| TenantStream {
            tenant: i as u16,
            base_disk: 0,
            spec: tenant_spec(fleet, va, t),
        })
        .collect()
}

/// Generate, route, and simulate virtual array `v`.
fn run_va(fleet: &FleetConfig, plan: &FleetPlan, v: usize) -> Result<VaOutcome, String> {
    let va = &plan.vas[v];
    let streams = va_streams(fleet, plan, v);
    let routed = route(
        va.data_disks,
        va.config.geometry.blocks_per_disk(),
        &streams,
    )?;
    let arrivals = routed.master.len() as u64;
    let mut sim = Simulator::try_new(va.config.clone(), &routed.master)?;
    sim.set_classes(routed.tenant_of, streams.len() as u16)?;
    let (report, stats, classes) = sim.run_classed();
    Ok(VaOutcome {
        report,
        stats,
        classes,
        arrivals,
    })
}

/// Plan, generate, and simulate the whole fleet, `threads`-wide (`0` uses
/// the machine's available parallelism; `1` is fully serial). Any thread
/// count returns byte-identical results.
pub fn run_fleet(fleet: &FleetConfig, threads: usize) -> Result<(FleetReport, RunStats), String> {
    let plan = allocate(fleet)?;
    let out = pool::map(plan.vas.len(), threads, |v| run_va(fleet, &plan, v));

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
        // Zero replay amplification by construction: every record is
        // generated inside the one VA that owns it.
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
    fn va_streams_list_tenants_in_increasing_order_with_local_tags() {
        for fleet in [FleetConfig::demo(), FleetConfig::small()] {
            let plan = allocate(&fleet).unwrap();
            for (v, va) in plan.vas.iter().enumerate() {
                let on_va: Vec<usize> = (0..fleet.tenants.len())
                    .filter(|&t| plan.placement[t] == v)
                    .collect();
                assert_eq!(va.tenants, on_va, "{} tenants out of order", va.name);
                let streams = va_streams(&fleet, &plan, v);
                assert_eq!(streams.len(), on_va.len());
                for (i, (s, &t)) in streams.iter().zip(&on_va).enumerate() {
                    assert_eq!(s.tenant as usize, i);
                    assert_eq!(s.base_disk, 0);
                    assert_eq!(s.spec.name, fleet.tenants[t].id);
                }
            }
        }
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
