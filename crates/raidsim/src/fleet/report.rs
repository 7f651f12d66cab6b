//! Fleet-level reporting: per-VA reports, per-tenant statistics, rebuild
//! blast radius, and the merged run-stats ledger.
//!
//! Nothing here touches wall-clock time: throughput is events per
//! **simulated** second, so the report — like [`crate::SimReport`] — is a
//! pure function of (spec, seed) and can be hashed for determinism checks.

use super::alloc::FleetPlan;
use super::config::FleetConfig;
use crate::report::{ClassReport, SimReport};
use crate::sim::{PartStats, RunStats};
use raidtp_stats::Welford;
use serde::Serialize;

/// One virtual array's outcome as produced by the runner.
pub(super) struct VaOutcome {
    pub report: SimReport,
    pub stats: RunStats,
    pub classes: Vec<ClassReport>,
    pub arrivals: u64,
}

/// One virtual array's slice of the fleet report.
#[derive(Clone, Debug, Serialize)]
pub struct VaReport {
    pub name: String,
    pub organization: String,
    pub disk_class: String,
    /// Tenant ids placed on this VA, in placement order.
    pub tenants: Vec<String>,
    /// Whether the VA lost a disk during the run (statically failed, or a
    /// mid-run failure fired) — the blast-radius predicate.
    pub degraded: bool,
    pub report: SimReport,
}

/// One tenant's cross-VA view: response statistics from its request class,
/// merged exactly (Welford + histogram bucket addition).
#[derive(Clone, Debug, Serialize)]
pub struct TenantReport {
    pub id: String,
    /// Name of the virtual array hosting this tenant.
    pub va: String,
    pub completed: u64,
    pub response_ms: Welford,
    pub p99_ms: f64,
    /// The tenant sits inside some VA's failure blast radius.
    pub degraded: bool,
}

/// The whole fleet's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct FleetReport {
    pub vas: Vec<VaReport>,
    pub tenants: Vec<TenantReport>,
    pub requests_completed: u64,
    /// Longest simulated span across the VAs, seconds.
    pub elapsed_secs: f64,
    /// Engine events per simulated second, fleet-wide (never wall-clock:
    /// that would make the report nondeterministic).
    pub events_per_sim_sec: f64,
    /// Tenant ids degraded by a disk failure, in tenant declaration order —
    /// the rebuild blast radius.
    pub blast_radius: Vec<String>,
}

impl FleetReport {
    /// Merge per-VA outcomes (in VA index order) into the fleet report and
    /// the aggregate run-stats ledger.
    pub(super) fn assemble(
        fleet: &FleetConfig,
        plan: &FleetPlan,
        outcomes: Vec<VaOutcome>,
    ) -> (FleetReport, RunStats) {
        let va_degraded: Vec<bool> = plan
            .vas
            .iter()
            .zip(&outcomes)
            .map(|(va, o)| {
                va.config.failed_disk.is_some()
                    || o.report
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.disk_failures > 0 || f.degraded_window_ms > 0.0)
            })
            .collect();

        // Per-tenant class reports, merged across VAs in VA index order
        // (exact merges, so the fold order only matters for determinism —
        // and VA index order is fixed).
        let mut merged: Vec<ClassReport> = (0..fleet.tenants.len())
            .map(|_| ClassReport::new())
            .collect();
        for o in &outcomes {
            for (t, c) in o.classes.iter().enumerate() {
                merged[t].merge(c);
            }
        }
        let tenants: Vec<TenantReport> = fleet
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let v = plan.placement[t];
                TenantReport {
                    id: spec.id.clone(),
                    va: plan.vas[v].name.clone(),
                    completed: merged[t].completed,
                    response_ms: merged[t].response_ms,
                    p99_ms: merged[t].p99_ms(),
                    degraded: va_degraded[v],
                }
            })
            .collect();
        let blast_radius = tenants
            .iter()
            .filter(|t| t.degraded)
            .map(|t| t.id.clone())
            .collect();

        let requests_completed = outcomes.iter().map(|o| o.report.requests_completed).sum();
        let elapsed_secs = outcomes
            .iter()
            .map(|o| o.report.elapsed_secs)
            .fold(0.0, f64::max);
        let events_processed: u64 = outcomes.iter().map(|o| o.stats.events_processed).sum();
        let events_per_sim_sec = if elapsed_secs > 0.0 {
            events_processed as f64 / elapsed_secs
        } else {
            0.0
        };

        let partitions: Vec<PartStats> = outcomes
            .iter()
            .map(|o| PartStats {
                arrivals_owned: o.arrivals,
                events_processed: o.stats.events_processed,
            })
            .collect();
        let stats = RunStats {
            events_processed,
            peak_pending: outcomes
                .iter()
                .map(|o| o.stats.peak_pending)
                .max()
                .unwrap_or(0),
            partitions,
            // Every routed arrival is owned by exactly one VA feed (the
            // pre-split is disjoint and exhaustive), so the fleet executes
            // precisely the serial event count: amplification 1 by
            // construction.
            replay_amplification: 1.0,
        };

        let vas = plan
            .vas
            .iter()
            .zip(outcomes)
            .zip(va_degraded)
            .map(|((va, o), degraded)| VaReport {
                name: va.name.clone(),
                organization: va.organization.label().to_string(),
                disk_class: va.disk_class.clone(),
                tenants: va
                    .tenants
                    .iter()
                    .map(|&t| fleet.tenants[t].id.clone())
                    .collect(),
                degraded,
                report: o.report,
            })
            .collect();

        (
            FleetReport {
                vas,
                tenants,
                requests_completed,
                elapsed_secs,
                events_per_sim_sec,
                blast_radius,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::run::run_fleet;
    use super::*;

    #[test]
    fn blast_radius_names_exactly_the_tenants_on_failed_vas() {
        let fleet = FleetConfig::demo();
        let (report, _) = run_fleet(&fleet, 2).unwrap();
        // va00 carries the demo's mid-run failure.
        let failed: Vec<&VaReport> = report.vas.iter().filter(|v| v.degraded).collect();
        assert!(!failed.is_empty(), "demo fleet must degrade va00");
        assert!(failed.iter().any(|v| v.name == "va00"));
        let expected: Vec<String> = report
            .tenants
            .iter()
            .filter(|t| report.vas.iter().any(|v| v.degraded && v.name == t.va))
            .map(|t| t.id.clone())
            .collect();
        assert_eq!(report.blast_radius, expected);
        for t in &report.tenants {
            assert_eq!(
                t.degraded,
                report.blast_radius.contains(&t.id),
                "tenant {} blast flag inconsistent",
                t.id
            );
        }
    }

    #[test]
    fn fleet_totals_are_the_sum_of_va_reports() {
        let fleet = FleetConfig::small();
        let (report, stats) = run_fleet(&fleet, 1).unwrap();
        let va_sum: u64 = report.vas.iter().map(|v| v.report.requests_completed).sum();
        assert_eq!(report.requests_completed, va_sum);
        let tenant_sum: u64 = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(
            tenant_sum, va_sum,
            "every completion belongs to exactly one tenant"
        );
        assert_eq!(stats.partitions.len(), report.vas.len());
        assert!(report.events_per_sim_sec > 0.0);
    }
}
