//! Parallel parameter sweeps.
//!
//! Every experiment in the paper is a grid of independent simulations
//! (organizations × array sizes × cache sizes × …). Runs share no mutable
//! state, so they parallelize perfectly across threads; the immutable
//! inputs — the parsed trace and a warm pool of calibrated disk models —
//! are built once and shared by reference across every point instead of
//! being rebuilt per point.

use crate::config::SimConfig;
use crate::pool;
use crate::report::SimReport;
use crate::sim::WarmPools;
use tracegen::Trace;

/// One sweep point: a label plus its configuration and input trace (traces
/// are shared by reference; generate once, sweep many).
pub struct NamedRun<'a> {
    pub label: String,
    pub config: SimConfig,
    pub trace: &'a Trace,
}

impl<'a> NamedRun<'a> {
    pub fn new(label: impl Into<String>, config: SimConfig, trace: &'a Trace) -> NamedRun<'a> {
        NamedRun {
            label: label.into(),
            config,
            trace,
        }
    }
}

/// Run every sweep point, `threads`-wide, returning reports in input order.
/// `threads = 0` uses the machine's available parallelism.
///
/// A point whose configuration fails [`crate::Simulator::try_new`] — or
/// whose simulation panics outright (say, a malformed trace indexing past
/// the array) — yields `Err(message)` in its result slot instead of
/// poisoning the whole sweep: one bad grid corner must not discard the
/// other N−1 finished simulations.
///
/// Points run on the crate's one worker pool (`pool::map`), which hands
/// out the lowest unclaimed point to whichever worker is free, so a block
/// of slow points (e.g. RAID5 at high load) spreads across the workers.
/// Which thread executes a point never affects its result, and results
/// come back by input index, so the output is bit-identical to a serial
/// sweep in the same order.
pub fn run_all(runs: &[NamedRun<'_>], threads: usize) -> Vec<(String, Result<SimReport, String>)> {
    // Warm-start pools, one per disk class, each sized for the class's
    // largest point. Invalid points (size 0 here) surface their error at
    // construction.
    let pools = WarmPools::new(runs.iter().map(|r| {
        let size = if r.config.data_disks_per_array == 0 {
            0
        } else {
            r.config.total_disks(r.trace.n_disks)
        };
        (&r.config, size)
    }));
    pool::map(runs.len(), threads, |i| {
        let run = &runs[i];
        // Contain a panicking point to its own result slot; the worker
        // lives on to claim the remaining points.
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pools
                .simulator(run.config.clone(), run.trace)
                .map(|s| s.run())
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("simulation panicked: {msg}"))
        });
        (run.label.clone(), report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Organization;
    use crate::sim::Simulator;
    use tracegen::SynthSpec;

    #[test]
    fn parallel_sweep_matches_serial_runs() {
        let trace = SynthSpec::trace2().scaled(0.01).generate();
        let orgs = [
            Organization::Base,
            Organization::Mirror,
            Organization::Raid5 { striping_unit: 1 },
        ];
        let runs: Vec<NamedRun<'_>> = orgs
            .iter()
            .map(|&o| NamedRun::new(o.label(), SimConfig::with_organization(o), &trace))
            .collect();
        let parallel = run_all(&runs, 3);
        assert_eq!(parallel.len(), 3);
        for (i, &org) in orgs.iter().enumerate() {
            let serial = Simulator::new(SimConfig::with_organization(org), &trace).run();
            assert_eq!(parallel[i].0, org.label());
            assert_eq!(
                parallel[i].1.as_ref().unwrap().mean_response_ms(),
                serial.mean_response_ms(),
                "parallel run must be bit-identical to serial for {}",
                org.label()
            );
        }
    }

    /// Work stealing must not reorder or cross-wire results: a mixed
    /// Base/RAID5 grid larger than the worker count comes back in input
    /// order with every entry bit-identical to its serial run, for any
    /// thread count (including more workers than runs).
    #[test]
    fn work_stealing_preserves_order_and_results() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let orgs = [Organization::Base, Organization::Raid5 { striping_unit: 1 }];
        let runs: Vec<NamedRun<'_>> = (0..8)
            .map(|i| {
                let org = orgs[i % 2];
                NamedRun::new(
                    format!("{}#{i}", org.label()),
                    SimConfig::with_organization(org),
                    &trace,
                )
            })
            .collect();
        let serial: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{:?}",
                    Simulator::new(r.config.clone(), r.trace)
                        .run()
                        .response_all_ms
                )
            })
            .collect();
        for threads in [1, 3, 16] {
            let parallel = run_all(&runs, threads);
            assert_eq!(parallel.len(), runs.len());
            for (i, (label, report)) in parallel.iter().enumerate() {
                assert_eq!(label, &runs[i].label, "order broken at {threads} threads");
                assert_eq!(
                    format!("{:?}", report.as_ref().unwrap().response_all_ms),
                    serial[i],
                    "run {i} differs from serial at {threads} threads"
                );
            }
        }
    }

    /// The shared warm-disk pool is an optimization, never a correctness
    /// input: a grid mixing seeds (so only some points match the pool's
    /// parameters and the rest fall back to cold construction) must return
    /// every point byte-identical to its own cold serial run.
    #[test]
    fn warm_started_points_match_cold_runs_across_mixed_seeds() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |org: Organization, seed: u64| {
            let mut cfg = SimConfig::with_organization(org);
            cfg.seed = seed;
            cfg
        };
        let runs = vec![
            NamedRun::new("base-s7", mk(Organization::Base, 7), &trace),
            NamedRun::new("mirror-s7", mk(Organization::Mirror, 7), &trace),
            NamedRun::new("base-s11", mk(Organization::Base, 11), &trace),
            NamedRun::new(
                "raid5-s11",
                mk(Organization::Raid5 { striping_unit: 1 }, 11),
                &trace,
            ),
        ];
        let cold: Vec<String> = runs
            .iter()
            .map(|r| format!("{:#?}", Simulator::new(r.config.clone(), r.trace).run()))
            .collect();
        let out = run_all(&runs, 2);
        for (i, (label, report)) in out.iter().enumerate() {
            assert_eq!(
                format!("{:#?}", report.as_ref().unwrap()),
                cold[i],
                "{label} diverged from its cold run"
            );
        }
    }

    /// Per-disk-class pools (seed × geometry × seek): a grid mixing seeds
    /// *and* drive models warm-starts every class from its own pool, and
    /// every point still comes back byte-identical to its cold serial run.
    #[test]
    fn per_class_pools_cover_mixed_geometry_grids() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |seed: u64, rpm: u32| {
            let mut cfg = SimConfig::with_organization(Organization::Base);
            cfg.seed = seed;
            cfg.geometry.rpm = rpm;
            cfg
        };
        let runs = vec![
            NamedRun::new("s7-5400", mk(7, 5400), &trace),
            NamedRun::new("s7-7200", mk(7, 7200), &trace),
            NamedRun::new("s11-5400", mk(11, 5400), &trace),
            NamedRun::new("s7-5400-b", mk(7, 5400), &trace),
        ];
        let cold: Vec<String> = runs
            .iter()
            .map(|r| format!("{:#?}", Simulator::new(r.config.clone(), r.trace).run()))
            .collect();
        let out = run_all(&runs, 2);
        for (i, (label, report)) in out.iter().enumerate() {
            assert_eq!(
                format!("{:#?}", report.as_ref().unwrap()),
                cold[i],
                "{label} diverged from its cold run"
            );
        }
    }

    #[test]
    fn zero_threads_uses_default_parallelism() {
        let trace = SynthSpec::trace2().scaled(0.002).generate();
        let runs = vec![NamedRun::new(
            "base",
            SimConfig::with_organization(Organization::Base),
            &trace,
        )];
        let out = run_all(&runs, 0);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.as_ref().unwrap().requests_completed > 0);
    }

    /// Regression (panic mid-sweep): a point that panics *inside the
    /// simulation* — not a clean `try_new` error — must neither strand the
    /// points still queued behind it nor discard the points already
    /// finished. Pre-fix, the panic killed its worker and the join
    /// re-raised it, so the whole sweep was lost; at 1 thread literally
    /// every other result vanished.
    #[test]
    fn panicking_point_does_not_strand_or_double_claim_points() {
        let good = SynthSpec::trace2().scaled(0.005).generate();
        // A malformed trace: a record addressing a logical disk far outside
        // the configured database panics inside the event loop.
        let mut poison = SynthSpec::trace2().scaled(0.005).generate();
        poison.records[0].disk = poison.n_disks * 100;
        let cfg = || SimConfig::with_organization(Organization::Base);

        let runs = vec![
            NamedRun::new("ok-0", cfg(), &good),
            NamedRun::new("ok-1", cfg(), &good),
            NamedRun::new("poisoned", cfg(), &poison),
            NamedRun::new("ok-2", cfg(), &good),
            NamedRun::new("ok-3", cfg(), &good),
        ];
        // Quiet the default panic hook for the intentional panic, then
        // restore it so genuine failures still print.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let serial = Simulator::new(cfg(), &good).run().requests_completed;
        for threads in [1, 3, 16] {
            let out = run_all(&runs, threads);
            assert_eq!(out.len(), runs.len(), "lost points at {threads} threads");
            for (i, (label, result)) in out.iter().enumerate() {
                assert_eq!(label, &runs[i].label, "order broken at {threads} threads");
                if label == "poisoned" {
                    let err = result.as_ref().unwrap_err();
                    assert!(
                        err.contains("panicked"),
                        "poisoned point must report its panic, got: {err}"
                    );
                } else {
                    assert_eq!(
                        result.as_ref().unwrap().requests_completed,
                        serial,
                        "{label} diverged at {threads} threads"
                    );
                }
            }
        }
        std::panic::set_hook(hook);
    }

    /// One invalid grid point must not poison the sweep: the bad point
    /// carries its configuration error in its own slot and every valid
    /// point still completes, in input order.
    #[test]
    fn invalid_point_surfaces_error_without_poisoning_sweep() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |su| SimConfig::with_organization(Organization::Raid5 { striping_unit: su });
        let runs = vec![
            NamedRun::new("ok-a", mk(1), &trace),
            NamedRun::new("bad", mk(0), &trace),
            NamedRun::new("ok-b", mk(2), &trace),
        ];
        let out = run_all(&runs, 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, "ok-a");
        assert!(out[0].1.is_ok());
        assert_eq!(out[1].0, "bad");
        let err = out[1].1.as_ref().unwrap_err();
        assert!(err.contains("striping"), "unexpected error: {err}");
        assert_eq!(out[2].0, "ok-b");
        assert!(out[2].1.as_ref().unwrap().requests_completed > 0);
    }
}
