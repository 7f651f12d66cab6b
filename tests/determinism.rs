//! Replay-fidelity guarantee: the same trace and seed must yield the same
//! figures, or the paper's Table 3/4 organization comparisons are noise.
//!
//! Each of the five organizations is run twice with an identical trace and
//! seed — cached and non-cached — and the fully serialized [`SimReport`]s
//! (every statistic, histogram bin, per-disk counter, and time-series
//! sample) must be **byte-identical**. A third run with a different seed
//! must differ, proving the seed actually reaches the model instead of
//! being ignored.
//!
//! The static half of this guarantee keeps nondeterminism out of the
//! sim-core crates in the first place: clippy's `clippy.toml` bans hash
//! iteration, wall-clock and environment reads, and
//! `cargo run -p simlint -- --deny` guards the fault-stream and
//! parallelism seams.

use raidsim::{
    CacheConfig, DiskFailure, FaultConfig, NamedRun, Organization, ParityPlacement, SimConfig,
    Simulator,
};
use tracegen::{SynthSpec, Trace};

fn organizations() -> [Organization; 5] {
    [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ]
}

/// Serialize a report to a canonical byte string. `{:#?}` prints every
/// field recursively with full float formatting, so two identical strings
/// mean two identical reports.
fn serialized_report(cfg: SimConfig, trace: &Trace) -> String {
    format!("{:#?}", Simulator::new(cfg, trace).run())
}

/// FNV-1a, for compact logging of report identities in test output.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config(org: Organization, cached: bool, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_organization(org);
    if cached {
        cfg.cache = Some(CacheConfig::default());
    }
    cfg.seed = seed;
    cfg
}

#[test]
fn same_seed_reports_are_byte_identical() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        for cached in [false, true] {
            let a = serialized_report(config(org, cached, 7), &trace);
            let b = serialized_report(config(org, cached, 7), &trace);
            println!(
                "report-hash {:>8} cached={} seed=7 fnv1a={:016x}",
                org.label(),
                cached,
                fnv1a(a.as_bytes())
            );
            assert_eq!(
                a,
                b,
                "{} (cached={}) replayed with the same trace and seed must \
                 produce a byte-identical report",
                org.label(),
                cached
            );
        }
    }
}

#[test]
fn different_seed_reports_differ() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        for cached in [false, true] {
            let a = serialized_report(config(org, cached, 7), &trace);
            let c = serialized_report(config(org, cached, 8), &trace);
            assert_ne!(
                a,
                c,
                "{} (cached={}): changing the seed must change the report — \
                 otherwise the seed never reaches the model",
                org.label(),
                cached
            );
        }
    }
}

/// Degraded mode (a disk dead from time zero) replays byte-identically for
/// every redundant organization.
#[test]
fn degraded_mode_reports_are_byte_identical() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        if org == Organization::Base {
            continue; // Base has no redundancy and cannot run degraded
        }
        let degraded = |seed| {
            let mut cfg = config(org, false, seed);
            cfg.failed_disk = Some((0, 1));
            cfg
        };
        let a = serialized_report(degraded(7), &trace);
        let b = serialized_report(degraded(7), &trace);
        assert_eq!(a, b, "{}: degraded replay diverged", org.label());
    }
}

/// A fault-injected run — mid-run disk failure, aborted/re-planned
/// in-flight operations, online rebuild onto the spare — is a pure
/// function of (trace, config, fault seed): replays are byte-identical
/// and a sweep produces the same bytes at any thread count.
#[test]
fn mid_run_failure_and_rebuild_replay_byte_identically() {
    // Small disks so the rebuild completes inside the run.
    let geometry = diskmodel::DiskGeometry {
        cylinders: 2,
        ..diskmodel::DiskGeometry::default()
    };
    let trace = SynthSpec {
        name: "fault-determinism".into(),
        seed: 0xFA17,
        n_disks: 4,
        blocks_per_disk: geometry.blocks_per_disk(),
        n_requests: 400,
        duration_secs: 8.0,
        ..SynthSpec::trace2()
    }
    .generate();
    let cfg = || {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.geometry = geometry.clone();
        cfg.data_disks_per_array = 4;
        cfg.fault = Some(FaultConfig {
            disk_failure: Some(DiskFailure {
                array: 0,
                disk: 1,
                at_ms: 1000,
            }),
            transient_error_prob: 0.01,
            ..FaultConfig::default()
        });
        cfg
    };

    let a = serialized_report(cfg(), &trace);
    let b = serialized_report(cfg(), &trace);
    assert_eq!(a, b, "fault-injected replay diverged");
    println!("report-hash fault-raid5 fnv1a={:016x}", fnv1a(a.as_bytes()));

    // The same point swept under work stealing: identical bytes whichever
    // thread runs it, at any worker count.
    let runs: Vec<NamedRun<'_>> = (0..4)
        .map(|i| NamedRun::new(format!("pt{i}"), cfg(), &trace))
        .collect();
    for threads in [1, 3, 16] {
        let out = raidsim::run_all(&runs, threads);
        for (label, rep) in &out {
            let s = format!("{:#?}", rep.as_ref().expect("valid config"));
            assert_eq!(
                s, a,
                "{label}: sweep at {threads} threads diverged from the serial run"
            );
        }
    }
}

/// The observability sampler must not perturb timing: a sampled run's
/// response statistics are identical to an unsampled run's.
#[test]
fn sampler_is_timing_neutral_for_all_organizations() {
    let trace = SynthSpec::trace2().scaled(0.01).generate();
    for org in organizations() {
        let plain = Simulator::new(config(org, true, 7), &trace).run();
        let mut sampled_cfg = config(org, true, 7);
        sampled_cfg.observability = raidsim::ObservabilityConfig::sampled(200);
        let sampled = Simulator::new(sampled_cfg, &trace).run();
        assert_eq!(
            format!("{:?}", plain.response_all_ms),
            format!("{:?}", sampled.response_all_ms),
            "{}: enabling the sampler changed simulated timing",
            org.label()
        );
    }
}

/// Multi-tenant fleet pins. The demo and small fleets place several
/// tenants on one virtual array (tenants per VA `[1,0,0,0,2,0,0,0,2,0,1,…]`
/// and `[2,0,1]`), so their reports check the merge of several tenants'
/// substreams inside a VA and the mapping of each VA's class reports back
/// to fleet tenants. Both the report and the `RunStats` are pinned, at one
/// and two threads. (Their tenants never collide on a timestamp; the tie
/// rule itself is checked by the route-restriction proptest in
/// tests/parallel.rs.)
#[test]
fn multi_tenant_fleet_reports_are_pinned() {
    let cases = [
        (
            "demo",
            raidsim::FleetConfig::demo(),
            0x5aa3_2c3f_dccf_a0e5,
            0xccf7_1b8e_c4e6_b708,
        ),
        (
            "small",
            raidsim::FleetConfig::small(),
            0x92ce_2acb_c81c_9316,
            0xe4d2_d4aa_4b86_aa01,
        ),
    ];
    for (name, fleet, report_pin, stats_pin) in cases {
        for threads in [1, 2] {
            let (report, stats) = raidsim::run_fleet(&fleet, threads).expect("fleet runs");
            let r = fnv1a(format!("{report:#?}").as_bytes());
            let s = fnv1a(format!("{stats:#?}").as_bytes());
            println!("fleet-hash {name} threads={threads} report={r:016x} stats={s:016x}");
            assert_eq!(
                r, report_pin,
                "{name} fleet report moved at {threads} threads"
            );
            assert_eq!(
                s, stats_pin,
                "{name} fleet RunStats moved at {threads} threads"
            );
        }
    }
}
