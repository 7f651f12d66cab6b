//! Parallel-execution fidelity. The crate has one parallel model:
//! independent units (fleet virtual arrays, sweep points) run on one worker
//! pool and merge in index order. A parallel run must be a *perfect*
//! stand-in for the serial one — not statistically close, byte identical
//! at every thread count — because the determinism guarantee
//! (tests/determinism.rs) is what makes the paper's organization
//! comparisons meaningful.

/// The fleet generates and routes each virtual array's tenants inside
/// that VA's own pool unit, which is sound only if routing one VA's
/// tenants (in increasing tenant order, at `base_disk` 0, tagged by local
/// position) equals the fleet-wide route over every tenant restricted to
/// the VA's disk span and re-based: the same records, in the same order,
/// with the same tenants. Exercised over random multi-tenant placements,
/// and over dense specs (`duration_secs` ≈ `n_requests` × 1 ns) whose
/// streams collide on equal timestamps, so the tie rule (earlier tenant
/// first) is what decides the order.
mod route_restriction_prop {
    use proptest::prelude::*;
    use tracegen::{route, SynthSpec, TenantStream};

    const BLOCKS_PER_DISK: u64 = 226_800;

    fn spec(seed: u64, n_disks: u32, n_requests: usize, dense: bool) -> SynthSpec {
        let mut s = SynthSpec::trace2();
        s.seed = seed;
        s.n_disks = n_disks;
        s.blocks_per_disk = BLOCKS_PER_DISK;
        s.n_requests = n_requests;
        s.duration_secs = n_requests as f64 * if dense { 1e-9 } else { 1e-3 };
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn per_va_route_equals_the_global_route_restricted(
            seed in any::<u64>(),
            widths in proptest::collection::vec(1u32..=4, 1..=5),
            tenants in proptest::collection::vec((0usize..5, 1usize..=80, any::<bool>()), 1..=8),
        ) {
            // Contiguous VA spans; tenant `t` sits on VA `pick % vas`.
            let bases: Vec<u32> = widths
                .iter()
                .scan(0, |b, &w| {
                    *b += w;
                    Some(*b - w)
                })
                .collect();
            let total: u32 = widths.iter().sum();
            let va_of: Vec<usize> = tenants.iter().map(|&(pick, ..)| pick % widths.len()).collect();
            let tenant_spec = |t: usize| {
                let (_, n, dense) = tenants[t];
                spec(seed.wrapping_add(t as u64), widths[va_of[t]], n, dense)
            };

            let global_streams: Vec<TenantStream> = (0..tenants.len())
                .map(|t| TenantStream {
                    tenant: t as u16,
                    base_disk: bases[va_of[t]],
                    spec: tenant_spec(t),
                })
                .collect();
            let global = route(total, BLOCKS_PER_DISK, &global_streams).unwrap();

            let mut routed_total = 0;
            for (v, (&base, &width)) in bases.iter().zip(&widths).enumerate() {
                let on_va: Vec<usize> = (0..tenants.len()).filter(|&t| va_of[t] == v).collect();
                let local_streams: Vec<TenantStream> = on_va
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| TenantStream {
                        tenant: i as u16,
                        base_disk: 0,
                        spec: tenant_spec(t),
                    })
                    .collect();
                let local = route(width, BLOCKS_PER_DISK, &local_streams).unwrap();
                routed_total += local.master.len();

                // The global route's records on this VA's span, re-based,
                // tagged with the tenant's local position.
                let mut expect_records = Vec::new();
                let mut expect_tenants = Vec::new();
                for (r, &t) in global.master.records.iter().zip(&global.tenant_of) {
                    if (base..base + width).contains(&r.disk) {
                        let mut r = *r;
                        r.disk -= base;
                        expect_records.push(r);
                        let pos = on_va.iter().position(|&u| u == t as usize);
                        expect_tenants.push(pos.expect("a record on the span belongs to a tenant of the VA") as u16);
                    }
                }
                prop_assert_eq!(&local.master.records, &expect_records, "VA {} records differ", v);
                prop_assert_eq!(&local.tenant_of, &expect_tenants, "VA {} tenant tags differ", v);
            }
            prop_assert_eq!(routed_total, global.master.len(), "per-VA routes lost or duplicated records");
        }
    }
}

/// Work-stealing whole virtual arrays must reproduce the serial fleet
/// bytes. The built-in demo fleet is the acceptance scenario — 16 VAs
/// cycling all five organizations over two disk classes, six tenants, and
/// a mid-run disk failure on va00 — so this pins byte-identity for the
/// full heterogeneous matrix at 1 (serial), 2, 3, and 8 VA-level threads,
/// RunStats included (replay amplification is exactly 1.0 by
/// construction: every arrival is generated inside the one VA that owns
/// it).
#[test]
fn fleet_parallel_matches_serial_bytes_at_every_thread_count() {
    let fleet = raidsim::FleetConfig::demo();
    let (serial_report, serial_stats) =
        raidsim::run_fleet(&fleet, 1).expect("the demo fleet runs serially");
    assert_eq!(
        serial_stats.replay_amplification, 1.0,
        "fleet routing must not replay any arrival"
    );
    let serial = format!("{serial_report:#?}\n{serial_stats:#?}");
    for threads in [2, 3, 8] {
        let (report, stats) =
            raidsim::run_fleet(&fleet, threads).expect("the demo fleet runs in parallel");
        let par = format!("{report:#?}\n{stats:#?}");
        assert_eq!(
            par, serial,
            "fleet run at {threads} threads diverged from serial"
        );
    }
}
