//! Deterministic fleet trace router: per-tenant substreams merged into one
//! fleet arrival stream.
//!
//! Each tenant gets its own [`SynthSpec`]-generated substream (own seed,
//! own skew, own mix) over the logical disk span of the virtual array it
//! was placed on. The router merges the substreams into one time-sorted
//! *master* trace in fleet-global logical disk numbering, tagging every
//! record with its tenant.
//!
//! **Tie rule.** Records carrying the same arrival timestamp merge in
//! stream order: the tenant listed earlier in the `streams` slice wins,
//! and within one stream records keep their generated order. The rule is
//! arbitrary but *fixed* — the fleet's serial and parallel runs both
//! consume the identical master stream, which is what keeps them
//! byte-identical.
//!
//! Downstream, the fleet runner pre-splits the master by virtual array
//! through [`Trace::split_arrivals`], so each VA sees exactly its own
//! arrivals: every routed record lands in exactly one VA's feed (zero
//! replay amplification).

use crate::record::Trace;
use crate::synth::SynthSpec;

/// One tenant's substream: a synthetic workload placed at a fleet-global
/// logical disk offset.
#[derive(Clone, Debug)]
pub struct TenantStream {
    /// Stable tenant index — becomes the request class downstream.
    pub tenant: u16,
    /// First fleet-global logical disk of the tenant's placement (the
    /// start of its virtual array's span).
    pub base_disk: u32,
    /// The tenant's workload over `spec.n_disks` logical disks starting at
    /// `base_disk`. The spec's seed makes the substream deterministic.
    pub spec: SynthSpec,
}

/// The routed fleet arrival stream: one merged, time-sorted trace over the
/// fleet's global logical disk space, plus a per-record tenant tag.
#[derive(Clone, Debug)]
pub struct RoutedTrace {
    pub master: Trace,
    /// `tenant_of[i]` is the tenant of `master.records[i]`.
    pub tenant_of: Vec<u16>,
    pub n_tenants: u16,
}

/// Generate every tenant's substream and merge them into one fleet trace.
///
/// `total_disks` is the fleet's logical disk count (the sum of the VA
/// spans); `blocks_per_disk` must be at least every stream's own
/// `blocks_per_disk` so the master's addresses validate (per-VA traces are
/// re-bounded to their own geometry when the fleet runner materializes
/// them).
pub fn route(
    total_disks: u32,
    blocks_per_disk: u64,
    streams: &[TenantStream],
) -> Result<RoutedTrace, String> {
    for (i, s) in streams.iter().enumerate() {
        if streams[..i].iter().any(|p| p.tenant == s.tenant) {
            return Err(format!("duplicate tenant id {}", s.tenant));
        }
        let end = s.base_disk as u64 + s.spec.n_disks as u64;
        if end > total_disks as u64 {
            return Err(format!(
                "tenant {} spans disks {}..{} but the fleet has {}",
                s.tenant, s.base_disk, end, total_disks
            ));
        }
        if s.spec.blocks_per_disk > blocks_per_disk {
            return Err(format!(
                "tenant {} addresses {} blocks/disk but the fleet caps at {}",
                s.tenant, s.spec.blocks_per_disk, blocks_per_disk
            ));
        }
    }

    // Generate each substream in fleet-global disk numbering.
    let subs: Vec<Trace> = streams
        .iter()
        .map(|s| {
            let mut t = s.spec.generate();
            for r in &mut t.records {
                r.disk += s.base_disk;
            }
            t
        })
        .collect();

    // K-way merge on (arrival time, stream order). `pos[k]` is the cursor
    // into substream `k`; ties pick the smallest stream index, so equal
    // timestamps resolve by the documented stream-order rule.
    let total: usize = subs.iter().map(Trace::len).sum();
    let mut master = Trace::new(total_disks, blocks_per_disk);
    master.records.reserve(total);
    let mut tenant_of = Vec::with_capacity(total);
    let mut pos = vec![0usize; subs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (k, t) in subs.iter().enumerate() {
            let Some(r) = t.records.get(pos[k]) else {
                continue;
            };
            let better = match best {
                None => true,
                Some(b) => r.at < subs[b].records[pos[b]].at,
            };
            if better {
                best = Some(k);
            }
        }
        let Some(k) = best else {
            break;
        };
        master.records.push(subs[k].records[pos[k]]);
        tenant_of.push(streams[k].tenant);
        pos[k] += 1;
    }
    debug_assert_eq!(master.len(), total);

    Ok(RoutedTrace {
        master,
        tenant_of,
        n_tenants: streams.iter().map(|s| s.tenant + 1).max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64, n_disks: u32, n_requests: usize) -> SynthSpec {
        let mut s = SynthSpec::trace2();
        s.seed = seed;
        s.n_disks = n_disks;
        s.n_requests = n_requests;
        s.duration_secs = n_requests as f64 * 0.01;
        s
    }

    #[test]
    fn merge_is_time_sorted_and_complete() {
        let streams = vec![
            TenantStream {
                tenant: 0,
                base_disk: 0,
                spec: tiny_spec(1, 4, 200),
            },
            TenantStream {
                tenant: 1,
                base_disk: 4,
                spec: tiny_spec(2, 6, 300),
            },
        ];
        let routed = route(10, 226_800, &streams).unwrap();
        assert_eq!(routed.master.len(), 500);
        assert_eq!(routed.tenant_of.len(), 500);
        assert!(routed.master.validate().is_ok());
        // Every record stays inside its tenant's span.
        for (r, &t) in routed.master.records.iter().zip(&routed.tenant_of) {
            match t {
                0 => assert!(r.disk < 4),
                _ => assert!((4..10).contains(&r.disk)),
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let streams = vec![
            TenantStream {
                tenant: 0,
                base_disk: 0,
                spec: tiny_spec(7, 3, 150),
            },
            TenantStream {
                tenant: 1,
                base_disk: 3,
                spec: tiny_spec(8, 3, 150),
            },
        ];
        let a = route(6, 226_800, &streams).unwrap();
        let b = route(6, 226_800, &streams).unwrap();
        assert_eq!(a.master, b.master);
        assert_eq!(a.tenant_of, b.tenant_of);
    }

    #[test]
    fn rejects_bad_streams() {
        let s = |tenant, base_disk, nd| TenantStream {
            tenant,
            base_disk,
            spec: tiny_spec(1, nd, 10),
        };
        let e = route(4, 226_800, &[s(0, 0, 2), s(0, 2, 2)]).unwrap_err();
        assert!(e.contains("duplicate tenant id"), "{e}");
        let e = route(4, 226_800, &[s(0, 2, 4)]).unwrap_err();
        assert!(e.contains("spans disks"), "{e}");
        let mut big = s(0, 0, 2);
        big.spec.blocks_per_disk = 1 << 40;
        let e = route(4, 226_800, &[big]).unwrap_err();
        assert!(e.contains("caps at"), "{e}");
    }
}
