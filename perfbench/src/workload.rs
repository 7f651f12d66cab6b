//! The four workloads, each a pure function of the benchmark seed.

use raidsim::{CacheConfig, FleetConfig, Organization, ParityPlacement, SimConfig};
use tracegen::SynthSpec;

pub const NAMES: [&str; 4] = ["oltp-raw", "oltp-cached", "burst-write", "fleet-mixed"];

/// The five organizations of the paper, with the short names used in
/// metric names (`sim.run_s.<name>`).
pub const ORGS: [(&str, Organization); 5] = [
    ("base", Organization::Base),
    ("mirror", Organization::Mirror),
    ("raid5", Organization::Raid5 { striping_unit: 1 }),
    ("raid4", Organization::Raid4 { striping_unit: 1 }),
    (
        "parstrip",
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ),
];

/// Trace 1 scale of the `oltp-*` workloads: 336K requests on 130 disks.
const OLTP_SCALE: f64 = 0.1;
/// `burst-write` runs Trace 2 at twice its arrival speed with this many
/// times its request count (278K requests), so a pass is long enough to
/// time.
const BURST_SPEED: f64 = 2.0;
const BURST_LENGTH: usize = 4;
/// `fleet-mixed` runs this many fleets, each from its own seed, per
/// round. How long generating a tenant's substream takes varies several-
/// fold with its seed; four fleets (64 substreams) average that out.
const FLEETS_PER_ROUND: u64 = 16;

/// A single-array-configuration workload: one trace, replayed through a
/// fresh simulator per organization.
pub struct ArrayWorkload {
    pub trace: SynthSpec,
    pub cached: bool,
    /// Seed of the simulated disks' rotational phases.
    pub sim_seed: u64,
}

impl ArrayWorkload {
    pub fn config(&self, org: Organization) -> SimConfig {
        let mut cfg = SimConfig::with_organization(org);
        if self.cached {
            cfg.cache = Some(CacheConfig::default());
        }
        cfg.seed = self.sim_seed;
        cfg
    }
}

pub enum Workload {
    Array(ArrayWorkload),
    /// A fleet spec (the text of `fleet-mixed.spec`) and the seeds that
    /// replace the spec's own: one fleet per seed in every round.
    Fleet {
        spec: String,
        seeds: Vec<u64>,
    },
}

impl Workload {
    /// Build workload `name` for benchmark seed `seed`; `fleet_spec` is
    /// the text of the fleet spec file.
    pub fn new(name: &str, seed: u64, fleet_spec: &str) -> Option<Workload> {
        let trace_seed = mix(seed, 1);
        let sim_seed = mix(seed, 2);
        let oltp = |cached| {
            let mut trace = SynthSpec::trace1().scaled(OLTP_SCALE);
            trace.seed = trace_seed;
            Workload::Array(ArrayWorkload {
                trace,
                cached,
                sim_seed,
            })
        };
        Some(match name {
            "oltp-raw" => oltp(false),
            "oltp-cached" => oltp(true),
            "burst-write" => {
                let mut trace = SynthSpec::trace2().at_speed(BURST_SPEED);
                trace.n_requests *= BURST_LENGTH;
                trace.duration_secs *= BURST_LENGTH as f64;
                trace.seed = trace_seed;
                Workload::Array(ArrayWorkload {
                    trace,
                    cached: false,
                    sim_seed,
                })
            }
            "fleet-mixed" => Workload::Fleet {
                spec: fleet_spec.to_string(),
                seeds: (0..FLEETS_PER_ROUND).map(|k| mix(seed, 3 + k)).collect(),
            },
            _ => return None,
        })
    }
}

/// Parse the fleet spec and give it the benchmark's seed.
pub fn fleet_config(spec: &str, seed: u64) -> Result<FleetConfig, String> {
    let mut fleet = FleetConfig::parse_spec(spec)?;
    fleet.seed = seed;
    Ok(fleet)
}

/// splitmix64 of `seed` and a per-use salt: decorrelated sub-seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_and_seeds_reach_the_inputs() {
        for name in NAMES {
            assert!(Workload::new(name, 1, "").is_some(), "{name}");
        }
        assert!(Workload::new("nope", 1, "").is_none());
        let seed_of = |seed| match Workload::new("oltp-raw", seed, "") {
            Some(Workload::Array(w)) => (w.trace.seed, w.sim_seed),
            _ => unreachable!(),
        };
        assert_eq!(seed_of(1), seed_of(1));
        assert_ne!(seed_of(1), seed_of(2));
    }
}
