//! Output checks: invariants every report must satisfy, and report digests
//! compared against the ones recorded in `digests.txt`.

use std::fmt::Write;

use raidsim::{FleetReport, RunStats, SimReport};

/// FNV-1a over the `{:#?}` form of a report, as 16 hex digits. `{:#?}`
/// prints every field with full float precision, so equal digests mean
/// equal reports. The form is hashed as it is written, never held whole,
/// so checking a report adds nothing to the peak memory measured.
pub fn digest(report: &impl std::fmt::Debug) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Writing into `Fnv` cannot fail, and a `Debug` impl that fails would
    // leave a digest that matches nothing recorded.
    let _ = write!(h, "{report:#?}");
    format!("{:016x}", h.0)
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A cheap identity of a report: requests, disk operations, and the bits
/// of the mean response time and the simulated span. Rounds after the
/// first compare this instead of formatting the whole report again.
pub fn fingerprint(r: &SimReport) -> [u64; 4] {
    [
        r.requests_completed,
        r.disk_ops,
        r.mean_response_ms().to_bits(),
        r.elapsed_secs.to_bits(),
    ]
}

/// Invariants of one simulated run over a trace of `records` requests.
pub fn check_report(r: &SimReport, records: u64) -> Result<(), String> {
    let org = &r.organization;
    if r.requests_completed != records {
        return Err(format!(
            "{org}: {} requests completed, trace has {records}",
            r.requests_completed
        ));
    }
    if r.reads_completed + r.writes_completed != r.requests_completed {
        return Err(format!(
            "{org}: {} reads + {} writes != {} completed",
            r.reads_completed, r.writes_completed, r.requests_completed
        ));
    }
    for (dir, phases, resp) in [
        ("read", &r.phases_reads, &r.response_reads_ms),
        ("write", &r.phases_writes, &r.response_writes_ms),
    ] {
        if phases.count() != resp.count() {
            return Err(format!(
                "{org}: {} {dir} phase samples for {} {dir} responses",
                phases.count(),
                resp.count()
            ));
        }
        let (sum, mean) = (phases.mean_total_ms(), resp.mean());
        if (sum - mean).abs() > 1e-9 * mean.abs().max(1.0) {
            return Err(format!(
                "{org}: {dir} phase means sum to {sum} ms, mean response is {mean} ms"
            ));
        }
    }
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    if let Some(u) = r.disk_utilization.iter().find(|&&u| !unit(u)) {
        return Err(format!("{org}: disk utilization {u} outside [0, 1]"));
    }
    if let Some(u) = r.channel_utilization.iter().find(|&&u| !unit(u)) {
        return Err(format!("{org}: channel utilization {u} outside [0, 1]"));
    }
    for (what, x) in [("read", r.read_hit_ratio()), ("write", r.write_hit_ratio())] {
        if !unit(x) {
            return Err(format!("{org}: {what} hit ratio {x} outside [0, 1]"));
        }
    }
    Ok(())
}

/// Invariants of a fleet run: every virtual array received arrivals, and
/// each one's report passes [`check_report`] against its own arrivals.
pub fn check_fleet(report: &FleetReport, stats: &RunStats) -> Result<(), String> {
    if stats.partitions.len() != report.vas.len() {
        return Err(format!(
            "{} partition ledgers for {} virtual arrays",
            stats.partitions.len(),
            report.vas.len()
        ));
    }
    let idle: Vec<&str> = report
        .vas
        .iter()
        .zip(&stats.partitions)
        .filter(|(_, p)| p.arrivals_owned == 0)
        .map(|(va, _)| va.name.as_str())
        .collect();
    if !idle.is_empty() {
        return Err(format!(
            "virtual arrays without arrivals: {}",
            idle.join(", ")
        ));
    }
    for (va, part) in report.vas.iter().zip(&stats.partitions) {
        check_report(&va.report, part.arrivals_owned).map_err(|e| format!("{}: {e}", va.name))?;
    }
    let sum: u64 = report.vas.iter().map(|v| v.report.requests_completed).sum();
    if sum != report.requests_completed {
        return Err(format!(
            "fleet reports {} completed, its arrays {sum}",
            report.requests_completed
        ));
    }
    Ok(())
}

/// Digests recorded for known seeds: `workload seed run digest` per line.
pub struct Recorded(Vec<(String, u64, String, String)>);

impl Recorded {
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, run, digest] = f[..] else {
                return Err(format!(
                    "digests line {}: want `workload seed run digest`",
                    i + 1
                ));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("digests line {}: bad seed {seed:?}", i + 1))?;
            rows.push((workload.into(), seed, run.into(), digest.into()));
        }
        Ok(Recorded(rows))
    }

    /// Compare `actual` with the digest recorded for (workload, seed, run);
    /// a combination with no recorded digest passes.
    pub fn verify(&self, workload: &str, seed: u64, run: &str, actual: &str) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|(w, s, r, _)| w == workload && *s == seed && r == run)
        {
            Some((.., want)) if want != actual => Err(format!(
                "report digest {actual} differs from the digest {want} recorded for seed {seed}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidsim::{Organization, SimConfig, Simulator};
    use tracegen::SynthSpec;

    fn small_run() -> (SimReport, u64) {
        let trace = SynthSpec::trace2().scaled(0.01).generate();
        let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        let report = Simulator::try_new(cfg, &trace).unwrap().run();
        (report, trace.len() as u64)
    }

    #[test]
    fn a_real_report_passes_its_invariants() {
        let (r, n) = small_run();
        check_report(&r, n).unwrap();
        assert!(check_report(&r, n + 1).unwrap_err().contains("trace has"));
    }

    #[test]
    fn broken_invariants_are_rejected() {
        let (r, n) = small_run();
        let mut bad = r.clone();
        bad.reads_completed += 1;
        assert!(check_report(&bad, n).unwrap_err().contains("reads"));
        let mut bad = r.clone();
        bad.phases_writes.seek_ms.push(1e6);
        assert!(check_report(&bad, n).is_err());
        let mut bad = r;
        bad.disk_utilization[0] = 1.5;
        assert!(check_report(&bad, n).unwrap_err().contains("utilization"));
    }

    #[test]
    fn digest_check_rejects_a_changed_report() {
        let (r, _) = small_run();
        let d = digest(&r);
        let recorded = Recorded::parse(&format!("# comment\n\nburst-write 1 RAID5 {d}\n")).unwrap();
        recorded.verify("burst-write", 1, "RAID5", &d).unwrap();

        let mut changed = r.clone();
        changed.response_all_ms.push(12.5);
        let e = recorded
            .verify("burst-write", 1, "RAID5", &digest(&changed))
            .unwrap_err();
        assert!(e.contains("differs"), "{e}");
        let mut changed = r;
        changed.elapsed_secs = f64::from_bits(changed.elapsed_secs.to_bits() + 1);
        assert!(recorded
            .verify("burst-write", 1, "RAID5", &digest(&changed))
            .is_err());

        // Seeds and runs without a recorded digest are not compared.
        recorded.verify("burst-write", 2, "RAID5", "0").unwrap();
        recorded.verify("burst-write", 1, "Base", "0").unwrap();
    }

    #[test]
    fn digest_is_fnv1a_of_the_pretty_debug_form() {
        let (r, _) = small_run();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in format!("{r:#?}").as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(digest(&r), format!("{h:016x}"));
    }

    #[test]
    fn malformed_digest_lines_are_errors() {
        assert!(Recorded::parse("oltp-raw 1 Base").is_err());
        assert!(Recorded::parse("oltp-raw one Base ab").is_err());
    }
}
