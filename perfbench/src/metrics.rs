//! Turns what a run measured into the named metrics.

use std::collections::BTreeMap;

use nvcache::CacheStats;
use raidsim::{PhaseWelfords, SimReport};
use raidtp_stats::Welford;

use crate::measure::{Measured, Secs};
use crate::spans::{self_seconds_under, Span};
use crate::stats::median;
use crate::workload::ORGS;

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median simulated requests per reference-speed host second over the
/// untraced rounds (`raw`: per host second as measured).
pub fn requests_per_s(m: &Measured, raw: bool) -> f64 {
    let rates: Vec<f64> = m
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| if raw { r.raw_rate() } else { r.rate() })
        .collect();
    median(&rates)
}

/// Median seconds of one set-up, at reference host speed (`raw`: as
/// measured).
pub fn setup_s(m: &Measured, raw: bool) -> f64 {
    let secs: Vec<f64> = m
        .setups
        .iter()
        .map(|s| if raw { s.secs.raw } else { s.secs.reference })
        .collect();
    median(&secs)
}

/// The metrics a user of the simulator sees, from an untraced run.
pub fn end_to_end(m: &Measured, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("requests_per_s", requests_per_s(m, false), "req/s"),
        metric("setup_s", setup_s(m, false), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// A traced set-up or round: its span's index and the host-speed factor
/// of its time.
type Root = (usize, f64);

/// Median over `roots` of the self seconds, below each root, of the spans
/// named by `pick`, at reference host speed.
fn span_median(spans: &[Span], roots: &[Root], pick: impl Fn(&str) -> bool) -> f64 {
    let per_root: Vec<f64> = roots
        .iter()
        .map(|&(root, factor)| {
            let raw = self_seconds_under(spans, root)
                .iter()
                .filter(|(name, _)| pick(name))
                .fold(0.0, |acc, (_, s)| acc + s);
            raw * factor
        })
        .collect();
    median(&per_root)
}

/// The traced set-ups and rounds as span roots with their host factors.
fn roots(m: &Measured) -> (Vec<Root>, Vec<Root>) {
    let factor = |s: &Secs| {
        if s.raw > 0.0 {
            s.reference / s.raw
        } else {
            1.0
        }
    };
    let setups = m
        .setups
        .iter()
        .filter_map(|s| Some((s.span?, factor(&s.secs))));
    let rounds = m
        .rounds
        .iter()
        .filter_map(|r| Some((r.span?, factor(&r.secs))));
    (setups.collect(), rounds.collect())
}

/// Merge one phase's Welford over both directions of every report and
/// return its mean, ms of simulated time.
fn phase_mean(reports: &[SimReport], f: impl Fn(&PhaseWelfords) -> &Welford) -> f64 {
    let mut all = *f(&reports[0].phases_reads);
    all.merge(f(&reports[0].phases_writes));
    for r in &reports[1..] {
        all.merge(f(&r.phases_reads));
        all.merge(f(&r.phases_writes));
    }
    all.mean()
}

/// The per-layer metrics of a traced run. Host times are self times of
/// the benchmark's spans at reference host speed (median over traced
/// rounds or set-ups); counts
/// are from the first round's reports, summed over its runs. A layer the
/// workload does not use reads 0.
pub fn per_layer(m: &Measured, spans: &[Span]) -> Vec<Metric> {
    let (setup_roots, round_roots) = roots(m);
    let in_setup = |pick: &dyn Fn(&str) -> bool| span_median(spans, &setup_roots, pick);
    let in_round = |pick: &dyn Fn(&str) -> bool| span_median(spans, &round_roots, pick);

    let requests: u64 = m.reports.iter().map(|r| r.requests_completed).sum();
    let per_req = |x: f64| x / requests.max(1) as f64;
    let run_s = in_round(&|n| n.starts_with("sim.run.") || n == "fleet.run");

    let traced: Vec<f64> = m
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.rate())
        .collect();
    let overhead = 1.0 - median(&traced) / requests_per_s(m, false);

    let disks: Vec<f64> = m
        .reports
        .iter()
        .flat_map(|r| r.disk_utilization.iter().copied())
        .collect();
    let channels: Vec<f64> = m
        .reports
        .iter()
        .flat_map(|r| r.channel_utilization.iter().copied())
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&SimReport) -> u64| m.reports.iter().map(f).sum::<u64>() as f64;
    let cache = |f: &dyn Fn(&CacheStats) -> u64| {
        m.reports
            .iter()
            .filter_map(|r| r.cache.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut out = vec![
        metric(
            "tracegen.generate_s",
            in_setup(&|n| n == "tracegen.generate"),
            "s",
        ),
        metric("tracegen.records", m.records as f64, "count"),
        metric("sim.construct_s", in_round(&|n| n == "sim.construct"), "s"),
        metric("sim.run_s", run_s, "s"),
    ];
    for (name, _) in ORGS {
        let span = format!("sim.run.{name}");
        out.push(Metric {
            name: format!("sim.run_s.{name}"),
            value: in_round(&|n| n == span),
            unit: "s",
        });
    }
    let fleets = &m.fleet;
    let va_events: Vec<f64> = fleets
        .iter()
        .flat_map(|(_, s)| s.partitions.iter().map(|p| p.events_processed as f64))
        .collect();
    let max_events = va_events.iter().copied().fold(0.0, f64::max);
    out.extend([
        metric("sim.ns_per_request", per_req(run_s * 1e9), "ns"),
        metric("simkit.events", m.events as f64, "count"),
        metric(
            "simkit.events_per_request",
            per_req(m.events as f64),
            "event/req",
        ),
        metric(
            "simkit.ns_per_event",
            ratio(run_s * 1e9, m.events as f64),
            "ns",
        ),
        metric("simkit.peak_pending", m.peak_pending as f64, "count"),
        metric(
            "diskmodel.ops_per_request",
            per_req(sum(&|r| r.disk_ops)),
            "op/req",
        ),
        metric("diskmodel.util_mean", mean(&disks), "ratio"),
        metric(
            "diskmodel.util_max",
            disks.iter().copied().fold(0.0, f64::max),
            "ratio",
        ),
        metric(
            "diskmodel.queue_ms",
            phase_mean(&m.reports, |p| &p.disk_queue_ms),
            "sim_ms",
        ),
        metric(
            "diskmodel.seek_ms",
            phase_mean(&m.reports, |p| &p.seek_ms),
            "sim_ms",
        ),
        metric(
            "diskmodel.rotation_ms",
            phase_mean(&m.reports, |p| &p.rotation_ms),
            "sim_ms",
        ),
        metric(
            "diskmodel.parity_ms",
            phase_mean(&m.reports, |p| &p.parity_ms),
            "sim_ms",
        ),
        metric("iochannel.channel_util_mean", mean(&channels), "ratio"),
        metric("iochannel.buffer_waits", sum(&|r| r.buffer_waits), "count"),
        metric(
            "iochannel.admission_ms",
            phase_mean(&m.reports, |p| &p.admission_ms),
            "sim_ms",
        ),
        metric(
            "nvcache.read_hit_ratio",
            ratio(
                cache(&|c| c.read_hits),
                cache(&|c| c.read_hits + c.read_misses),
            ),
            "ratio",
        ),
        metric(
            "nvcache.write_hit_ratio",
            ratio(
                cache(&|c| c.write_hits),
                cache(&|c| c.write_hits + c.write_misses),
            ),
            "ratio",
        ),
        metric(
            "nvcache.dirty_evictions",
            cache(&|c| c.dirty_evictions),
            "count",
        ),
        metric(
            "nvcache.destage_intf_ms",
            phase_mean(&m.reports, |p| &p.destage_interference_ms),
            "sim_ms",
        ),
        metric("nvcache.spool_merges", sum(&|r| r.spool_merges), "count"),
        metric("nvcache.spool_stalls", sum(&|r| r.spool_stalls), "count"),
        metric(
            "fleet.allocate_s",
            in_setup(&|n| n == "fleet.allocate"),
            "s",
        ),
        metric("fleet.run_s", in_round(&|n| n == "fleet.run"), "s"),
        metric(
            "fleet.vas_loaded",
            fleets
                .iter()
                .flat_map(|(_, s)| &s.partitions)
                .filter(|p| p.arrivals_owned > 0)
                .count() as f64,
            "count",
        ),
        metric(
            "fleet.va_imbalance",
            ratio(max_events, mean(&va_events)),
            "ratio",
        ),
        metric(
            "fleet.events_per_request",
            if fleets.is_empty() {
                0.0
            } else {
                per_req(m.events as f64)
            },
            "event/req",
        ),
        metric(
            "fleet.replay_amplification",
            fleets
                .iter()
                .map(|(_, s)| s.replay_amplification)
                .fold(0.0, f64::max),
            "ratio",
        ),
        metric("trace.overhead", overhead, "ratio"),
    ]);
    out
}

/// Self seconds per span name at reference host speed, median over the
/// traced rounds: the table the attribution in the README is read from.
pub fn round_self_times(m: &Measured, spans: &[Span]) -> BTreeMap<String, f64> {
    let roots = roots(m).1;
    let mut names: Vec<String> = Vec::new();
    for &(root, _) in &roots {
        for name in self_seconds_under(spans, root).into_keys() {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
        .into_iter()
        .map(|name| {
            let v = span_median(spans, &roots, |n| n == name);
            (name, v)
        })
        .collect()
}
