//! Runs a workload: repeated set-up, then timed rounds until the time is
//! used up, checking every run's output.
//!
//! A *round* is one pass over the workload: the five organizations in
//! turn (rotating which goes first) for the single-array workloads, one
//! `run_fleet` call for the fleet. Only the calls that simulate are
//! timed; constructing simulators and checking reports happen outside the
//! timed part. The host-speed kernel runs after every timed call and
//! after the set-ups (see `host.rs`).
//!
//! Every run's report is checked against the invariants. The first
//! round's reports are also digested in full and compared with the
//! recorded digests (and, for a fleet, with its serial run); later rounds
//! repeat the same runs and compare a cheap fingerprint with the first
//! round's, because formatting a fleet report costs more than running it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use raidsim::{allocate, run_fleet, FleetReport, RunStats, SimReport, Simulator};
use tracegen::Trace;

use crate::check::{check_fleet, check_report, digest, fingerprint, Recorded};
use crate::host::{self, HostSpeed};
use crate::spans::Recorder;
use crate::workload::{fleet_config, ArrayWorkload, Workload, ORGS};

pub struct Opts<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: alternate traced and untraced rounds.
    pub trace: bool,
    pub threads: usize,
    pub recorded: &'a Recorded,
}

/// Runs attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    /// Run `f` as one attempt: an `Err` or a panic counts as a failure.
    fn attempt<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        self.errors.push(format!("{label}: {err}"));
        None
    }
}

/// Host seconds as measured, and rescaled to reference host speed.
#[derive(Clone, Copy, Default)]
pub struct Secs {
    pub raw: f64,
    pub reference: f64,
}

impl std::ops::AddAssign for Secs {
    fn add_assign(&mut self, o: Secs) {
        self.raw += o.raw;
        self.reference += o.reference;
    }
}

pub struct Setup {
    pub secs: Secs,
    /// Index of the set-up's span, when traced.
    pub span: Option<usize>,
}

pub struct Round {
    pub traced: bool,
    /// Index of the round's span, when traced.
    pub span: Option<usize>,
    pub requests: u64,
    /// Time inside the timed calls.
    pub secs: Secs,
}

impl Round {
    /// Requests per reference-speed host second.
    pub fn rate(&self) -> f64 {
        self.requests as f64 / self.secs.reference
    }

    /// Requests per host second, as measured.
    pub fn raw_rate(&self) -> f64 {
        self.requests as f64 / self.secs.raw
    }
}

/// What one run of the first round did.
pub struct RunCount {
    pub label: String,
    pub requests: u64,
    pub events: u64,
    /// Fleets only: the array's share of its fleet's arrivals.
    pub share: Option<f64>,
}

/// Everything a workload run measured.
pub struct Measured {
    pub setups: Vec<Setup>,
    pub rounds: Vec<Round>,
    /// Durations of the host-speed kernel, seconds, in order.
    pub probes: Vec<f64>,
    /// Peak resident memory, MiB, over the set-ups and the first round
    /// (for a fleet: its serial references and first parallel run): what
    /// one pass of the workload needs. Later runs repeat the same work;
    /// with several threads they only add allocator fragmentation.
    pub peak_rss_mb: Result<f64, String>,
    /// The simulated reports of the first round: one per organization, or
    /// one per virtual array.
    pub reports: Vec<SimReport>,
    /// Engine events and future-event-list high-water mark of that round.
    pub events: u64,
    pub peak_pending: usize,
    /// Per run of the first round: one per organization, or one per
    /// virtual array of each fleet.
    pub runs: Vec<RunCount>,
    /// Trace records per round.
    pub records: u64,
    /// Digest of each first-round run, labelled.
    pub digests: Vec<(String, String)>,
    /// Fleet only: the first round's report and counters per fleet.
    pub fleet: Vec<(FleetReport, RunStats)>,
}

/// Set-ups to make at most; after three, set-up stops once it has used
/// this share of the run's seconds.
const MAX_SETUPS_ARRAY: usize = 5;
const MAX_SETUPS_FLEET: usize = 51;
const SETUP_BUDGET: f64 = 0.25;
/// Set-ups shorter than this share one host-speed probe.
const PROBE_EVERY_S: f64 = 0.01;
/// Rounds to make at least, whatever the time.
const MIN_ROUNDS: usize = 4;

/// Open a span and return its index (`None` when the recorder is off).
fn open(rec: &mut Recorder, name: &str) -> Option<usize> {
    let i = rec.spans().len();
    rec.enter(name);
    (rec.spans().len() > i).then_some(i)
}

/// Repeat `one` (a set-up returning its seconds and span) until enough
/// set-ups are made, rescaling each by the host speed around it.
fn set_up(
    max: usize,
    o: &Opts<'_>,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    mut one: impl FnMut(&mut Recorder) -> Option<(f64, Option<usize>)>,
) -> Option<Vec<Setup>> {
    rec.set_enabled(o.trace);
    let mut setups: Vec<Setup> = Vec::new();
    let mut unscaled = 0;
    loop {
        let spent: f64 = setups.iter().map(|s| s.secs.raw).sum();
        let done = setups.len() >= max || (setups.len() >= 3 && spent > SETUP_BUDGET * o.seconds);
        let pending: f64 = setups[unscaled..].iter().map(|s| s.secs.raw).sum();
        if unscaled < setups.len() && (done || pending >= PROBE_EVERY_S) {
            let f = rec.span("host.probe", |_| host.factor());
            for s in &mut setups[unscaled..] {
                s.secs.reference = s.secs.raw * f;
            }
            unscaled = setups.len();
        }
        if done {
            return Some(setups);
        }
        let (raw, span) = one(rec)?;
        setups.push(Setup {
            secs: Secs {
                raw,
                reference: 0.0,
            },
            span,
        });
    }
}

/// Whether enough rounds are made: at least [`MIN_ROUNDS`], `seconds` of
/// timed calls, and in a traced run two traced and two untraced rounds.
fn rounds_done(rounds: &[Round], o: &Opts<'_>) -> bool {
    let timed: f64 = rounds.iter().map(|r| r.secs.raw).sum();
    let traced = rounds.iter().filter(|r| r.traced).count();
    rounds.len() >= MIN_ROUNDS
        && timed >= o.seconds
        && (!o.trace || (traced >= 2 && rounds.len() - traced >= 2))
}

pub fn run(w: &Workload, o: &Opts<'_>, rec: &mut Recorder, led: &mut Ledger) -> Option<Measured> {
    // The host-speed kernel runs on as many threads as the workload.
    let mut host = HostSpeed::new(match w {
        Workload::Array(_) => 1,
        Workload::Fleet { .. } => o.threads,
    });
    let mut m = match w {
        Workload::Array(a) => run_array(a, o, &mut host, rec, led),
        Workload::Fleet { spec, seeds } => run_fleet_workload(spec, seeds, o, &mut host, rec, led),
    }?;
    m.probes = host.probes;
    Some(m)
}

fn run_array(
    w: &ArrayWorkload,
    o: &Opts<'_>,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    led: &mut Ledger,
) -> Option<Measured> {
    // Set-up: generate the trace and construct one simulator per
    // organization; every generation must give the same trace.
    let mut trace: Option<Trace> = None;
    let setups = set_up(MAX_SETUPS_ARRAY, o, host, rec, |rec| {
        led.attempt("set-up", || {
            let span = open(rec, "setup");
            let t0 = Instant::now();
            let generated = rec.span("tracegen.generate", |_| w.trace.generate());
            let sims = ORGS
                .iter()
                .map(|&(_, org)| {
                    rec.span("sim.construct", |_| {
                        Simulator::try_new(w.config(org), &generated)
                    })
                })
                .collect::<Result<Vec<_>, String>>();
            let secs = t0.elapsed().as_secs_f64();
            rec.exit();
            drop(sims?);
            match &trace {
                Some(first) if first.records != generated.records => {
                    return Err("trace generation is not deterministic".into())
                }
                Some(_) => {}
                None => trace = Some(generated),
            }
            Ok((secs, span))
        })
    })?;
    let trace = trace?;
    let records = trace.len() as u64;

    let mut peak_rss_mb = Err("no round completed".to_string());
    let mut rounds = Vec::new();
    let mut first: Vec<Option<(SimReport, RunStats, String)>> = vec![None; ORGS.len()];
    while !rounds_done(&rounds, o) {
        let r = rounds.len();
        let traced = o.trace && r % 2 == 0;
        rec.set_enabled(traced);
        let span = open(rec, "round");
        let mut round = Round {
            traced,
            span,
            requests: 0,
            secs: Secs::default(),
        };
        for k in 0..ORGS.len() {
            let i = (r + k) % ORGS.len();
            let (name, org) = ORGS[i];
            let prior = first[i].as_ref().map(|f| fingerprint(&f.0));
            let out = led.attempt(&format!("round {r} {name}"), || {
                let sim = rec.span("sim.construct", |_| {
                    Simulator::try_new(w.config(org), &trace)
                })?;
                let run_span = format!("sim.run.{name}");
                let t0 = Instant::now();
                let (report, stats) = rec.span(&run_span, |_| sim.run_instrumented());
                let secs = t0.elapsed().as_secs_f64();
                check_report(&report, records)?;
                let d = match prior {
                    Some(p) if p != fingerprint(&report) => {
                        return Err("report differs from round 0's".into())
                    }
                    Some(_) => None,
                    None => {
                        let d = digest(&report);
                        o.recorded.verify(o.workload, o.seed, name, &d)?;
                        Some(d)
                    }
                };
                Ok((report, stats, d, secs))
            });
            let f = rec.span("host.probe", |_| host.factor());
            if let Some((report, stats, d, raw)) = out {
                round.requests += report.requests_completed;
                round.secs += Secs {
                    raw,
                    reference: raw * f,
                };
                if let Some(d) = d {
                    first[i] = Some((report, stats, d));
                }
            }
        }
        rec.exit();
        if round.requests == 0 {
            return None;
        }
        rounds.push(round);
        if rounds.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    rec.set_enabled(o.trace);

    let first: Vec<(SimReport, RunStats, String)> = first.into_iter().collect::<Option<_>>()?;
    Some(Measured {
        setups,
        rounds,
        probes: Vec::new(),
        peak_rss_mb,
        events: first.iter().map(|f| f.1.events_processed).sum(),
        peak_pending: first.iter().map(|f| f.1.peak_pending).max().unwrap_or(0),
        runs: ORGS
            .iter()
            .zip(&first)
            .map(|((name, _), f)| RunCount {
                label: name.to_string(),
                requests: f.0.requests_completed,
                events: f.1.events_processed,
                share: None,
            })
            .collect(),
        records,
        digests: ORGS
            .iter()
            .zip(&first)
            .map(|((name, _), f)| (name.to_string(), f.2.clone()))
            .collect(),
        reports: first.into_iter().map(|f| f.0).collect(),
        fleet: Vec::new(),
    })
}

fn run_fleet_workload(
    spec: &str,
    seeds: &[u64],
    o: &Opts<'_>,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    led: &mut Ledger,
) -> Option<Measured> {
    // Set-up: parse the spec and plan each fleet. A set-up takes about a
    // millisecond, so many are timed and the median kept.
    let mut fleets = Vec::new();
    let setups = set_up(MAX_SETUPS_FLEET, o, host, rec, |rec| {
        led.attempt("set-up", || {
            let span = open(rec, "setup");
            let t0 = Instant::now();
            let planned: Result<Vec<_>, String> = seeds
                .iter()
                .map(|&seed| {
                    let cfg = rec.span("fleet.parse", |_| fleet_config(spec, seed))?;
                    let plan = rec.span("fleet.allocate", |_| allocate(&cfg))?;
                    Ok((cfg, plan))
                })
                .collect();
            let secs = t0.elapsed().as_secs_f64();
            rec.exit();
            let planned = planned?;
            for (_, plan) in &planned {
                if let Some(va) = plan.vas.iter().find(|va| va.tenants.is_empty()) {
                    return Err(format!("virtual array {} has no tenant", va.name));
                }
            }
            if fleets.is_empty() {
                fleets = planned.into_iter().map(|(cfg, _)| cfg).collect();
            }
            Ok((secs, span))
        })
    })?;

    // The serial runs are the references every parallel run must match.
    rec.set_enabled(false);
    let mut serial = Vec::new();
    for (k, fleet) in fleets.iter().enumerate() {
        let label = format!("fleet{k}");
        serial.push(led.attempt(&format!("serial reference {label}"), || {
            let (report, stats) = run_fleet(fleet, 1)?;
            check_fleet(&report, &stats)?;
            let d = digest(&report);
            o.recorded.verify(o.workload, o.seed, &label, &d)?;
            Ok(d)
        })?);
    }
    host.factor();

    let mut peak_rss_mb = Err("no round completed".to_string());
    let mut rounds = Vec::new();
    let mut first = Vec::new();
    while !rounds_done(&rounds, o) {
        let r = rounds.len();
        let traced = o.trace && r % 2 == 0;
        rec.set_enabled(traced);
        let span = open(rec, "round");
        let mut round = Round {
            traced,
            span,
            requests: 0,
            secs: Secs::default(),
        };
        for (k, fleet) in fleets.iter().enumerate() {
            let out = led.attempt(&format!("round {r} fleet{k}"), || {
                let t0 = Instant::now();
                let (report, stats) = rec.span("fleet.run", |_| run_fleet(fleet, o.threads))?;
                let secs = t0.elapsed().as_secs_f64();
                check_fleet(&report, &stats)?;
                match first.get(k) {
                    None => {
                        let d = digest(&report);
                        if d != serial[k] {
                            return Err(format!(
                                "{}-thread report digest {d} differs from the serial {}",
                                o.threads, serial[k]
                            ));
                        }
                    }
                    Some((f, _)) => {
                        let prints = |r: &FleetReport| -> Vec<[u64; 4]> {
                            r.vas.iter().map(|va| fingerprint(&va.report)).collect()
                        };
                        if prints(&report) != prints(f) {
                            return Err("report differs from round 0's".into());
                        }
                    }
                }
                Ok((report, stats, secs))
            });
            if r == 0 && k == 0 {
                peak_rss_mb = host::peak_rss_mb();
            }
            let f = rec.span("host.probe", |_| host.factor());
            let (report, stats, raw) = out?;
            round.requests += report.requests_completed;
            round.secs += Secs {
                raw,
                reference: raw * f,
            };
            if r == 0 {
                first.push((report, stats));
            }
        }
        rec.exit();
        rounds.push(round);
    }
    rec.set_enabled(o.trace);

    let vas = || {
        first.iter().enumerate().flat_map(|(k, (report, stats))| {
            report
                .vas
                .iter()
                .zip(&stats.partitions)
                .map(move |(va, p)| (k, va, p))
        })
    };
    Some(Measured {
        setups,
        rounds,
        probes: Vec::new(),
        peak_rss_mb,
        reports: vas().map(|(_, va, _)| va.report.clone()).collect(),
        events: first.iter().map(|(_, s)| s.events_processed).sum(),
        peak_pending: first.iter().map(|(_, s)| s.peak_pending).max().unwrap_or(0),
        runs: vas()
            .map(|(k, va, p)| RunCount {
                label: format!("{k}.{}", va.name),
                requests: p.arrivals_owned,
                events: p.events_processed,
                share: Some(p.arrivals_owned as f64 / first[k].0.requests_completed.max(1) as f64),
            })
            .collect(),
        records: vas().map(|(_, _, p)| p.arrivals_owned).sum(),
        digests: serial
            .into_iter()
            .enumerate()
            .map(|(k, d)| (format!("fleet{k}"), d))
            .collect(),
        fleet: first,
    })
}
