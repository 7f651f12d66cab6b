//! `perfbench` — host-performance benchmark of the raidtp simulator.
//!
//! ```text
//! perfbench --workload oltp-raw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `README.md`) through raidsim's public API for
//! about `--seconds` seconds of timed simulation, checks every run's
//! output, and prints the metrics one per line, then as a single JSON
//! object on the last line. `--trace 1` records spans around each call
//! into a layer and prints the per-layer metrics instead. The result and
//! the spans are also written under `<dir>/out/`. `run.py` builds this
//! program and passes the host facts it cannot see itself.

mod check;
mod host;
mod json;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use check::Recorded;
use json::Json;
use measure::{Ledger, Measured, Opts, Secs};
use metrics::Metric;
use spans::Recorder;
use workload::{Workload, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

const USAGE: &str = "usage: perfbench --workload <oltp-raw|oltp-cached|burst-write|fleet-mixed> \
[--seed N] [--seconds N] [--trace 0|1] [--rustc VERSION] [--commit ID]";

/// The benchmark's directory, relative to the repository root the program
/// runs from: its inputs are read from here and its results written under
/// `out/`.
const DIR: &str = "perfbench";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--rustc" => a.rustc = value.clone(),
            "--commit" => a.commit = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", a.seconds));
    }
    Ok(a)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// Lines describing the runs of the first round; with spans, each run's
/// host time per request from its self time.
fn describe_runs(m: &Measured, self_times: &BTreeMap<String, f64>) -> Vec<String> {
    m.runs
        .iter()
        .map(|r| {
            let per_req = |x: f64| x / r.requests.max(1) as f64;
            let mut line = format!(
                "  {:<9} {:>8} requests, {:.3} events/request",
                r.label,
                r.requests,
                per_req(r.events as f64)
            );
            if let Some(share) = r.share {
                line.push_str(&format!(", {:.1}% of its fleet's arrivals", share * 100.0));
            }
            if let Some(s) = self_times.get(&format!("sim.run.{}", r.label)) {
                line.push_str(&format!(
                    ", sim.run self {s:.4} s = {:.0} ns/request",
                    per_req(s * 1e9)
                ));
            }
            line
        })
        .collect()
}

/// The result file's record of a run: every set-up and round timing, the
/// kernel probes, per-run counts, digests and per-span self times.
fn details(m: &Measured, self_times: &BTreeMap<String, f64>) -> Vec<(&'static str, Json)> {
    let secs = |s: &Secs| {
        Json::obj([
            ("raw_s", Json::Num(s.raw)),
            ("reference_s", Json::Num(s.reference)),
        ])
    };
    let rounds = m.rounds.iter().map(|r| {
        Json::obj([
            ("traced", Json::Bool(r.traced)),
            ("requests", Json::Int(r.requests as i64)),
            ("secs", secs(&r.secs)),
        ])
    });
    let runs = m.runs.iter().map(|r| {
        Json::obj([
            ("label", Json::str(&r.label)),
            ("requests", Json::Int(r.requests as i64)),
            ("events", Json::Int(r.events as i64)),
            ("share", r.share.map_or(Json::Null, Json::Num)),
        ])
    });
    vec![
        (
            "setups",
            Json::Arr(m.setups.iter().map(|s| secs(&s.secs)).collect()),
        ),
        ("rounds", Json::Arr(rounds.collect())),
        (
            "host_probes_s",
            Json::Arr(m.probes.iter().map(|&p| Json::Num(p)).collect()),
        ),
        ("runs", Json::Arr(runs.collect())),
        (
            "digests",
            Json::Obj(
                m.digests
                    .iter()
                    .map(|(k, d)| (k.clone(), Json::str(d)))
                    .collect(),
            ),
        ),
        (
            "round_self_s",
            Json::Obj(
                self_times
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let read = |name: &str| {
        let path = format!("{DIR}/{name}");
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let inputs = read("fleet-mixed.spec").and_then(|spec| {
        let recorded = Recorded::parse(&read("digests.txt")?)?;
        Ok((spec, recorded))
    });
    let (spec, recorded) = match inputs {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed, &spec) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "host: nproc={nproc} rustc={:?} profile={profile} commit={}",
        args.rustc, args.commit
    );

    let opts = Opts {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: nproc,
        recorded: &recorded,
    };
    let mut rec = Recorder::new(args.trace);
    let mut led = Ledger::default();
    let measured = measure::run(&workload, &opts, &mut rec, &mut led);

    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    if let Some(m) = &measured {
        let self_times = metrics::round_self_times(m, rec.spans());
        let rates: Vec<f64> = m
            .rounds
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.rate())
            .collect();
        println!(
            "set-up: {} times, median {:.6} s ({:.6} s as measured); rounds: {} ({} traced)",
            m.setups.len(),
            metrics::setup_s(m, false),
            metrics::setup_s(m, true),
            m.rounds.len(),
            m.rounds.iter().filter(|r| r.traced).count(),
        );
        println!(
            "untraced rounds: median {:.0} req/s ({:.0} req/s as measured), spread {:.4} of median; \
             host-speed kernel median {:.6} s (reference {} s)",
            metrics::requests_per_s(m, false),
            metrics::requests_per_s(m, true),
            stats::relative_spread(&rates),
            stats::median(&m.probes),
            host::REFERENCE_S,
        );
        println!("runs of the first round:");
        for line in describe_runs(m, &self_times) {
            println!("{line}");
        }
        metrics = if args.trace {
            metrics::per_layer(m, rec.spans())
        } else {
            match &m.peak_rss_mb {
                Ok(mb) => metrics::end_to_end(m, *mb),
                Err(e) => {
                    led.errors.push(format!("peak RSS: {e}"));
                    Vec::new()
                }
            }
        };
        extra = details(m, &self_times);
    }
    let correct = measured.is_some() && led.failed == 0 && led.errors.is_empty();
    let error_rate = led.failed as f64 / led.attempted.max(1) as f64;

    for e in &led.errors {
        println!("FAILED {e}");
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate = {error_rate} ratio ({} of {} runs failed)",
        led.failed, led.attempted
    );

    let out_dir = format!("{DIR}/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut file = vec![
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(nproc as i64)),
                ("rustc", Json::str(&args.rustc)),
                ("profile", Json::str(profile)),
                ("commit", Json::str(&args.commit)),
            ]),
        ),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(led.attempted as i64)),
        ("failed", Json::Int(led.failed as i64)),
        ("error_rate", Json::Num(error_rate)),
        (
            "errors",
            Json::Arr(led.errors.iter().map(|e| Json::str(e)).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
    ];
    file.extend(extra);
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            std::fs::write(
                format!("{out_dir}/{stem}.json"),
                Json::obj(file).to_string() + "\n",
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    format!("{out_dir}/{stem}.spans.jsonl"),
                    rec.to_jsonl(&args.workload),
                )
            } else {
                Ok(())
            }
        });
    match written {
        Ok(()) => println!("result written to {out_dir}/{stem}.json"),
        Err(e) => eprintln!("warning: cannot write results under {out_dir}: {e}"),
    }

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(led.attempted as i64)),
        ("failed", Json::Int(led.failed as i64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
