//! End-to-end and per-layer benchmark of the DOSN request engine.
//!
//! ```text
//! perfbench --workload <feed_hot|feed_cold|write_churn> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run builds the universe `SETUP_REPEATS` times
//! (reporting the median as `setup_s`), makes `RSS_CALLS` primary calls
//! and reads `peak_rss_mb`, then drives the workload in a closed loop for
//! `--seconds` and reports the end-to-end metrics. Every timed figure
//! among them (all but `peak_rss_mb`) is given at the reference host
//! speed of `speed::REFERENCE`: each stretch of the run is divided by the
//! host's slowdown in it, as a fixed kernel timed between calls measures
//! it. A comment line prints the same figures as measured. With
//! `--trace 1` it reports the per-layer metrics instead, from three phases
//! on fresh universes: an untraced phase (the base of
//! `trace.overhead_frac`), a traced phase, and a replay of the traced
//! phase's calls at `available_parallelism` workers (the parallel-engine
//! metrics, and a check that every output digest matches). The last line of standard output is one
//! JSON object; a wrong engine output stops the run with `"correct":
//! false` and exit code 1.

mod bench;
mod gen;
mod layers;
mod model;
mod speed;
mod trace;

use bench::{run_phase, setup, Stop, Workload};
use speed::Gauge;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Universe builds per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Engine workers of every measured phase but the parallel replay. On a
/// 2-vCPU virtual machine two workers were slower than one, and their
/// per-phase thread hand-offs made every wall-clock metric track host steal
/// (README, "Workers").
const WORKERS: usize = 1;

/// Primary calls between set-up and the measured phase. `peak_rss_mb` is
/// read after them, so it covers the same work on every run, however many
/// calls the measured phase then fits in.
const RSS_CALLS: usize = 200;

/// Every end-to-end metric: name, unit, which direction is better.
/// `fail_frac` is `failed / attempted` in the result line's own fields: it
/// is 0 on every workload, and a bound relative to a median of 0 means
/// nothing.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("req_per_s", "req/s", "higher"),
    ("call_p50_ms", "ms", "lower"),
    ("call_p99_ms", "ms", "lower"),
    ("cpu_ms_per_req", "ms/req", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Failed and attempted requests, and the metrics, of a finished run.
type Outcome = (u64, u64, Vec<(&'static str, f64, &'static str)>);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`. On a shared
/// virtual machine, time the hypervisor gives to other guests shows up as
/// steal, and stretches every wall-clock metric of the run.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Prints the result line; a non-finite value is printed as 0 so the line
/// stays valid JSON.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

struct Failure(String);

impl From<model::Mismatch> for Failure {
    fn from(m: model::Mismatch) -> Self {
        Failure(format!("wrong output during set-up: {m}"))
    }
}

fn untraced(a: &Args) -> Result<Outcome, Failure> {
    // Each build's time, as measured and at the reference host speed (the
    // median of the gauge's samples at the steps of the build).
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ref_setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let mut gauge = Gauge::default();
        let started = Instant::now();
        built = Some(setup(a.workload, a.seed, WORKERS, &mut gauge)?);
        let (slowdown, spent) = gauge.take();
        let took = started.elapsed().saturating_sub(spent).as_secs_f64();
        setups.push(took);
        ref_setups.push(took / slowdown);
    }
    let (mut u, mut g) = built.expect("at least one set-up");
    let fixed = run_phase(
        &mut u,
        &mut g,
        &mut Tracer::new(false),
        Stop::Calls(RSS_CALLS),
    );
    if let Some(m) = fixed.mismatch {
        return Err(Failure(format!("wrong output: {m}")));
    }
    let rss_mb = peak_rss_mb();
    let host0 = host_ticks();
    let phase = run_phase(
        &mut u,
        &mut g,
        &mut Tracer::new(false),
        Stop::Deadline(Duration::from_secs(a.seconds)),
    );
    let host1 = host_ticks();
    if let Some(m) = phase.mismatch {
        return Err(Failure(format!("wrong output: {m}")));
    }
    // Requests of the fixed calls count towards fail_frac too.
    let attempted = fixed.attempted + phase.attempted;
    let failed = fixed.failed + phase.failed;
    let mut calls = phase.ref_calls();
    calls.sort_unstable();
    let beyond = calls.len() - calls.partition_point(|&c| c <= percentile(&calls, 0.99));
    if beyond < 10 {
        eprintln!("perfbench: only {beyond} primary calls beyond p99; the p99 is not resolved");
    }
    println!(
        "# {} seed={} workers={WORKERS}: {} primary calls ({beyond} beyond p99), {} requests, {} failed, after {RSS_CALLS} fixed calls; set-ups {:?} s",
        a.workload.name(),
        a.seed,
        calls.len(),
        phase.attempted,
        phase.failed,
        setups
    );
    println!(
        "# fail_frac {} ratio; host steal {:.1}% of CPU time during the measured phase",
        failed as f64 / attempted.max(1) as f64,
        100.0 * (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64
    );
    let mut raw = phase.calls.clone();
    raw.sort_unstable();
    let slowdowns: Vec<f64> = phase.blocks.iter().map(|b| b.slowdown).collect();
    let ok = phase.blocks.iter().map(|b| b.ok).sum::<u64>() as f64;
    let raw_cpu: f64 = phase.blocks.iter().map(|b| b.cpu.as_secs_f64()).sum();
    println!(
        "# as measured, host slowdown {:.2}x (median of {} blocks, {:.2}-{:.2}): setup_s {:.4}, req_per_s {:.4}, call_p50_ms {:.4}, call_p99_ms {:.4}, cpu_ms_per_req {:.4}",
        median(slowdowns.clone()),
        slowdowns.len(),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        median(setups.clone()),
        (phase.attempted - phase.failed) as f64 / phase.wall.as_secs_f64(),
        percentile(&raw, 0.50) as f64 / 1e6,
        percentile(&raw, 0.99) as f64 / 1e6,
        raw_cpu * 1000.0 / ok.max(1.0),
    );
    let values = [
        median(ref_setups),
        phase.ref_req_per_s(),
        percentile(&calls, 0.50) as f64 / 1e6,
        percentile(&calls, 0.99) as f64 / 1e6,
        phase.ref_cpu_seconds() * 1000.0 / ok.max(1.0),
        rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();
    Ok((attempted, failed, metrics))
}

fn traced(a: &Args, workers: usize) -> Result<Outcome, Failure> {
    let deadline = Stop::Deadline(Duration::from_secs(a.seconds));
    let untraced_rps = {
        let (mut u, mut g) = setup(a.workload, a.seed, WORKERS, &mut Gauge::default())?;
        let p = run_phase(&mut u, &mut g, &mut Tracer::new(false), deadline);
        if let Some(m) = p.mismatch {
            return Err(Failure(format!("wrong output: {m}")));
        }
        p.ref_req_per_s()
    };

    let (mut u, mut g) = setup(a.workload, a.seed, WORKERS, &mut Gauge::default())?;
    let mut tracer = Tracer::new(true);
    let before = layers::probe(&u.engine);
    let phase = run_phase(&mut u, &mut g, &mut tracer, deadline);
    let after = layers::probe(&u.engine);
    if let Some(m) = &phase.mismatch {
        return Err(Failure(format!("wrong output: {m}")));
    }
    let fan_in = {
        let h = |p: &layers::Probe| p.fanin();
        let ((s0, c0), (s1, c1)) = (h(&before), h(&after));
        if c1 > c0 {
            ((s1 - s0) as f64 / (c1 - c0) as f64).round() as usize
        } else {
            u.model.mean_degree().round() as usize
        }
    };
    let bodies = u.model.sample_bodies(64);
    drop(u);

    let (mut un, mut gn) = setup(a.workload, a.seed, workers, &mut Gauge::default())?;
    let parallel_before = layers::probe(&un.engine);
    let parallel = run_phase(
        &mut un,
        &mut gn,
        &mut Tracer::new(true),
        Stop::Calls(phase.calls.len()),
    );
    let parallel_after = layers::probe(&un.engine);
    drop(un);
    if let Some(m) = parallel.mismatch {
        return Err(Failure(format!("wrong output at {workers} workers: {m}")));
    }
    if parallel.digest != phase.digest {
        return Err(Failure(format!(
            "output digest differs: {} at {WORKERS} worker, {} at {workers}",
            hex(&phase.digest),
            hex(&parallel.digest)
        )));
    }

    let ladder = layers::ladder(a.seed, &bodies, fan_in);
    let traced_rps = phase.ref_req_per_s();
    let values = layers::per_layer(&layers::Traced {
        before: &before,
        after: &after,
        phase: &phase,
        spans: tracer.spans(),
        untraced_req_per_s: untraced_rps,
        traced_req_per_s: traced_rps,
        parallel_before: &parallel_before,
        parallel_after: &parallel_after,
        parallel: &parallel,
        ladder: &ladder,
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!(
        "# {} seed={} workers={WORKERS}: {} primary calls, {} requests, {} failed; digest {} identical at {workers} workers; {} spans in {}",
        a.workload.name(),
        a.seed,
        phase.calls.len(),
        phase.attempted,
        phase.failed,
        hex(&phase.digest),
        tracer.spans().len(),
        path.display()
    );
    let metrics = layers::PER_LAYER
        .iter()
        .map(|lm| {
            let v = values
                .iter()
                .find(|(n, _)| *n == lm.name)
                .map_or(f64::NAN, |&(_, v)| v);
            (lm.name, v, lm.unit)
        })
        .collect();
    Ok((phase.attempted, phase.failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = if args.trace {
        traced(&args, workers)
    } else {
        untraced(&args)
    };
    match result {
        Ok((attempted, failed, metrics)) => {
            for (name, value, unit) in &metrics {
                match layers::PER_LAYER.iter().find(|m| m.name == *name) {
                    Some(m) => println!(
                        "# {name:30} {value:>14.4} {unit:10} {} is better; should move {} on {}",
                        m.better, m.moves, m.on
                    ),
                    None => println!("# {name:30} {value:>14.4} {unit}"),
                }
            }
            print_result(true, attempted, failed, &metrics);
            ExitCode::SUCCESS
        }
        Err(Failure(why)) => {
            eprintln!("perfbench: {why}");
            print_result(false, 1, 0, &[]);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let entry = |name: &str, unit: &str, better: &str| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
        };
        for &(name, unit, better) in END_TO_END {
            assert!(json.contains(&entry(name, unit, better)), "{name}");
        }
        for m in layers::PER_LAYER {
            assert!(
                json.contains(&entry(m.name, m.unit, m.better)),
                "{}",
                m.name
            );
        }
        for w in ["feed_hot", "feed_cold", "write_churn"] {
            assert!(Workload::parse(w).is_some());
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, 3 + END_TO_END.len() + layers::PER_LAYER.len());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.5), 100);
        assert_eq!(percentile(&v, 0.99), 198);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
