//! E13: observability smoke run over the request engine.
//!
//! Exercises every instrumented path once — registration, key
//! dissemination, posting, quorum reads, a crash plus read-repair — over a
//! single shared [`Registry`], prints the human `fmt_table()` view, and
//! writes a [`RunReport`] (`BENCH_4.json`) whose headline is *instrument
//! coverage*: how many distinct histograms fired. The point of the gate on
//! this report is structural, not performance: if a refactor silently
//! disconnects a timer or counter, coverage drops and CI fails.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e13_observability [--fast] [OUT]`
//!
//! `--fast` cuts the workload (the run is seconds either way); `OUT`
//! overrides the output path (default `BENCH_4.json`).

use dosn_bench::BenchArgs;
use dosn_core::engine::Engine;
use dosn_core::network::{ChordPlane, ReplicatedStore, StoragePlane};
use dosn_obs::{Registry, RunReport, Value};
use dosn_overlay::fault::FaultPlan;
use std::collections::BTreeMap;
use std::time::Instant;

const SEED: u64 = 0xE13;

fn user(i: usize) -> String {
    format!("user{i}")
}

fn main() {
    let args = BenchArgs::parse("BENCH_4.json");

    let (users, posts_per_user) = if args.fast { (4, 2u64) } else { (8, 4u64) };

    let obs = Registry::new();
    let store = ReplicatedStore::new(ChordPlane::build(32, SEED), 3).with_obs(obs.clone());
    let mut net = Engine::new(store, SEED);

    for i in 0..users {
        net.register(&user(i)).expect("register");
    }
    for i in 0..users {
        net.befriend(&user(i), &user((i + 1) % users), 0.9)
            .expect("befriend");
    }

    let started = Instant::now();
    let mut posted: Vec<(usize, u64)> = Vec::new();
    for i in 0..users {
        for p in 0..posts_per_user {
            let seq = net
                .post(&user(i), &format!("observable post {p}"))
                .expect("post");
            posted.push((i, seq));
        }
    }
    for &(author, seq) in &posted {
        net.read_post(&user((author + 1) % users), &user(author), seq)
            .expect("read");
    }

    // Crash a quarter of the storage nodes and read every wall again so the
    // repair timer (`store.get.repair`) fires on live data.
    let victims: Vec<_> = net
        .storage()
        .plane()
        .node_ids()
        .into_iter()
        .step_by(4)
        .collect();
    let mut plan = FaultPlan::seeded(SEED);
    for v in &victims {
        plan = plan.with_crash(*v, 0);
    }
    net.apply_crashes(&plan, 1);
    let mut readable = 0usize;
    for &(author, seq) in &posted {
        if net
            .read_post(&user((author + 1) % users), &user(author), seq)
            .is_ok()
        {
            readable += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let availability = readable as f64 / posted.len() as f64;

    // Human view: the full instrument table, refreshed gauges included.
    let snap = net.publish_obs();
    println!("{}", snap.fmt_table());
    println!(
        "headline: {} posts + {} reads in {elapsed:.2}s, availability after 25% crash {availability:.2}",
        posted.len(),
        posted.len() * 2,
    );

    let hist_coverage = snap.histograms.values().filter(|h| !h.is_empty()).count();
    println!("headline: {hist_coverage} distinct histograms fired");

    let mut report = RunReport::new("E13 observability smoke", args.fast);
    // Structural gate: every instrumented path must keep firing. Zero
    // tolerance — losing an instrument is a wiring bug, not noise.
    report.set_headline("histogram_coverage", hist_coverage as f64, true, 0.0);
    report.set_headline("availability_after_crash", availability, true, 0.30);
    report.record_registry(&obs);
    let mut row = BTreeMap::new();
    row.insert("posts".to_string(), Value::from(posted.len()));
    row.insert("reads".to_string(), Value::from(posted.len() * 2));
    row.insert("availability".to_string(), Value::from(availability));
    row.insert("readable_after_crash".to_string(), Value::from(readable));
    report.add_row(row);
    args.save(&report);
}
