//! E14: pipelined-engine determinism.
//!
//! Drives a four-batch, user-disjoint workload (each batch owns its own
//! users: registers, befriends, posts, reads) through the request engine
//! and reports one gated headline into `BENCH_6.json`:
//!
//! * **`determinism_ok`** (gated at zero tolerance) — the same batch
//!   sequence executed on identically-seeded engines must produce
//!   byte-identical per-batch report digests across worker counts
//!   {1, 2, 8} *and* across the sequential `execute` loop vs the
//!   pipelined [`Engine::execute_all`] path. This is the engine's core
//!   contract and is measured for real on any hardware. The 2- and
//!   8-worker pipelined runs must also overlap every batch seam, so the
//!   gate exercises the pipeline rather than its sequential fallback.
//!
//! A single-worker run then reports the measured wall time and raw
//! throughput (`posts_per_sec_1w`), ungated, with the engine's
//! instrument table. Sustained multi-worker throughput is measured by
//! `perfbench`.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e14_throughput [--fast] [OUT]`
//!
//! `--fast` shrinks the workload from 256 to 128 users; `OUT` overrides
//! the output path (default `BENCH_6.json`).

use dosn_bench::BenchArgs;
use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_obs::{names, Registry, RunReport, Value};
use std::collections::BTreeMap;
use std::time::Instant;

const SEED: u64 = 0xE14;
const NUM_BATCHES: usize = 4;

fn user(i: usize) -> String {
    format!("user{i}")
}

/// `users` names dealt round-robin into `NUM_BATCHES` disjoint lists.
fn batch_users(users: usize) -> Vec<Vec<String>> {
    let mut batches = vec![Vec::new(); NUM_BATCHES];
    for i in 0..users {
        batches[i % NUM_BATCHES].push(user(i));
    }
    batches
}

/// One batch over `names`, stage-ordered: every user registers, befriends
/// its ring neighbor *within the batch*, posts once, and each ring edge
/// is read in both directions. Batches are user-disjoint, so batch *k+1*
/// mentions no user batch *k* touches — the workload the two-stage
/// pipeline is built to overlap.
fn batch_for(names: &[String]) -> OpBatch {
    let neighbor = |i: usize| names[(i + 1) % names.len()].as_str();
    let mut batch = OpBatch::new();
    for n in names {
        batch = batch.register(n);
    }
    for (i, n) in names.iter().enumerate() {
        batch = batch.befriend(n, neighbor(i), 0.9);
    }
    for n in names {
        batch = batch.post(n, &format!("throughput post by {n}"));
    }
    for (i, n) in names.iter().enumerate() {
        batch = batch.read_post(neighbor(i), n, 0);
    }
    for (i, n) in names.iter().enumerate() {
        batch = batch.read_post(n, neighbor(i), 0);
    }
    batch
}

/// The measured workload: `NUM_BATCHES` user-disjoint batches.
fn workload(users: usize) -> Vec<OpBatch> {
    batch_users(users).iter().map(|b| batch_for(b)).collect()
}

fn engine(workers: usize, obs: Option<Registry>) -> Engine<ChordPlane> {
    let store = ReplicatedStore::new(ChordPlane::build(64, SEED), 3);
    let store = match obs {
        Some(obs) => store.with_obs(obs),
        None => store,
    };
    let mut e = Engine::new(store, SEED);
    e.set_workers(workers);
    e
}

fn main() {
    let args = BenchArgs::parse("BENCH_6.json");

    let users = if args.fast { 128 } else { 256 };
    let batches = workload(users);
    let ops: usize = batches.iter().map(OpBatch::len).sum();

    // ---- determinism: sequential loop × {1,2,8} and pipelined × {1,2,8}
    // must all agree per batch ----
    let mut base: Vec<String> = Vec::new();
    {
        let mut e = engine(1, None);
        for b in &batches {
            let report = e.execute(b.clone());
            let failures = report.results.iter().filter(|r| r.is_err()).count();
            assert_eq!(failures, 0, "workload ops must all succeed");
            base.push(report.digest_hex());
        }
    }
    let mut determinism_ok = true;
    for workers in [2usize, 8] {
        let mut e = engine(workers, None);
        for (k, b) in batches.iter().enumerate() {
            determinism_ok &= e.execute(b.clone()).digest_hex() == base[k];
        }
    }
    let mut overlaps = 0u64;
    for workers in [1usize, 2, 8] {
        let mut e = engine(workers, None);
        let reports = e.execute_all(batches.clone());
        for (k, r) in reports.iter().enumerate() {
            determinism_ok &= r.digest_hex() == base[k];
        }
        overlaps += e
            .obs()
            .snapshot()
            .counters
            .get(names::ENGINE_PIPELINE_OVERLAP)
            .copied()
            .unwrap_or(0);
    }
    // The 2- and 8-worker pipelined runs must each overlap all three
    // batch seams; the 1-worker run never pipelines.
    let expected_overlaps = 2 * (NUM_BATCHES as u64 - 1);
    println!(
        "determinism: sequential and pipelined digests at 1/2/8 workers {} ({}); \
         pipeline overlaps {overlaps}/{expected_overlaps}",
        if determinism_ok { "MATCH" } else { "DIVERGE" },
        &base[0][..16],
    );

    // ---- throughput: measured single-worker run ----
    let obs = Registry::new();
    let mut e = engine(1, Some(obs.clone()));
    let mut wall_us = 0u64;
    for b in workload(users) {
        let started = Instant::now();
        e.execute(b);
        wall_us += started.elapsed().as_micros() as u64;
    }
    let posts_per_sec_1w = users as f64 / (wall_us.max(1) as f64 / 1e6);

    let snap = e.publish_obs();
    println!("{}", snap.fmt_table());
    println!(
        "workload: {users} users over {NUM_BATCHES} batches, {ops} ops; \
         single-worker wall {:.1} ms ({posts_per_sec_1w:.0} posts/s raw)",
        wall_us as f64 / 1e3,
    );

    let mut run = RunReport::new("E14 engine throughput", args.fast);
    // The determinism contract gates at zero tolerance: any digest
    // divergence across worker counts or between the sequential and
    // pipelined paths is a correctness bug, not noise.
    run.set_headline("determinism_ok", f64::from(determinism_ok), true, 0.0);
    run.record_registry(&obs);
    let mut row = BTreeMap::new();
    row.insert("users".to_string(), Value::from(users));
    row.insert("ops".to_string(), Value::from(ops));
    row.insert("batches".to_string(), Value::from(NUM_BATCHES));
    row.insert("wall_us_1w".to_string(), Value::from(wall_us));
    row.insert("pipeline_overlaps".to_string(), Value::from(overlaps));
    row.insert(
        "posts_per_sec_1w".to_string(),
        Value::from(posts_per_sec_1w),
    );
    run.add_row(row);
    args.save(&run);

    assert!(
        determinism_ok,
        "digest divergence across worker counts or pipelining"
    );
    assert_eq!(
        overlaps, expected_overlaps,
        "pipeline failed to overlap the user-disjoint batch seams"
    );
}
