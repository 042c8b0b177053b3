//! E17: the four end-to-end attack scenarios over the unified
//! `AdversaryPlane` (survey §III–§VI threats, composed end to end).
//!
//! The bench runs each scenario from `dosn_core::scenario` and gates six
//! headlines in `BENCH_10.json`:
//!
//! * **`adversary_noop_digest_identical`** (zero tolerance) — an engine
//!   over a *disabled* `AdversaryPlane` must produce byte-identical batch
//!   digests to one over the bare plane: the wrapper is a pure forwarder
//!   until armed, so shipping it in the storage stack costs nothing.
//! * **`flash_availability`** — items served / items expected while a
//!   100k-follower crowd (CI: 5k) stampedes one wall through the cache
//!   hierarchy and social placement.
//! * **`flash_warm_p95_us`** — warm `read_feed` p95 under the stampede; a
//!   latency canary with a wide band.
//! * **`sybil_detection_rate`** (floored) — random-walk recall over the
//!   sybil region at the tightest attack-edge budget.
//! * **`quorum_fail_closed_rate`** (zero tolerance at 1.0) — across the
//!   dishonest-quorum sweep, tampered plaintext is *never* accepted:
//!   every read either returns the original bytes or fails closed.
//! * **`quorum_availability_f1`** (zero tolerance at 1.0) — with an
//!   honest majority (f=1 of R=3), tampering costs nothing: every read
//!   still succeeds, correctly.
//! * **`pod_leak_fraction`** (lower is better) — fraction of all stored
//!   keys a single compromised federation pod observed.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e17_adversary
//! [--fast] [OUT]` (default OUT `BENCH_10.json`).

use dosn_bench::BenchArgs;
use dosn_core::engine::{Engine, OpBatch};
use dosn_core::network::{AdversaryConfig, AdversaryPlane, ChordPlane, ReplicatedStore};
use dosn_core::scenario::{
    dishonest_quorum, flash_crowd, pod_compromise, sybil_campaign, ScenarioConfig,
};
use dosn_obs::{RunReport, Value};
use std::collections::BTreeMap;

const SEED: u64 = 0xE17;

/// The zero-tolerance no-op gate: a disabled adversary in the storage
/// stack must not change a single batch digest.
fn noop_digest_identity(users: usize) -> bool {
    let mut bare = Engine::new(ReplicatedStore::new(ChordPlane::build(64, SEED), 3), SEED);
    let wrapped_plane =
        AdversaryPlane::new(ChordPlane::build(64, SEED), AdversaryConfig::new(SEED, 2));
    let mut wrapped = Engine::new(ReplicatedStore::new(wrapped_plane, 3), SEED);

    let user = |i: usize| format!("user{i}");
    let mut identical = true;
    let mut run = |batch: OpBatch| {
        let a = bare.execute(batch.clone()).digest_hex();
        let b = wrapped.execute(batch).digest_hex();
        identical &= a == b;
    };
    let mut setup = OpBatch::new();
    for i in 0..users {
        setup = setup.register(&user(i));
    }
    for i in 0..users {
        setup = setup.befriend(&user(i), &user((i + 1) % users), 0.9);
    }
    run(setup);
    for round in 0..3u64 {
        let mut batch = OpBatch::new();
        for i in 0..users {
            batch = batch.post(&user(i), &format!("round {round} user{i}"));
        }
        for i in 0..users {
            batch = batch.read_post(&user((i + 1) % users), &user(i), round);
        }
        run(batch);
    }
    identical
}

fn main() {
    let args = BenchArgs::parse("BENCH_10.json");

    let cfg = if args.fast {
        ScenarioConfig::new(SEED).fast()
    } else {
        ScenarioConfig::new(SEED)
    };

    // ---- correctness headline first: the no-op gate ----
    let identical = noop_digest_identity(if args.fast { 12 } else { 24 });
    println!(
        "no-op gate: bare and disabled-adversary batch digests {}",
        if identical { "MATCH" } else { "DIVERGE" }
    );

    // ---- scenario 1: viral flash crowd ----
    let flash = flash_crowd::run(&cfg);
    println!(
        "flash crowd: {} readers x {} posts on {} nodes → availability {:.3}, \
         warm p95 {} µs, cache hits {} misses {}",
        flash.readers,
        flash.posts,
        flash.nodes,
        flash.availability,
        flash.warm_p95_us,
        flash.cache_hits,
        flash.cache_misses,
    );

    // ---- scenario 2: sybil campaign ----
    let sybil = sybil_campaign::run(&cfg);
    for p in &sybil.points {
        println!(
            "sybil campaign: budget {:>3} edges → recall {:.3}, precision {:.3}",
            p.attack_edges, p.recall, p.precision
        );
    }

    // ---- scenario 3: dishonest quorum ----
    let quorum = dishonest_quorum::run(&cfg);
    for p in &quorum.points {
        println!(
            "dishonest quorum: f={} {:<9} correct {:>4} wrong {:>2} fail-closed {:>4} unavailable {:>4}",
            p.f, p.mode.label(), p.correct, p.wrong, p.fail_closed, p.unavailable
        );
    }

    // ---- scenario 4: pod compromise ----
    let pod = pod_compromise::run(&cfg);
    println!(
        "pod compromise: pod {} observed {}/{} keys ({} owners); \
         tamper availability {:.3}, offline availability {:.3}",
        pod.compromised_pod,
        pod.keys_observed,
        pod.keys_total,
        pod.owners_exposed,
        pod.tamper_availability(),
        pod.offline_availability(),
    );

    let mut run = RunReport::new("E17 adversary scenarios", args.fast);
    run.set_headline(
        "adversary_noop_digest_identical",
        f64::from(identical),
        true,
        0.0,
    );
    run.set_headline("flash_availability", flash.availability, true, 0.01);
    // Warm p95 is a latency canary with a wide band (CI wall-clock noise).
    run.set_headline("flash_warm_p95_us", flash.warm_p95_us as f64, false, 3.0);
    // Recall gates at a 0.75 floor, declared via the tolerance as the E16
    // speedup headline does.
    let floor_tolerance = (1.0 - 0.75 / sybil.detection_rate).max(0.0);
    run.set_headline(
        "sybil_detection_rate",
        sybil.detection_rate,
        true,
        floor_tolerance,
    );
    run.set_headline(
        "quorum_fail_closed_rate",
        quorum.fail_closed_rate,
        true,
        0.0,
    );
    run.set_headline("quorum_availability_f1", quorum.availability_f1, true, 0.0);
    run.set_headline("pod_leak_fraction", pod.leak_fraction, false, 0.10);

    // Fold the deterministic scenario registries into one report, then the
    // bench-level summary row.
    for scenario_report in [
        flash.report(),
        sybil.report(),
        quorum.report(),
        pod.report(),
    ] {
        for (name, value) in &scenario_report.counters {
            *run.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &scenario_report.gauges {
            run.gauges.insert(name.clone(), *value);
        }
        run.rows.extend(scenario_report.rows.iter().cloned());
    }
    let mut row = BTreeMap::new();
    row.insert("flash_readers".to_string(), Value::from(flash.readers));
    row.insert(
        "flash_warm_p50_us".to_string(),
        Value::from(flash.warm_p50_us),
    );
    row.insert("sybil_nodes".to_string(), Value::from(sybil.nodes));
    row.insert("sybil_count".to_string(), Value::from(sybil.sybils));
    row.insert(
        "sybil_honest_accept_rate".to_string(),
        Value::from(sybil.honest_accept_rate),
    );
    row.insert("quorum_keys".to_string(), Value::from(quorum.keys));
    row.insert(
        "pod_owners_exposed".to_string(),
        Value::from(pod.owners_exposed),
    );
    run.add_row(row);
    args.save(&run);

    // Hard invariants, independent of the gate baselines.
    assert!(identical, "disabled adversary changed a batch digest");
    assert!(
        (flash.availability - 1.0).abs() < 1e-9,
        "flash crowd dropped items: availability {:.4}",
        flash.availability
    );
    assert_eq!(
        quorum.points.iter().map(|p| p.wrong).sum::<u64>(),
        0,
        "tampered plaintext was accepted"
    );
    assert!((quorum.fail_closed_rate - 1.0).abs() < f64::EPSILON);
    assert!((quorum.availability_f1 - 1.0).abs() < f64::EPSILON);
    assert_eq!(pod.tamper_wrong, 0, "pod forgery was accepted");
    assert!(
        sybil.detection_rate >= 0.75,
        "sybil recall {:.3} below the 0.75 floor",
        sybil.detection_rate
    );
}
