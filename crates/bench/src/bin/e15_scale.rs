//! E15: million-node scale sweep — arena memory and social placement.
//!
//! Sweeps the Chord storage plane over N ∈ {10k, 100k, 1M} nodes and
//! reports two headlines into `BENCH_8.json`:
//!
//! * **`social_hop_advantage`** — total Chord routing hops under hash
//!   placement divided by total hops under [`SocialPlane`] placement, for
//!   the same keyed workload (R=3 replicated puts + quorum gets, each key
//!   owned by a social-graph vertex). Social placement answers most
//!   placement queries from the owner's friend/community list without a
//!   DHT lookup, so the ratio is the paper-motivated win: replicas one
//!   social hop away instead of O(log n) DHT hops.
//! * **`bytes_per_node`** — resident bytes of the *entire* simulator state
//!   (arena overlay + interned storage + social graph + placement maps)
//!   divided by N, measured at the largest N. The arena/index refactor
//!   gates this at ≤ 200 bytes/node; the pre-refactor per-node `HashMap`
//!   state measured in kilobytes per node.
//!
//! `--fast` keeps the full N sweep (the point is that 1M nodes fits CI)
//! but shrinks the per-size workload. `OUT` overrides the output path
//! (default `BENCH_8.json`).
//!
//! Usage: `cargo run --release -p dosn-bench --bin e15_scale [--fast] [OUT]`

use dosn_bench::BenchArgs;
use dosn_core::network::{
    ChordPlane, ReplicatedStore, SocialGraphConfig, SocialPlacement, SocialPlane, WorkloadGraph,
};
use dosn_obs::{names, Registry, RunReport, Value};
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::storage::StoragePlane;
use std::collections::BTreeMap;
use std::time::Instant;

const SEED: u64 = 0xE15;
/// Fibonacci-hash stride for spreading key owners across vertices.
const OWNER_STRIDE: u64 = 2_654_435_761;
/// The ISSUE 8 acceptance ceiling on simulator state per node.
const BYTES_PER_NODE_CEILING: f64 = 200.0;

/// One workload definition: `keys` replicated puts then quorum gets, key
/// `i` owned by a deterministic, stride-spread vertex.
fn keyed_workload(n: usize, keys: usize) -> Vec<(Key, u32)> {
    (0..keys)
        .map(|i| {
            let key = Key::hash(format!("e15/{n}/{i}").as_bytes());
            let owner = ((i as u64).wrapping_mul(OWNER_STRIDE) % n as u64) as u32;
            (key, owner)
        })
        .collect()
}

/// Runs puts + gets through a replicated store and returns the Chord hop
/// count the placement layer spent routing.
fn run_workload<P: StoragePlane>(
    store: &mut ReplicatedStore<P>,
    workload: &[(Key, u32)],
) -> (u64, Metrics) {
    let mut m = Metrics::new();
    for (key, _) in workload {
        store
            .put(*key, format!("post {key}").into_bytes(), &mut m)
            .expect("put succeeds on an all-online ring");
    }
    for (key, _) in workload {
        let got = store.get(*key, &mut m).expect("get succeeds");
        assert_eq!(got, format!("post {key}").into_bytes());
    }
    (m.count(names::CHORD_HOP), m)
}

struct SizeResult {
    n: usize,
    keys: usize,
    hash_hops: u64,
    social_hops: u64,
    social_hits: u64,
    fallbacks: u64,
    bytes_per_node: f64,
    build_ms: f64,
    run_ms: f64,
}

fn run_size(n: usize, keys: usize) -> SizeResult {
    let workload = keyed_workload(n, keys);

    // ---- baseline: pure hash placement ----
    let mut hash_plane = ChordPlane::build(n, SEED);
    // Drain the build-time dirty set so stabilization bookkeeping does not
    // sit in the memory measurement (steady-state, not cold-start).
    hash_plane.overlay_mut().stabilize();
    let mut hash_store = ReplicatedStore::new(hash_plane, 3);
    let (hash_hops, _) = run_workload(&mut hash_store, &workload);
    drop(hash_store);

    // ---- social placement over the same ring ----
    let built = Instant::now();
    let graph = WorkloadGraph::generate(&SocialGraphConfig::new(n, SEED));
    let mut plane = ChordPlane::build(n, SEED);
    plane.overlay_mut().stabilize();
    let placement = SocialPlacement::new(graph, &plane.node_ids());
    let mut social_plane = SocialPlane::new(plane, placement);
    for (key, owner) in &workload {
        social_plane.placement_mut().assign_owner(*key, *owner);
    }
    let build_ms = built.elapsed().as_secs_f64() * 1e3;

    let mut social_store = ReplicatedStore::new(social_plane, 3);
    let ran = Instant::now();
    let (social_hops, m) = run_workload(&mut social_store, &workload);
    let run_ms = ran.elapsed().as_secs_f64() * 1e3;

    let plane = social_store.plane();
    let total_bytes = plane.inner().overlay().memory_bytes() + plane.placement().memory_bytes();
    SizeResult {
        n,
        keys,
        hash_hops,
        social_hops,
        social_hits: m.count(names::PLACEMENT_SOCIAL_HITS),
        fallbacks: m.count(names::PLACEMENT_FALLBACKS),
        bytes_per_node: total_bytes as f64 / n as f64,
        build_ms,
        run_ms,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_8.json");

    // `--fast` keeps the full sweep — fitting N=1M in CI *is* the
    // experiment — and shrinks the per-size key count instead.
    let sizes: &[usize] = &[10_000, 100_000, 1_000_000];
    let keys_for = |n: usize| -> usize {
        let base = if args.fast { 200 } else { 2_000 };
        // The smallest ring gets proportionally fewer keys so owners stay
        // sparse relative to N.
        base.min(n / 10)
    };

    let obs = Registry::new();
    let mut run = RunReport::new("E15 million-node scale sweep", args.fast);
    let mut results = Vec::new();
    for &n in sizes {
        let r = run_size(n, keys_for(n));
        println!(
            "N={:>9}: {} keys, hash hops {}, social hops {} (hits {}, fallbacks {}), \
             {:.1} B/node, build {:.0} ms, workload {:.0} ms",
            r.n,
            r.keys,
            r.hash_hops,
            r.social_hops,
            r.social_hits,
            r.fallbacks,
            r.bytes_per_node,
            r.build_ms,
            r.run_ms,
        );
        results.push(r);
    }

    let hash_total: u64 = results.iter().map(|r| r.hash_hops).sum();
    let social_total: u64 = results.iter().map(|r| r.social_hops).sum();
    // Per-op means keep the headline scale-invariant, so the fast CI run
    // gates cleanly against the committed full-workload baseline; +1 on
    // both sides because social placement routinely spends *zero* hops.
    let ops: u64 = results.iter().map(|r| 2 * r.keys as u64).sum();
    let hash_mean = hash_total as f64 / ops as f64;
    let social_mean = social_total as f64 / ops as f64;
    let advantage = (hash_mean + 1.0) / (social_mean + 1.0);
    let largest = results.last().expect("non-empty sweep");
    let bytes_per_node = largest.bytes_per_node;

    obs.set_gauge(names::SIM_NODES, largest.n as f64);
    obs.set_gauge(names::SIM_BYTES_PER_NODE, bytes_per_node);

    println!(
        "social placement hop advantage {advantage:.1}x \
         ({hash_mean:.2} vs {social_mean:.2} mean hops/op over {ops} ops); \
         {bytes_per_node:.1} B/node at N={}",
        largest.n,
    );

    run.set_headline("social_hop_advantage", advantage, true, 0.30);
    run.set_headline("bytes_per_node", bytes_per_node, false, 0.30);
    run.record_registry(&obs);
    for r in &results {
        let mut row = BTreeMap::new();
        row.insert("nodes".to_string(), Value::from(r.n));
        row.insert("keys".to_string(), Value::from(r.keys));
        row.insert("hash_hops".to_string(), Value::from(r.hash_hops));
        row.insert("social_hops".to_string(), Value::from(r.social_hops));
        row.insert("social_hits".to_string(), Value::from(r.social_hits));
        row.insert("fallbacks".to_string(), Value::from(r.fallbacks));
        row.insert("bytes_per_node".to_string(), Value::from(r.bytes_per_node));
        row.insert("build_ms".to_string(), Value::from(r.build_ms));
        row.insert("workload_ms".to_string(), Value::from(r.run_ms));
        run.add_row(row);
    }
    args.save(&run);

    assert!(
        bytes_per_node <= BYTES_PER_NODE_CEILING,
        "simulator state {bytes_per_node:.1} B/node exceeds the \
         {BYTES_PER_NODE_CEILING} B/node arena budget"
    );
    assert!(
        advantage > 1.0,
        "social placement must beat hash placement on routing hops \
         ({hash_total} vs {social_total})"
    );
    for r in &results {
        assert!(
            r.social_hits > 0,
            "N={}: social placement never produced a social candidate",
            r.n
        );
    }
}
