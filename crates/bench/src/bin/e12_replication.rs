//! E12: replication factor sweep over every storage plane.
//!
//! Drives the request engine (`Engine<S>`) over all four §II-B
//! overlay families × replication factors R ∈ {1, 3, 5} and measures, per
//! cell: post and read throughput, stored bytes per post (the R× storage
//! price), and wall availability + read-repair activity after a 25% node
//! crash injected through the PR 1 fault-plan harness.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e12_replication [--fast] [OUT]`
//!
//! `--fast` cuts workload sizes for CI; `OUT` overrides the output path
//! (default `BENCH_3.json` in the working directory).

use dosn_bench::{table_header, table_row, BenchArgs};
use dosn_core::engine::Engine;
use dosn_core::network::{
    ChordPlane, FederationPlane, KademliaPlane, ReplicatedStore, StoragePlane, SuperPeerPlane,
};
use dosn_obs::{Registry, RunReport, Value};
use dosn_overlay::fault::FaultPlan;
use std::collections::BTreeMap;
use std::time::Instant;

const SEED: u64 = 0xE12;

struct Cfg {
    users: usize,
    posts_per_user: u64,
    nodes: usize,
    fed_servers: usize,
}

struct Row {
    overlay: &'static str,
    replicas: usize,
    posts_per_sec: f64,
    reads_per_sec: f64,
    bytes_per_post: f64,
    availability: f64,
    crashed: usize,
    repairs: u64,
}

fn user(i: usize) -> String {
    format!("user{i}")
}

fn run_cell<S: StoragePlane>(
    overlay: &'static str,
    plane: S,
    replicas: usize,
    cfg: &Cfg,
    obs: &Registry,
) -> Row {
    // Every cell records into the one sweep-wide registry: the report's
    // net.post / net.read_post.quorum / store.get.quorum histograms cover
    // all overlay x R cells together.
    let store = ReplicatedStore::new(plane, replicas).with_obs(obs.clone());
    let mut net = Engine::new(store, SEED);
    for i in 0..cfg.users {
        net.register(&user(i)).expect("register");
    }
    // Friendship ring: user i ↔ user i+1, so every post has a reader.
    for i in 0..cfg.users {
        net.befriend(&user(i), &user((i + 1) % cfg.users), 0.9)
            .expect("befriend");
    }

    // Post phase.
    let started = Instant::now();
    let mut posted: Vec<(usize, u64)> = Vec::new();
    for i in 0..cfg.users {
        for p in 0..cfg.posts_per_user {
            let seq = net
                .post(&user(i), &format!("post {p} from user {i}"))
                .expect("post");
            posted.push((i, seq));
        }
    }
    let posts_per_sec = posted.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
    let bytes_per_post = net.storage().accounting().total_bytes() as f64 / posted.len() as f64;

    // Read phase: each post read once by the author's ring neighbour.
    let started = Instant::now();
    for &(author, seq) in &posted {
        let reader = user((author + 1) % cfg.users);
        net.read_post(&reader, &user(author), seq).expect("read");
    }
    let reads_per_sec = posted.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);

    // Crash phase: every 4th storage node goes down at t=0 via a fault
    // plan, then every wall is read again.
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
    let crashed = net.apply_crashes(&plan, 1);
    let repairs_before = net.metrics().count("get.repairs");
    let mut readable = 0usize;
    for &(author, seq) in &posted {
        let reader = user((author + 1) % cfg.users);
        if net.read_post(&reader, &user(author), seq).is_ok() {
            readable += 1;
        }
    }
    Row {
        overlay,
        replicas,
        posts_per_sec,
        reads_per_sec,
        bytes_per_post,
        availability: readable as f64 / posted.len() as f64,
        crashed,
        repairs: net.metrics().count("get.repairs") - repairs_before,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_3.json");

    let cfg = if args.fast {
        Cfg {
            users: 6,
            posts_per_user: 2,
            nodes: 32,
            fed_servers: 8,
        }
    } else {
        Cfg {
            users: 10,
            posts_per_user: 6,
            nodes: 64,
            fed_servers: 12,
        }
    };

    let obs = Registry::new();
    let mut rows: Vec<Row> = Vec::new();
    for replicas in [1usize, 3, 5] {
        rows.push(run_cell(
            "chord",
            ChordPlane::build(cfg.nodes, SEED),
            replicas,
            &cfg,
            &obs,
        ));
        rows.push(run_cell(
            "kademlia",
            KademliaPlane::build(cfg.nodes, 20, SEED),
            replicas,
            &cfg,
            &obs,
        ));
        rows.push(run_cell(
            "superpeer",
            SuperPeerPlane::build(cfg.nodes, cfg.nodes / 8, SEED),
            replicas,
            &cfg,
            &obs,
        ));
        rows.push(run_cell(
            "federation",
            FederationPlane::build(cfg.fed_servers),
            replicas,
            &cfg,
            &obs,
        ));
    }

    table_header(
        "E12: replication sweep (post/read throughput, availability under 25% crash)",
        &[
            "overlay",
            "R",
            "posts/s",
            "reads/s",
            "bytes/post",
            "crashed",
            "avail",
            "repairs",
        ],
    );
    for r in &rows {
        table_row(&[
            r.overlay.to_string(),
            r.replicas.to_string(),
            format!("{:.0}", r.posts_per_sec),
            format!("{:.0}", r.reads_per_sec),
            format!("{:.0}", r.bytes_per_post),
            r.crashed.to_string(),
            format!("{:.2}", r.availability),
            r.repairs.to_string(),
        ]);
    }

    // Headline: replication must buy availability. For every overlay,
    // R=3 walls must survive the crash at least as well as R=1 walls
    // (successor/forward-scan overlays reach 1.00 outright; Kademlia's
    // XOR-scattered holders overlap the crash set randomly, so its gain
    // is probabilistic rather than certain).
    let avail = |overlay: &str, replicas: usize| {
        rows.iter()
            .find(|r| r.overlay == overlay && r.replicas == replicas)
            .map(|r| r.availability)
            .unwrap_or(f64::NAN)
    };
    let min_r3_avail = rows
        .iter()
        .filter(|r| r.replicas == 3)
        .map(|r| r.availability)
        .fold(f64::INFINITY, f64::min);
    let mut regression = false;
    for overlay in ["chord", "kademlia", "superpeer", "federation"] {
        let (a1, a3) = (avail(overlay, 1), avail(overlay, 3));
        println!("headline: {overlay} availability under 25% crash: R=1 {a1:.2} -> R=3 {a3:.2}");
        if a3 < a1 {
            regression = true;
        }
    }

    // --- BENCH_3.json: schema-versioned RunReport --------------------------
    // Two gated headlines: the R=3 availability floor under the 25% crash
    // (the survey's replication payoff — a >30% drop fails CI) and the mean
    // R=3 post throughput (same tolerance; wall-clock, so the band absorbs
    // shared-runner noise).
    let r3_cells: Vec<&Row> = rows.iter().filter(|r| r.replicas == 3).collect();
    let mean_r3_posts =
        r3_cells.iter().map(|r| r.posts_per_sec).sum::<f64>() / r3_cells.len().max(1) as f64;

    let mut report = RunReport::new("E12 replication sweep over storage planes", args.fast);
    report.set_headline("min_availability_r3", min_r3_avail, true, 0.30);
    report.set_headline("mean_posts_per_sec_r3", mean_r3_posts, true, 0.30);
    report.record_registry(&obs);
    for r in &rows {
        let mut row = BTreeMap::new();
        row.insert("overlay".to_string(), Value::from(r.overlay));
        row.insert("replicas".to_string(), Value::from(r.replicas));
        row.insert("posts_per_sec".to_string(), Value::from(r.posts_per_sec));
        row.insert("reads_per_sec".to_string(), Value::from(r.reads_per_sec));
        row.insert("bytes_per_post".to_string(), Value::from(r.bytes_per_post));
        row.insert("crashed_nodes".to_string(), Value::from(r.crashed));
        row.insert("availability".to_string(), Value::from(r.availability));
        row.insert("repairs".to_string(), Value::from(r.repairs));
        report.add_row(row);
    }
    args.save(&report);

    if regression {
        eprintln!("WARNING: some overlay lost availability going from R=1 to R=3");
    }
}
