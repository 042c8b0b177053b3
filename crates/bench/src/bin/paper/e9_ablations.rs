//! Experiment E9: ablations over the workspace's own design choices
//! (DESIGN.md "expected shapes" that are about *our* substrate rather than
//! the survey's claims).
//!
//! * CP-ABE cost vs policy depth (secret-sharing tree recursion);
//! * Chord vs Kademlia on the identical lookup workload (structured-overlay
//!   geometry choice);
//! * Chord replication factor vs per-store message cost.
//!
//! The exponentiation-engine ablation (Barrett vs division-based modular
//! exponentiation, fixed-base tables, multi-exponentiation) is its own
//! binary, `e9_quick`, which records BENCH_2.json.

use crate::Paper;
use dosn_crypto::abe::{AbeAuthority, Policy};
use dosn_crypto::chacha::SecureRng;
use dosn_overlay::chord::ChordOverlay;
use dosn_overlay::id::Key;
use dosn_overlay::kademlia::KademliaOverlay;
use dosn_overlay::metrics::Metrics;
use std::hint::black_box;

pub fn run(p: &mut Paper) {
    abe_depth(p);
    chord_vs_kademlia(p);
    replication_cost_table(p);
}

fn abe_depth(p: &mut Paper) {
    // Policy of the shape ((a0 AND a1) AND a2) ... nested to `depth`.
    fn deep_policy(depth: usize) -> Policy {
        let mut p = Policy::Attr("a0".into());
        for i in 1..=depth {
            p = Policy::And(vec![p, Policy::Attr(format!("a{i}"))]);
        }
        p
    }
    p.table(
        "E9: CP-ABE ciphertext size vs policy depth",
        &["depth (AND-nesting)", "attributes", "ciphertext bytes"],
    );
    let mut auth = AbeAuthority::new([1u8; 32]);
    let mut rng = SecureRng::seed_from_u64(1);
    for depth in [1usize, 4, 16, 64] {
        let policy = deep_policy(depth);
        let ct = auth
            .encrypt(&policy, b"payload", &mut rng)
            .expect("encrypt");
        p.row(&[
            depth.to_string(),
            (depth + 1).to_string(),
            ct.size_bytes().to_string(),
        ]);
    }
    println!();

    for depth in [1usize, 4, 16, 64] {
        let policy = deep_policy(depth);
        let attrs: Vec<String> = (0..=depth).map(|i| format!("a{i}")).collect();
        let key = auth.issue_key("user", &attrs);
        let ct = auth
            .encrypt(&policy, b"payload", &mut rng)
            .expect("encrypt");
        p.time(&format!("e9/abe_policy_depth/encrypt/{depth}"), || {
            black_box(
                auth.encrypt(&policy, b"payload", &mut rng)
                    .expect("encrypt"),
            );
        });
        p.time(&format!("e9/abe_policy_depth/decrypt/{depth}"), || {
            black_box(key.decrypt(&ct).expect("satisfies"));
        });
    }
}

fn chord_vs_kademlia(p: &mut Paper) {
    p.table(
        "E9: structured-overlay geometry, 512 nodes, 40 queries",
        &["overlay", "avg msgs/query", "avg latency (ms)"],
    );
    {
        let mut chord = ChordOverlay::build(512, 3, 5);
        let mut m = Metrics::new();
        for i in 0..40u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = chord.random_node(i);
            chord.store(w, key, vec![0u8; 64], &mut m).expect("store");
            chord
                .get(chord.random_node(i + 7), key, &mut m)
                .expect("get");
        }
        p.row(&[
            "chord (ring)".into(),
            format!("{:.1}", m.messages as f64 / 80.0),
            format!("{:.0}", m.latency_ms as f64 / 80.0),
        ]);
    }
    {
        let mut kad = KademliaOverlay::build(512, 3, 20, 5);
        let mut m = Metrics::new();
        for i in 0..40u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = kad.random_node(i);
            kad.store(w, key, vec![0u8; 64], &mut m).expect("store");
            kad.get(kad.random_node(i + 7), key, &mut m).expect("get");
        }
        p.row(&[
            "kademlia (xor, k=20, α=3)".into(),
            format!("{:.1}", m.messages as f64 / 80.0),
            format!("{:.0}", m.latency_ms as f64 / 80.0),
        ]);
    }
    println!();

    let mut chord = ChordOverlay::build(512, 3, 9);
    let key = Key::hash(b"target");
    let mut i = 0u64;
    p.time("e9/structured_lookup/chord", || {
        i += 1;
        let mut m = Metrics::new();
        black_box(
            chord
                .lookup(chord.random_node(i), key, &mut m)
                .expect("lookup"),
        );
    });
    let mut kad = KademliaOverlay::build(512, 3, 20, 9);
    let mut i = 0u64;
    p.time("e9/structured_lookup/kademlia", || {
        i += 1;
        let mut m = Metrics::new();
        black_box(kad.lookup(kad.random_node(i), key, &mut m));
    });
}

fn replication_cost_table(p: &mut Paper) {
    p.table(
        "E9: chord per-store replica messages vs replication factor",
        &["replicas", "replicate msgs per store"],
    );
    for r in [1usize, 2, 4, 8] {
        let mut chord = ChordOverlay::build(256, r, 3);
        let mut m = Metrics::new();
        for i in 0..30u64 {
            let key = Key::hash(format!("k{i}").as_bytes());
            let w = chord.random_node(i);
            chord.store(w, key, vec![0u8; 64], &mut m).expect("store");
        }
        p.row(&[
            r.to_string(),
            format!("{:.1}", m.count("chord.replicate") as f64 / 30.0),
        ]);
    }
    println!();
}
