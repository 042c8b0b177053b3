//! Experiment E4 (survey §IV-B): fork-consistency detection probability.
//!
//! One equivocating provider splits clients across two branches of an
//! object history. Clients then gossip view digests over a fixed number of
//! random pairwise exchanges; a fork is detected the moment a cross-branch
//! pair cross-checks. The table reports detection probability versus the
//! number of gossip exchanges, for several client populations — Frientegrity's
//! qualitative claim ("if the clients … communicate to each other, they will
//! discover the provider's misbehaviour") made quantitative.

use crate::Paper;
use dosn_core::integrity::history::{HistoryClient, HistoryServer, Operation};
use dosn_crypto::group::SchnorrGroup;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one trial: returns true when any of `exchanges` random client pairs
/// detects the fork.
fn trial(clients: usize, exchanges: usize, seed: u64) -> bool {
    let mut server = HistoryServer::new(SchnorrGroup::toy(), seed);
    server.append("wall", Operation::new("bob", "shared"));
    let branch = server.fork("wall");
    server.append_to_branch("wall", 0, Operation::new("bob", "view A"));
    server.append_to_branch("wall", branch, Operation::new("bob", "view B"));

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
    let population: Vec<HistoryClient> = (0..clients)
        .map(|i| {
            let assigned = if i % 2 == 0 { 0 } else { branch };
            let mut c = HistoryClient::new(format!("c{i}"), "wall", server.verifying_key().clone());
            let (log, digest) = server.view("wall", assigned);
            c.observe(log, digest).expect("signed view accepted");
            c
        })
        .collect();

    for _ in 0..exchanges {
        let a = rng.random_range(0..clients);
        let b = rng.random_range(0..clients);
        if a == b {
            continue;
        }
        if population[a]
            .cross_check(population[b].digest().expect("observed"))
            .is_err()
        {
            return true;
        }
    }
    false
}

fn detection_table(p: &mut Paper) {
    const TRIALS: u64 = 60;
    p.table(
        "E4: fork detection probability vs gossip exchanges (50/50 branch split)",
        &["clients", "1 exch", "2 exch", "4 exch", "8 exch", "16 exch"],
    );
    for clients in [4usize, 8, 16, 32, 64] {
        let mut cells = vec![clients.to_string()];
        for exchanges in [1usize, 2, 4, 8, 16] {
            let detected = (0..TRIALS)
                .filter(|&t| trial(clients, exchanges, t * 7919 + clients as u64))
                .count();
            cells.push(format!("{:.2}", detected as f64 / TRIALS as f64));
        }
        p.row(&cells);
    }
    println!(
        "\nexpected shape: each random pair is cross-branch with p = 1/2, so\n\
         detection ≈ 1 - (1/2)^exchanges, independent of population size\n"
    );
}

pub fn run(p: &mut Paper) {
    detection_table(p);

    let mut server = HistoryServer::new(SchnorrGroup::toy(), 1);
    for i in 0..50 {
        server.append("wall", Operation::new("bob", format!("post {i}")));
    }
    let mut alice = HistoryClient::new("alice", "wall", server.verifying_key().clone());
    let mut carol = HistoryClient::new("carol", "wall", server.verifying_key().clone());
    let (log, digest) = server.view("wall", 0);
    alice.observe(log, digest).unwrap();
    let (log, digest) = server.view("wall", 0);
    carol.observe(log, digest).unwrap();
    p.time("e4/cross_check", || {
        alice.cross_check(carol.digest().unwrap()).expect("agree");
    });

    let mut server = HistoryServer::new(SchnorrGroup::toy(), 2);
    for i in 0..50 {
        server.append("wall", Operation::new("bob", format!("post {i}")));
    }
    // A fresh client and view per call, built up front so only the
    // observation is timed.
    let mut fresh: Vec<_> = (0..=p.iters())
        .map(|_| {
            (
                HistoryClient::new("fresh", "wall", server.verifying_key().clone()),
                server.view("wall", 0),
            )
        })
        .collect();
    p.time("e4/observe_50_ops", || {
        let (mut client, (log, digest)) = fresh.pop().expect("one client per call");
        client.observe(log, digest).expect("valid");
    });
}
