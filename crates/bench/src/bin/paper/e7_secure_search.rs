//! Experiment E7 (survey §V): search-privacy leakage and overhead.
//!
//! Runs the same interest query under each search mode and prints the
//! leakage matrix (which principals learned the searcher's identity, the
//! query content, and the owner) plus the message overhead. Expected shape:
//! every private mode strictly reduces the provider's knowledge relative to
//! the plain baseline, at increasing message/latency cost; trust ranking is
//! orthogonal and benched separately.

use crate::Paper;
use dosn_core::content::Profile;
use dosn_core::graph::generators;
use dosn_core::identity::UserId;
use dosn_core::search::zk_access::AccessCredential;
use dosn_core::search::{
    rank_results, FriendCircleRouter, Knowledge, LeakageAudit, ProxyDirectory, ResourceRegistry,
    SearchIndex,
};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::collections::BTreeMap;
use std::hint::black_box;

fn yes_no(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

fn leakage_table(p: &mut Paper) {
    let graph = generators::small_world(512, 3, 0.1, 11);
    let mut index = SearchIndex::new();
    index.insert(Profile::new("user300", "Fan").with_interest("jazz"));
    let searcher = UserId::from("user0");

    p.table(
        "E7: provider knowledge by search mode (512-user small world)",
        &[
            "mode",
            "provider knows searcher",
            "provider knows query",
            "identity exposure (principals)",
            "extra msgs",
        ],
    );

    // plain
    let mut audit = LeakageAudit::new();
    index.plain_search(&searcher, "jazz", &mut audit);
    p.row(&[
        "plain".into(),
        yes_no(audit.knows("provider", Knowledge::SearcherIdentity)),
        yes_no(audit.knows("provider", Knowledge::QueryContent)),
        audit.identity_exposure().to_string(),
        "0".into(),
    ]);

    // proxy
    let mut audit = LeakageAudit::new();
    let mut proxy = ProxyDirectory::new([7u8; 32]);
    proxy.search(&searcher, "jazz", &index, &mut audit);
    p.row(&[
        "proxy alias".into(),
        yes_no(audit.knows("provider", Knowledge::SearcherIdentity)),
        yes_no(audit.knows("provider", Knowledge::QueryContent)),
        audit.identity_exposure().to_string(),
        "2".into(), // searcher->proxy, proxy->provider
    ]);

    // friends circle, varying depth
    for depth in [1usize, 3, 5] {
        let mut audit = LeakageAudit::new();
        let mut router = FriendCircleRouter::new(depth, 13);
        let routed = router
            .search(&graph, &searcher, "jazz", &index, &mut audit)
            .expect("connected");
        p.row(&[
            format!(
                "friends circle depth {depth} (anon set {})",
                routed.anonymity_set
            ),
            yes_no(audit.knows("provider", Knowledge::SearcherIdentity)),
            yes_no(audit.knows("provider", Knowledge::QueryContent)),
            audit.identity_exposure().to_string(),
            (routed.chain.len() - 1).to_string(),
        ]);
    }

    // ZKP resource handler
    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(17);
    let mut registry = ResourceRegistry::new(group.clone());
    let cred = AccessCredential::generate(&group, &mut rng);
    registry.register("user300/card", b"contact", &cred);
    let mut audit = LeakageAudit::new();
    registry
        .fetch("user300/card", "nym-1", &cred, &mut rng, &mut audit)
        .expect("authorized");
    p.row(&[
        "zkp resource handler".into(),
        yes_no(audit.knows("registry", Knowledge::SearcherIdentity)),
        yes_no(audit.knows("registry", Knowledge::QueryContent)),
        audit.identity_exposure().to_string(),
        "2".into(), // proof + response
    ]);
    println!(
        "\nnote: for the zkp row the provider column reads the registry principal;\n\
         'query content' there is the opaque handler, not the plaintext interest\n"
    );
}

fn trust_rank_table(p: &mut Paper) {
    let graph = generators::preferential_attachment(300, 2, 21);
    let searcher = UserId::from("user0");
    let candidates: Vec<UserId> = (1..=20)
        .map(|i| UserId(format!("user{}", i * 13)))
        .collect();
    let popularity: BTreeMap<UserId, u64> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), (i as u64 * 7) % 50))
        .collect();
    p.table(
        "E7: trust-ranked search, top 5 of 20 candidates (trust weight 0.7)",
        &["rank", "user", "score", "trust", "popularity"],
    );
    let ranked = rank_results(&graph, &searcher, &candidates, &popularity, 0.7, 5);
    for (i, r) in ranked.iter().take(5).enumerate() {
        p.row(&[
            (i + 1).to_string(),
            r.user.as_str().to_owned(),
            format!("{:.3}", r.score),
            format!("{:.3}", r.trust),
            format!("{:.2}", r.popularity),
        ]);
    }
    println!();
}

pub fn run(p: &mut Paper) {
    leakage_table(p);
    trust_rank_table(p);

    let graph = generators::small_world(512, 3, 0.1, 11);
    let mut index = SearchIndex::new();
    for i in 0..100 {
        index.insert(Profile::new(format!("user{i}"), format!("U{i}")).with_interest("jazz"));
    }
    let searcher = UserId::from("user0");

    p.time("e7/plain_search", || {
        let mut audit = LeakageAudit::new();
        black_box(index.plain_search(&searcher, "jazz", &mut audit));
    });
    let mut proxy = ProxyDirectory::new([1u8; 32]);
    p.time("e7/proxy_search", || {
        let mut audit = LeakageAudit::new();
        black_box(proxy.search(&searcher, "jazz", &index, &mut audit));
    });
    let mut router = FriendCircleRouter::new(3, 1);
    p.time("e7/circle_search_depth3", || {
        let mut audit = LeakageAudit::new();
        black_box(router.search(&graph, &searcher, "jazz", &index, &mut audit));
    });

    let group = SchnorrGroup::toy();
    let mut rng = SecureRng::seed_from_u64(2);
    let mut registry = ResourceRegistry::new(group.clone());
    let cred = AccessCredential::generate(&group, &mut rng);
    registry.register("r/1", b"content", &cred);
    p.time("e7/zk_fetch", || {
        let mut audit = LeakageAudit::new();
        black_box(
            registry
                .fetch("r/1", "nym", &cred, &mut rng, &mut audit)
                .expect("authorized"),
        );
    });

    let candidates: Vec<UserId> = (1..=20)
        .map(|i| UserId(format!("user{}", i * 13)))
        .collect();
    let popularity: BTreeMap<UserId, u64> = BTreeMap::new();
    p.time("e7/trust_rank_20", || {
        black_box(rank_results(
            &graph,
            &searcher,
            &candidates,
            &popularity,
            0.7,
            5,
        ));
    });
}
