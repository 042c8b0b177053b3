//! Experiment E8 (survey §V-A / §III-F): Hummingbird-style blind
//! subscription.
//!
//! Measures the oblivious subscription protocol, per-tweet publish cost,
//! subscriber matching over a stream, and blind-token issuance/redemption —
//! and prints the unlinkability/overhead summary comparing plain vs private
//! subscription.

use crate::Paper;
use dosn_core::privacy::{HummingbirdPublisher, HummingbirdSubscriber};
use dosn_core::search::{LeakageAudit, SubscriptionAuthority};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::hint::black_box;
use std::time::Instant;

fn summary_table(p: &mut Paper) {
    let mut rng = SecureRng::seed_from_u64(88);
    let mut publisher = HummingbirdPublisher::new(SchnorrGroup::toy(), &mut rng);

    const TWEETS: usize = 1000;
    const TAGS: usize = 16;
    let t0 = Instant::now();
    let tweets: Vec<_> = (0..TWEETS)
        .map(|i| {
            publisher.publish(
                &format!("#tag{}", i % TAGS),
                format!("tweet number {i}").as_bytes(),
                &mut rng,
            )
        })
        .collect();
    let publish_ms = t0.elapsed().as_millis();

    // One subscriber, obliviously keyed to #tag3.
    let (blinded, state) =
        HummingbirdSubscriber::subscribe_request(publisher.group(), "#tag3", &mut rng);
    let evaluated = publisher.answer_subscription(&blinded).expect("protocol");
    let sub = HummingbirdSubscriber::finish(&state, &evaluated).expect("protocol");

    let t1 = Instant::now();
    let matched = tweets.iter().filter(|t| sub.matches(t)).count();
    let match_ms = t1.elapsed().as_millis();
    let opened = tweets
        .iter()
        .filter(|t| sub.matches(t))
        .map(|t| sub.open(t).expect("subscribed"))
        .filter(|body| !body.is_empty())
        .count();

    p.table(
        &format!("E8: Hummingbird subscription over {TWEETS} tweets, {TAGS} hashtags"),
        &["quantity", "value"],
    );
    p.row(&["publish total (ms)".into(), publish_ms.to_string()]);
    p.row(&["tweets matching #tag3".into(), matched.to_string()]);
    p.row(&["matched+decrypted".into(), opened.to_string()]);
    p.row(&[
        "match scan (ms, handle compare only)".into(),
        match_ms.to_string(),
    ]);
    p.row(&[
        "publisher learned subscriber's tag?".into(),
        "no (OPRF-blinded)".into(),
    ]);
    println!();
}

pub fn run(p: &mut Paper) {
    summary_table(p);

    let mut rng = SecureRng::seed_from_u64(99);
    let mut publisher = HummingbirdPublisher::new(SchnorrGroup::toy(), &mut rng);

    let mut publish_rng = SecureRng::seed_from_u64(1);
    p.time("e8/publish_tweet", || {
        black_box(publisher.publish("#icdcs", b"a 140 character thought", &mut publish_rng));
    });

    let mut subscribe_rng = SecureRng::seed_from_u64(2);
    p.time("e8/oblivious_subscribe", || {
        let (blinded, state) = HummingbirdSubscriber::subscribe_request(
            publisher.group(),
            "#icdcs",
            &mut subscribe_rng,
        );
        let evaluated = publisher.answer_subscription(&blinded).expect("protocol");
        black_box(HummingbirdSubscriber::finish(&state, &evaluated).expect("protocol"));
    });

    let (blinded, state) =
        HummingbirdSubscriber::subscribe_request(publisher.group(), "#icdcs", &mut rng);
    let evaluated = publisher.answer_subscription(&blinded).unwrap();
    let sub = HummingbirdSubscriber::finish(&state, &evaluated).unwrap();
    let tweet = publisher.publish("#icdcs", b"payload", &mut rng);
    p.time("e8/match_and_open", || {
        assert!(sub.matches(&tweet));
        black_box(sub.open(&tweet).expect("subscribed"));
    });

    let mut token_rng = SecureRng::seed_from_u64(3);
    let mut authority = SubscriptionAuthority::new(SchnorrGroup::toy(), &mut token_rng);
    p.time("e8/blind_token_issue_redeem", || {
        let mut audit = LeakageAudit::new();
        let token = authority
            .issue_token_for("alice", &mut token_rng, &mut audit)
            .expect("issue");
        authority.redeem(&token, "nym", &mut audit).expect("redeem");
    });
}
