//! Experiment E3 (survey §IV): integrity mechanism throughput.
//!
//! Sign/verify latency for envelopes (owner + content integrity),
//! hash-chain append and full-chain verification for timelines of varying
//! length (historical integrity), and per-post comment-key operations
//! (relation integrity).

use crate::Paper;
use dosn_core::identity::Identity;
use dosn_core::integrity::envelope::SignedEnvelope;
use dosn_core::integrity::relations::{CommentAttachment, PostRelationKeys};
use dosn_core::integrity::timeline::Timeline;
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use dosn_crypto::keys::KeyDirectory;
use std::hint::black_box;
use std::time::Instant;

fn chain_verification_table(p: &mut Paper) {
    let mut rng = SecureRng::seed_from_u64(3);
    let dir = KeyDirectory::new();
    let bob = Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng);
    p.table(
        "E3: timeline chain verification time vs length",
        &["entries", "append total (ms)", "verify total (ms)"],
    );
    for len in [10usize, 100, 1000] {
        let t0 = Instant::now();
        let mut timeline = Timeline::new(bob.id().clone());
        for i in 0..len {
            timeline.append(&bob, format!("post {i}").as_bytes(), vec![], &mut rng);
        }
        let append_ms = t0.elapsed().as_millis();
        let t1 = Instant::now();
        timeline.verify(&dir).expect("chain verifies");
        let verify_ms = t1.elapsed().as_millis();
        p.row(&[
            len.to_string(),
            append_ms.to_string(),
            verify_ms.to_string(),
        ]);
    }
}

pub fn run(p: &mut Paper) {
    chain_verification_table(p);

    let mut rng = SecureRng::seed_from_u64(33);
    let dir = KeyDirectory::new();
    let bob = Identity::create("bob", SchnorrGroup::toy(), &dir, &mut rng);

    let mut seal_rng = SecureRng::seed_from_u64(1);
    p.time("e3/envelope_seal", || {
        black_box(SignedEnvelope::seal(
            &bob,
            Some("alice".into()),
            1,
            100,
            Some(200),
            b"come to my party held at my home on friday",
            &mut seal_rng,
        ));
    });

    let env = SignedEnvelope::seal(&bob, None, 1, 100, None, b"message body", &mut rng);
    p.time("e3/envelope_verify", || {
        env.verify(&dir, None, 150).expect("valid");
    });

    for len in [10usize, 100, 1000] {
        let mut timeline = Timeline::new(bob.id().clone());
        let mut rng2 = SecureRng::seed_from_u64(7);
        for i in 0..len {
            timeline.append(&bob, format!("{i}").as_bytes(), vec![], &mut rng2);
        }
        p.time(&format!("e3/timeline_verify/{len}"), || {
            timeline.verify(&dir).expect("valid");
        });
    }

    // Relation integrity: write + verify a comment with per-post keys.
    let commenters = SymmetricKey::generate(&mut rng);
    let post = PostRelationKeys::create("p/1", SchnorrGroup::toy(), &commenters, &mut rng);
    let mut comment_rng = SecureRng::seed_from_u64(9);
    p.time("e3/comment_create", || {
        black_box(
            CommentAttachment::create(&post, &commenters, "alice".into(), b"+1", &mut comment_rng)
                .expect("authorized"),
        );
    });
    let comment =
        CommentAttachment::create(&post, &commenters, "alice".into(), b"+1", &mut rng).unwrap();
    p.time("e3/comment_verify", || {
        post.verify_comment(&comment).expect("valid");
    });
}
