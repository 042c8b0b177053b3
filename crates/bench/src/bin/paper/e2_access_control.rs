//! Experiment E2 (survey §III): access-control management costs.
//!
//! Group creation, member addition, and member revocation per scheme, with
//! the survey's headline contrast: symmetric and CP-ABE revocation re-key
//! every remaining member *and* owe re-encryption of all stored history,
//! while PKE and IBBE revocation are free list edits.

use crate::Paper;
use dosn_bench::{all_schemes, member_names};
use std::hint::black_box;

const HISTORY_POSTS: usize = 100;
const GROUP: usize = 16;

fn revocation_cost_table(p: &mut Paper) {
    p.table(
        &format!("E2: revocation cost after {HISTORY_POSTS} posts in a {GROUP}-member group"),
        &[
            "scheme",
            "key messages",
            "re-keyed members",
            "posts to re-encrypt",
        ],
    );
    for mut scheme in all_schemes(GROUP) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        for i in 0..HISTORY_POSTS {
            scheme
                .encrypt(&g, format!("post {i}").as_bytes())
                .expect("encrypt");
        }
        let cost = scheme.revoke_member(&g, "m3").expect("revoke");
        p.row(&[
            scheme.name().to_owned(),
            cost.key_messages.to_string(),
            cost.rekeyed_members.to_string(),
            cost.posts_to_reencrypt.to_string(),
        ]);
    }
}

fn addition_cost_table(p: &mut Paper) {
    p.table(
        &format!("E2: member-addition cost in a {GROUP}-member group"),
        &["scheme", "key messages", "re-keyed members"],
    );
    for mut scheme in all_schemes(GROUP + 1) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        let cost = scheme
            .add_member(&g, &format!("m{GROUP}"))
            .expect("add member");
        p.row(&[
            scheme.name().to_owned(),
            cost.key_messages.to_string(),
            cost.rekeyed_members.to_string(),
        ]);
    }
}

pub fn run(p: &mut Paper) {
    revocation_cost_table(p);
    addition_cost_table(p);

    for n in [4usize, 16, 64] {
        for mut scheme in all_schemes(n) {
            let label = format!("e2/create_group/{}/{n}", scheme.name());
            p.time(&label, || {
                black_box(scheme.create_group(&member_names(n)).expect("group"));
            });
        }
    }

    for mut scheme in all_schemes(64) {
        // A fresh group per call so each revocation is valid; the groups
        // are built up front so only the revocation is timed.
        let names = member_names(64);
        let mut groups: Vec<_> = (0..=p.iters())
            .map(|_| scheme.create_group(&names).expect("group"))
            .collect();
        let label = format!("e2/revoke_member/{}", scheme.name());
        p.time(&label, || {
            let g = groups.pop().expect("one group per call");
            black_box(scheme.revoke_member(&g, "m1").expect("revoke"));
        });
    }
}
