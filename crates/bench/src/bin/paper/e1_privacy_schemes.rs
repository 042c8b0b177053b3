//! Experiment E1 (survey §III): data-privacy scheme comparison.
//!
//! For each scheme and group size: encryption latency, decryption latency,
//! and ciphertext size for a 1 KiB post. Expected shape (per the survey's
//! qualitative claims): symmetric ≪ hybrid ≈ pke ≪ cp-abe / ibbe for cost;
//! symmetric ciphertexts are O(1), pke/ibbe grow O(n) with the audience.

use crate::Paper;
use dosn_bench::{all_schemes, member_names, post_payload, GROUP_SIZES};
use std::hint::black_box;

fn ciphertext_size_table(p: &mut Paper) {
    p.table(
        "E1: ciphertext size (bytes) for a 1 KiB post vs group size",
        &["scheme", "n=1", "n=4", "n=16", "n=64"],
    );
    let mut rows = vec![vec![String::new(); 5]; all_schemes(1).len()];
    for (col, &n) in GROUP_SIZES.iter().enumerate() {
        for (row, scheme) in all_schemes(n).iter_mut().enumerate() {
            let g = scheme.create_group(&member_names(n)).expect("group");
            let ct = scheme.encrypt(&g, &post_payload()).expect("encrypt");
            rows[row][0] = scheme.name().to_owned();
            rows[row][col + 1] = ct.size_bytes().to_string();
        }
    }
    for r in rows {
        p.row(&r);
    }
}

pub fn run(p: &mut Paper) {
    ciphertext_size_table(p);

    let payload = post_payload();
    for &n in GROUP_SIZES {
        for mut scheme in all_schemes(n) {
            // IBBE at n=64 costs ~64 Cocks encryptions per post; still
            // timed — that IS the result.
            let g = scheme.create_group(&member_names(n)).expect("group");
            let label = format!("e1/encrypt/{}/{n}", scheme.name());
            p.time(&label, || {
                black_box(scheme.encrypt(&g, &payload).expect("encrypt"));
            });
        }
    }
    for &n in GROUP_SIZES {
        for mut scheme in all_schemes(n) {
            let g = scheme.create_group(&member_names(n)).expect("group");
            let ct = scheme.encrypt(&g, &payload).expect("encrypt");
            let label = format!("e1/decrypt/{}/{n}", scheme.name());
            p.time(&label, || {
                black_box(scheme.decrypt_as(&g, "m0", &ct).expect("decrypt"));
            });
        }
    }
}
