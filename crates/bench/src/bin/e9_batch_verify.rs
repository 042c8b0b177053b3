//! E9 extension: batched Schnorr envelope verification throughput.
//!
//! Measures verified envelopes per second on the real group moduli, per-
//! envelope vs one combined random-linear-combination check
//! ([`dosn_crypto::batch::batch_verify`]), plus the quorum-read shape the
//! engine actually batches (R byte-identical copies per envelope, which
//! deduplicate to one combined-check slot each). Writes machine-readable
//! results to `BENCH_7.json` so CI can gate the batch speedup.
//!
//! Usage: `cargo run --release -p dosn-bench --bin e9_batch_verify [--fast] [OUT]`
//!
//! `--fast` cuts iteration counts for CI; `OUT` overrides the output path
//! (default `BENCH_7.json` in the working directory).

use dosn_bench::{table_header, table_row, time_ns, BenchArgs};
use dosn_crypto::batch::batch_verify;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::schnorr::{Signature, SigningKey};
use dosn_obs::{Registry, RunReport, Value};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Envelopes per combined check: the acceptance criterion's batch size.
const BATCH: usize = 64;
/// Replication factor of the quorum-read shape.
const R: usize = 3;

struct Row {
    bits: u64,
    path: &'static str,
    envelopes: usize,
    ns_per_call: f64,
    envelopes_per_sec: f64,
}

fn main() {
    let args = BenchArgs::parse("BENCH_7.json");

    let obs = Registry::new();
    let mut rows: Vec<Row> = Vec::new();
    for (size, bits) in [(GroupSize::Demo, 512u64), (GroupSize::Legacy, 1024)] {
        let iters = match (bits, args.fast) {
            (512, false) => 6,
            (512, true) => 2,
            (_, false) => 3,
            (_, true) => 1,
        };
        let group = SchnorrGroup::with_size(size);
        group.register_obs(&obs);
        let mut rng = SecureRng::seed_from_u64(0xE9BA);
        let key = SigningKey::generate(group.clone(), &mut rng);
        let vk = key.verifying_key();
        // Distinct "envelope digests" — hash-then-sign message bodies.
        let msgs: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| format!("envelope digest {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m, &mut rng)).collect();

        let mut push = |path: &'static str, envelopes: usize, ns: f64| {
            rows.push(Row {
                bits,
                path,
                envelopes,
                ns_per_call: ns,
                envelopes_per_sec: envelopes as f64 / (ns / 1e9),
            });
        };

        // Per-envelope: the pre-batch verify loop.
        push(
            "per_envelope",
            BATCH,
            time_ns(iters, || {
                for (m, s) in msgs.iter().zip(&sigs) {
                    black_box(vk.verify(m, s).is_ok());
                }
            }),
        );

        // One combined check over 64 distinct envelopes.
        let items: Vec<(&dosn_crypto::schnorr::VerifyingKey, &[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (vk, m.as_slice(), s))
            .collect();
        push(
            "batch64",
            BATCH,
            time_ns(iters, || {
                black_box(batch_verify(&items).is_ok());
            }),
        );

        // Quorum shape: R identical copies per envelope. The batch path
        // deduplicates them to one slot each; the per-envelope path pays
        // the full R× verification bill.
        let quorum_items: Vec<(&dosn_crypto::schnorr::VerifyingKey, &[u8], &Signature)> =
            (0..R).flat_map(|_| items.iter().copied()).collect();
        push(
            "per_envelope_r3",
            BATCH * R,
            time_ns(iters, || {
                for &(k, m, s) in &quorum_items {
                    black_box(k.verify(m, s).is_ok());
                }
            }),
        );
        push(
            "batch64_r3",
            BATCH * R,
            time_ns(iters, || {
                black_box(batch_verify(&quorum_items).is_ok());
            }),
        );
    }

    table_header(
        "E9: batched Schnorr envelope verification",
        &["bits", "path", "envelopes", "ms/call", "envelopes/s"],
    );
    for r in &rows {
        table_row(&[
            r.bits.to_string(),
            r.path.to_string(),
            r.envelopes.to_string(),
            format!("{:.2}", r.ns_per_call / 1e6),
            format!("{:.0}", r.envelopes_per_sec),
        ]);
    }

    let rate = |bits: u64, path: &str| {
        rows.iter()
            .find(|r| r.bits == bits && r.path == path)
            .map(|r| r.envelopes_per_sec)
            .unwrap_or(f64::NAN)
    };
    let headline_rate = rate(1024, "batch64");
    let speedup = headline_rate / rate(1024, "per_envelope");
    let speedup_r3 = rate(1024, "batch64_r3") / rate(1024, "per_envelope_r3");
    println!(
        "\nheadline: batch-64 verification @1024 = {headline_rate:.0} envelopes/s, \
         {speedup:.2}x over per-envelope (target >= 4x); quorum-R3 shape {speedup_r3:.2}x"
    );

    // BENCH_7.json: the gate compares both headlines against the committed
    // baseline. The speedup is a ratio (machine-insensitive, 30%
    // tolerance); the absolute rate gets a wider band for CI-runner noise.
    let mut report = RunReport::new("E9 batched Schnorr verification", args.fast);
    report.set_headline("verified_envelopes_per_sec", headline_rate, true, 0.50);
    report.set_headline("batch64_verify_speedup", speedup, true, 0.30);
    report.record_registry(&obs);
    for r in rows.iter() {
        let mut row = BTreeMap::new();
        row.insert("bits".to_string(), Value::from(r.bits));
        row.insert("path".to_string(), Value::from(r.path));
        row.insert("envelopes".to_string(), Value::from(r.envelopes as u64));
        row.insert("ns_per_call".to_string(), Value::from(r.ns_per_call));
        row.insert(
            "envelopes_per_sec".to_string(),
            Value::from(r.envelopes_per_sec),
        );
        report.add_row(row);
    }
    args.save(&report);

    if speedup < 4.0 {
        eprintln!("WARNING: batch-64 verification speedup below the 4x acceptance target");
    }
}
