//! Per-layer metrics of the traced run: deltas of the engine's own
//! counters over the measured phase, span sums, and the unit-cost ladder
//! of direct calls into each lower layer.

use crate::bench::{PhaseOut, CHORD_NODES, REPLICAS};
use crate::trace::{self_times, Span};
use dosn_core::engine::Engine;
use dosn_core::feed::FeedCacheStats;
use dosn_core::identity::Identity;
use dosn_core::integrity::SignedEnvelope;
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::batch::batch_verify;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::SigningKey;
use dosn_crypto::sha256::sha256;
use dosn_obs::{names, Snapshot};
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One per-layer metric: name, unit, direction, and the end-to-end metric
/// and workload it should move. `BENCHMARK.json` lists the same names.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric, in output order. "req" is one user action: a
/// `read_feed` call, one op in a batch, or one `unfriend`.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    m("engine.call_us", "us/req", "lower", "req_per_s,call_p50_ms", "all"),
    m("engine.plan_us", "us/req", "lower", "req_per_s", "write_churn"),
    m("engine.prepare_us", "us/req", "lower", "req_per_s", "write_churn"),
    m("engine.commit_us", "us/req", "lower", "req_per_s", "write_churn"),
    m("engine.finish_us", "us/req", "lower", "call_p50_ms", "feed_cold"),
    m("engine.unattributed_frac", "ratio", "lower", "req_per_s", "all"),
    m("engine.parallel_busy_ratio", "ratio", "higher", "none", "write_churn"),
    m("engine.pipeline_overlap_ratio", "ratio", "higher", "none", "write_churn"),
    m("engine.parallel_speedup", "ratio", "higher", "none", "all"),
    m("engine.unfriend_us", "us/call", "lower", "call_p99_ms", "write_churn"),
    m("feed.hit_ratio", "ratio", "higher", "call_p50_ms", "feed_hot"),
    m("feed.invalidations_per_kreq", "count/kreq", "lower", "call_p99_ms", "feed_hot"),
    m("feed.evictions_per_kreq", "count/kreq", "lower", "call_p50_ms", "feed_cold"),
    m("cache.hit_ratio", "ratio", "higher", "call_p50_ms", "feed_hot,feed_cold"),
    m("cache.evictions_per_kreq", "count/kreq", "lower", "call_p50_ms", "feed_hot,feed_cold"),
    m("store.put_us", "us/req", "lower", "req_per_s", "write_churn"),
    m("store.puts_per_req", "count/req", "lower", "req_per_s", "write_churn"),
    m("store.get_us", "us/req", "lower", "call_p50_ms", "feed_cold"),
    m("store.gets_per_req", "count/req", "lower", "call_p50_ms", "feed_cold"),
    m("store.repairs", "count", "lower", "fail_frac", "all"),
    m("overlay.msgs_per_req", "count/req", "lower", "cpu_ms_per_req", "all"),
    m("overlay.bytes_per_req", "B/req", "lower", "cpu_ms_per_req", "all"),
    m("crypto.verify_us", "us/req", "lower", "call_p50_ms", "feed_cold"),
    m("crypto.verifies_per_req", "count/req", "lower", "call_p50_ms", "feed_cold"),
    m("crypto.table_hit_ratio", "ratio", "higher", "call_p50_ms,req_per_s", "feed_cold,write_churn"),
    m("crypto.table_evicts_per_kreq", "count/kreq", "lower", "call_p50_ms,req_per_s", "feed_cold,write_churn"),
    m("bigint.pows_per_req", "count/req", "lower", "cpu_ms_per_req", "all"),
    m("net.register_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("net.post_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("net.read_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("trace.primary_self_us", "us/req", "lower", "req_per_s", "all"),
    m("trace.overhead_frac", "ratio", "lower", "none", "all"),
    m("ladder.pow_g_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("ladder.pow_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("ladder.sign_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("ladder.verify_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("ladder.batch_verify_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("ladder.aead_seal_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("ladder.aead_open_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("ladder.envelope_seal_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("ladder.envelope_verify_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
    m("ladder.store_put_us", "us/call", "lower", "req_per_s", "write_churn"),
    m("ladder.store_get_us", "us/call", "lower", "call_p50_ms", "feed_cold"),
];

/// The engine's counters at one instant.
pub struct Probe {
    reg: Snapshot,
    messages: u64,
    bytes: u64,
    /// The hot-envelope cache counts into the overlay `Metrics` bundle; the
    /// registry's `cache.*` counters mirror the feed cache.
    hot_hits: u64,
    hot_misses: u64,
    hot_evictions: u64,
    repairs: u64,
    feed: FeedCacheStats,
}

pub fn probe(e: &Engine<ChordPlane>) -> Probe {
    let reg = e.publish_obs();
    let m = e.metrics();
    Probe {
        reg,
        messages: m.messages,
        bytes: m.bytes,
        hot_hits: m.count(names::CACHE_HITS),
        hot_misses: m.count(names::CACHE_MISSES),
        hot_evictions: m.count(names::CACHE_EVICTIONS),
        repairs: m.count(names::GET_REPAIRS),
        feed: e.feed_cache().map(|c| c.stats()).unwrap_or_default(),
    }
}

impl Probe {
    /// (Σ friends, `read_feed` calls) of the feed fan-in histogram.
    pub fn fanin(&self) -> (u64, u64) {
        self.reg
            .histograms
            .get(names::FEED_FANIN)
            .map_or((0, 0), |h| (h.sum(), h.count()))
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Delta<'a>(&'a Probe, &'a Probe);

impl Delta<'_> {
    /// (Σ µs, sample count) added to histogram `name`.
    fn hist(&self, name: &str) -> (f64, f64) {
        let get = |p: &Probe| {
            p.reg
                .histograms
                .get(name)
                .map_or((0, 0), |h| (h.sum(), h.count()))
        };
        let (s0, c0) = get(self.0);
        let (s1, c1) = get(self.1);
        ((s1 - s0) as f64, (c1 - c0) as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        let get = |p: &Probe| p.reg.counters.get(name).copied().unwrap_or(0);
        (get(self.1) - get(self.0)) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        let get = |p: &Probe| p.reg.gauges.get(name).copied().unwrap_or(0.0);
        get(self.1) - get(self.0)
    }

    fn field(&self, f: impl Fn(&Probe) -> u64) -> f64 {
        (f(self.1) - f(self.0)) as f64
    }
}

/// What the traced run hands over for the per-layer metrics.
pub struct Traced<'a> {
    pub before: &'a Probe,
    pub after: &'a Probe,
    pub phase: &'a PhaseOut,
    pub spans: &'a [Span],
    pub untraced_req_per_s: f64,
    pub traced_req_per_s: f64,
    /// The replay of the traced phase at `available_parallelism` workers,
    /// and the engine's counters around it.
    pub parallel_before: &'a Probe,
    pub parallel_after: &'a Probe,
    pub parallel: &'a PhaseOut,
    pub ladder: &'a [(&'static str, f64)],
}

/// Computes every metric of [`PER_LAYER`], in its order.
pub fn per_layer(t: &Traced<'_>) -> Vec<(&'static str, f64)> {
    let d = Delta(t.before, t.after);
    let req = t.phase.attempted.max(1) as f64;
    let kreq = req / 1000.0;
    let span_us = |pred: &dyn Fn(&Span) -> bool| -> (f64, f64) {
        let mut sum = 0u64;
        let mut n = 0u64;
        for s in t.spans.iter().filter(|s| pred(s)) {
            sum += s.dur();
            n += 1;
        }
        (sum as f64 / 1000.0, n as f64)
    };
    let (call_us, _) = span_us(&|s| matches!(s.name, "read_feed" | "execute_all" | "unfriend"));
    let (unfriend_us, unfriends) = span_us(&|s| s.name == "unfriend");
    let selfs = self_times(t.spans);
    let primary_self_ns: u64 = t
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, &st)| st)
        .sum();
    let (plan, _) = d.hist(names::ENGINE_PLAN);
    let (prepare, _) = d.hist(names::ENGINE_PREPARE);
    let (commit, _) = d.hist(names::ENGINE_COMMIT);
    let (finish, _) = d.hist(names::ENGINE_FINISH);
    let (put_us, puts) = d.hist(names::STORE_PUT);
    let (get_us, gets) = d.hist(names::STORE_GET_QUORUM);
    let (verify_us, verifies) = d.hist(names::CRYPTO_SCHNORR_VERIFY);
    let (reads_us, reads) = d.hist(names::NET_READ_POST_QUORUM);
    let (reg_us, regs) = d.hist(names::NET_REGISTER);
    let (post_us, posts) = d.hist(names::NET_POST);
    let feed_hits = d.field(|p| p.feed.hits);
    let feed_misses = d.field(|p| p.feed.misses);
    let hot_hits = d.field(|p| p.hot_hits);
    let hot_misses = d.field(|p| p.hot_misses);
    let table_hits = d.counter(names::CRYPTO_GROUP_TABLE_HIT);
    let table_misses = d.counter(names::CRYPTO_GROUP_TABLE_MISS);
    let pows = d.gauge(names::BIGINT_POW_BARRETT)
        + d.gauge(names::BIGINT_POW_DIVISION)
        + d.gauge(names::BIGINT_POW_MONTGOMERY);
    let wall = t.phase.wall.as_secs_f64();
    let pd = Delta(t.parallel_before, t.parallel_after);
    let (par_prepare, _) = pd.hist(names::ENGINE_PREPARE);
    let (par_finish, _) = pd.hist(names::ENGINE_FINISH);
    let (par_reads_us, _) = pd.hist(names::NET_READ_POST_QUORUM);

    let mut out = vec![
        ("engine.call_us", call_us / req),
        ("engine.plan_us", plan / req),
        ("engine.prepare_us", prepare / req),
        ("engine.commit_us", commit / req),
        ("engine.finish_us", finish / req),
        (
            "engine.unattributed_frac",
            1.0 - ratio(plan + prepare + commit + finish, call_us),
        ),
        // Busy worker time: the prepare µs every BatchReport carries, plus
        // the per-read finish µs, which the engine records both in
        // BatchReport.timings and in net.read_post.quorum (the only source
        // for reads made inside read_feed).
        (
            "engine.parallel_busy_ratio",
            ratio(
                t.parallel.prepare_busy_us as f64 + par_reads_us,
                par_prepare + par_finish,
            ),
        ),
        (
            "engine.pipeline_overlap_ratio",
            ratio(
                pd.counter(names::ENGINE_PIPELINE_OVERLAP),
                t.parallel.seams as f64,
            ),
        ),
        (
            "engine.parallel_speedup",
            ratio(wall, t.parallel.wall.as_secs_f64()),
        ),
        ("engine.unfriend_us", ratio(unfriend_us, unfriends)),
        ("feed.hit_ratio", ratio(feed_hits, feed_hits + feed_misses)),
        (
            "feed.invalidations_per_kreq",
            d.field(|p| p.feed.invalidations) / kreq,
        ),
        (
            "feed.evictions_per_kreq",
            d.field(|p| p.feed.evictions) / kreq,
        ),
        ("cache.hit_ratio", ratio(hot_hits, hot_hits + hot_misses)),
        (
            "cache.evictions_per_kreq",
            d.field(|p| p.hot_evictions) / kreq,
        ),
        ("store.put_us", put_us / req),
        ("store.puts_per_req", puts / req),
        ("store.get_us", get_us / req),
        ("store.gets_per_req", gets / req),
        ("store.repairs", d.field(|p| p.repairs)),
        ("overlay.msgs_per_req", d.field(|p| p.messages) / req),
        ("overlay.bytes_per_req", d.field(|p| p.bytes) / req),
        ("crypto.verify_us", verify_us / req),
        ("crypto.verifies_per_req", verifies / req),
        (
            "crypto.table_hit_ratio",
            ratio(table_hits, table_hits + table_misses),
        ),
        (
            "crypto.table_evicts_per_kreq",
            d.counter(names::CRYPTO_GROUP_TABLE_EVICT) / kreq,
        ),
        ("bigint.pows_per_req", pows / req),
        ("net.register_us", ratio(reg_us, regs)),
        ("net.post_us", ratio(post_us, posts)),
        ("net.read_us", ratio(reads_us, reads)),
        (
            "trace.primary_self_us",
            primary_self_ns as f64 / 1000.0 / req,
        ),
        (
            "trace.overhead_frac",
            1.0 - ratio(t.traced_req_per_s, t.untraced_req_per_s),
        ),
    ];
    out.extend_from_slice(t.ladder);
    out
}

/// Mean µs per call of `f`, over at least 16 calls and 150 ms.
fn per_call_us(mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut n = 0;
    while n < 16 || started.elapsed() < Duration::from_millis(150) {
        f(n);
        n += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Times each lower layer through its public functions on inputs taken from
/// the workload: its post bodies and its mean feed fan-in. Every result is
/// checked, as the engine would check it.
pub fn ladder(seed: u64, bodies: &[String], fan_in: usize) -> Vec<(&'static str, f64)> {
    assert!(!bodies.is_empty(), "ladder needs post bodies");
    let mut rng = SecureRng::seed_from_u64(seed);
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let exps: Vec<_> = (0..64).map(|_| group.random_scalar(&mut rng)).collect();
    // A fresh element: no fixed-base table is ever built for it.
    let base = group.pow_g(&group.random_scalar(&mut rng));
    let digests: Vec<[u8; 32]> = bodies.iter().map(|b| sha256(b.as_bytes())).collect();
    let sk = SigningKey::generate(group.clone(), &mut rng);
    let sigs: Vec<_> = digests.iter().map(|d| sk.sign(d, &mut rng)).collect();
    let signers: Vec<SigningKey> = (0..fan_in.max(1))
        .map(|_| SigningKey::generate(group.clone(), &mut rng))
        .collect();
    let signed: Vec<_> = signers
        .iter()
        .zip(digests.iter().cycle())
        .map(|(k, d)| (k, *d, k.sign(d, &mut rng)))
        .collect();
    let aead = SymmetricKey::generate(&mut rng);
    let sealed: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| aead.seal(b.as_bytes(), b"ladder", &mut rng))
        .collect();
    let directory = KeyDirectory::new();
    let author = Identity::create("ladder", group.clone(), &directory, &mut rng);
    let envelopes: Vec<SignedEnvelope> = sealed
        .iter()
        .enumerate()
        .map(|(i, c)| SignedEnvelope::seal(&author, None, i as u64, 0, None, c, &mut rng))
        .collect();
    let wires: Vec<Vec<u8>> = envelopes.iter().map(|e| e.encode_wire(0, &group)).collect();
    let mut store = ReplicatedStore::new(ChordPlane::build(CHORD_NODES, seed), REPLICAS);
    let mut metrics = Metrics::new();
    let key = |i: usize| Key::hash(format!("ladder/{i}").as_bytes());
    let n = bodies.len();

    let mut out = Vec::new();
    out.push((
        "ladder.pow_g_us",
        per_call_us(|i| {
            black_box(group.pow_g(&exps[i % exps.len()]));
        }),
    ));
    out.push((
        "ladder.pow_us",
        per_call_us(|i| {
            black_box(group.pow(&base, &exps[i % exps.len()]));
        }),
    ));
    out.push((
        "ladder.sign_us",
        per_call_us(|i| {
            black_box(sk.sign(&digests[i % n], &mut rng));
        }),
    ));
    out.push((
        "ladder.verify_us",
        per_call_us(|i| {
            sk.verifying_key()
                .verify(&digests[i % n], &sigs[i % n])
                .expect("ladder signature verifies");
        }),
    ));
    out.push((
        "ladder.batch_verify_us",
        per_call_us(|_| {
            let items: Vec<_> = signed
                .iter()
                .map(|(k, d, s)| (k.verifying_key(), &d[..], s))
                .collect();
            batch_verify(&items).expect("ladder batch verifies");
        }),
    ));
    out.push((
        "ladder.aead_seal_us",
        per_call_us(|i| {
            black_box(aead.seal(bodies[i % n].as_bytes(), b"ladder", &mut rng));
        }),
    ));
    out.push((
        "ladder.aead_open_us",
        per_call_us(|i| {
            let plain = aead.open(&sealed[i % n], b"ladder").expect("ladder opens");
            assert_eq!(plain, bodies[i % n].as_bytes());
        }),
    ));
    out.push((
        "ladder.envelope_seal_us",
        per_call_us(|i| {
            black_box(SignedEnvelope::seal(
                &author,
                None,
                i as u64,
                0,
                None,
                &sealed[i % n],
                &mut rng,
            ));
        }),
    ));
    out.push((
        "ladder.envelope_verify_us",
        per_call_us(|i| {
            envelopes[i % n]
                .verify(&directory, None, u64::MAX - 1)
                .expect("ladder envelope verifies");
        }),
    ));
    let mut stored = 0;
    out.push((
        "ladder.store_put_us",
        per_call_us(|i| {
            store
                .put(key(i), wires[i % n].clone(), &mut metrics)
                .expect("ladder put places replicas");
            stored = i + 1;
        }),
    ));
    out.push((
        "ladder.store_get_us",
        per_call_us(|i| {
            let got = store
                .get(key(i % stored), &mut metrics)
                .expect("ladder get finds a quorum");
            assert_eq!(got, wires[(i % stored) % n]);
        }),
    ));
    out
}
