//! The universe, the three workloads and the closed-loop measured phase.
//!
//! One generator thread drives the public `Engine` API: it generates every
//! op from the seed, applies it to the oracle model, makes the blocking
//! engine call and checks the output against the model.

use crate::gen::{self, PrefAttach, Rng, Zipf};
use crate::model::{check_read_body, Mismatch, Model, ReadExpect};
use crate::speed::{Gauge, SAMPLE_EVERY};
use crate::trace::Tracer;
use dosn_core::engine::{BatchReport, Engine, Op, OpBatch, OpOutput};
use dosn_core::error::DosnError;
use dosn_core::feed::FeedItem;
use dosn_core::network::{ChordPlane, ReplicatedStore};
use dosn_crypto::sha256::Sha256;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Users in the generated universe.
pub const USERS: usize = 2000;
/// Preferential-attachment links per user: mean degree about 8, hubs past 100.
pub const LINKS: usize = 4;
/// Posts on every wall when the universe is built.
pub const WALL: usize = 3;
/// Feed depth: `read_feed` returns the latest `FEED_K` posts of each friend.
pub const FEED_K: usize = 3;
/// Capacity, in posts, of both the feed cache and the hot-envelope cache.
/// It holds feed_hot's working set but a small share of feed_cold's: about
/// 2% of the (reader, post) pairs and a sixth of the envelopes uniform
/// readers touch.
pub const CACHE_POSTS: usize = 1024;
/// Chord ring size of the storage plane.
pub const CHORD_NODES: usize = 256;
/// Replication factor (majority read quorum).
pub const REPLICAS: usize = 3;
/// `read_feed` calls that warm the caches during set-up (feed workloads).
pub const WARM_CALLS: usize = 64;
/// Zipf exponent of feed_hot's readers: the smallest of a sweep at which
/// the feed cache serves three quarters of the items (README, "Why these
/// shapes").
pub const READER_ZIPF_S: f64 = 1.5;
/// Zipf exponent of write_churn's authors: skewed enough that hot authors
/// keep the pipeline overlap off its ceiling of 1 (same sweep).
pub const AUTHOR_ZIPF_S: f64 = 1.2;
/// feed_hot: posts per feed call.
pub const HOT_POST_RATE: f64 = 0.1;
/// write_churn: `execute_all` batches per window. A 12-op window is short
/// enough that a run puts more than 20 windows beyond the p99; in a sweep
/// up to 256-op windows, batch size did not move throughput (same sweep).
pub const WINDOW_BATCHES: usize = 3;
/// write_churn: ops per batch.
pub const BATCH_OPS: usize = 4;
/// write_churn: friendships a newcomer makes.
pub const NEW_LINKS: usize = 3;
/// write_churn: share of requests that are `unfriend` calls.
pub const UNFRIEND_SHARE: f64 = 0.01;
/// write_churn: share of reads in which a revoked friend reads a post
/// sealed after the revocation (expected `NotAuthorized`).
pub const REVOKED_READ_SHARE: f64 = 0.05;
/// write_churn: recent posts eligible for reads and comments.
const RECENT_POSTS: usize = 512;
const BODY_MIN: usize = 60;
const BODY_MAX: usize = 240;

// Independent random streams, one per concern.
const S_GRAPH: u64 = 1;
const S_PERM: u64 = 2;
const S_READERS: u64 = 3;
const S_WARM: u64 = 4;
const S_MIX: u64 = 5;
const S_BODIES: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FeedHot,
    FeedCold,
    WriteChurn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "feed_hot" => Some(Workload::FeedHot),
            "feed_cold" => Some(Workload::FeedCold),
            "write_churn" => Some(Workload::WriteChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FeedHot => "feed_hot",
            Workload::FeedCold => "feed_cold",
            Workload::WriteChurn => "write_churn",
        }
    }
}

/// The engine under test plus everything the generator knows about it.
pub struct Universe {
    pub engine: Engine<ChordPlane>,
    pub model: Model,
    names: Vec<String>,
    pa: PrefAttach,
    /// Current friendships, for uniform `unfriend` picks.
    edges: Vec<(u32, u32)>,
}

/// Zipf over ranks mapped to users: feed_hot's readers (and, through
/// their friends, its authors) and write_churn's authors.
struct Sampler {
    /// Rank → user. feed_hot ranks users in degree-stratified order, so the
    /// hottest feeds have the same sizes whatever the seed; write_churn
    /// ranks them in random order.
    perm: Vec<u32>,
    zipf: Zipf,
}

impl Sampler {
    fn draw(&self, rng: &mut Rng) -> u32 {
        self.perm[self.zipf.sample(rng)]
    }
}

/// A reader stream. feed_cold draws uniformly without replacement: every
/// user once per `USERS` calls, in degree-stratified order with ties broken
/// afresh each sweep. Every prefix of a sweep then holds its share of each
/// degree band, so a run's tail percentiles do not hinge on how many hubs
/// it happened to draw.
struct Readers {
    rng: Rng,
    order: Vec<u32>,
    next: usize,
}

impl Readers {
    fn new(rng: Rng) -> Self {
        Readers {
            rng,
            order: Vec::new(),
            next: 0,
        }
    }

    fn sweep(&mut self, degrees: &[usize]) -> u32 {
        if self.next == self.order.len() {
            self.order = gen::stratified_order(degrees, &mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// The seeded request generator of one workload.
pub struct Gen {
    workload: Workload,
    /// Degree of each generated user in the set-up graph.
    degrees: Vec<usize>,
    sampler: Sampler,
    readers: Readers,
    warm: Readers,
    mix: Rng,
    bodies: Rng,
    tag: u64,
    /// write_churn: posts committed before the current window.
    recent: VecDeque<(u32, u64)>,
    unfriend_credit: f64,
}

impl Gen {
    fn new(workload: Workload, seed: u64, edges: &[(u32, u32)]) -> Self {
        let mut degrees = vec![0; USERS];
        for &(a, b) in edges {
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        let mut rng = Rng::new(seed, S_PERM);
        let perm = if workload == Workload::FeedHot {
            gen::stratified_order(&degrees, &mut rng)
        } else {
            gen::permutation(USERS, &mut rng)
        };
        let s = if workload == Workload::WriteChurn {
            AUTHOR_ZIPF_S
        } else {
            READER_ZIPF_S
        };
        Gen {
            workload,
            degrees,
            sampler: Sampler {
                perm,
                zipf: Zipf::new(USERS, s),
            },
            readers: Readers::new(Rng::new(seed, S_READERS)),
            warm: Readers::new(Rng::new(seed, S_WARM)),
            mix: Rng::new(seed, S_MIX),
            bodies: Rng::new(seed, S_BODIES),
            tag: 0,
            recent: VecDeque::with_capacity(RECENT_POSTS),
            unfriend_credit: 0.0,
        }
    }

    /// The next reader of the measured stream, or of the warm-up stream.
    fn reader(&mut self, warm: bool) -> u32 {
        let stream = if warm {
            &mut self.warm
        } else {
            &mut self.readers
        };
        match self.workload {
            Workload::FeedCold => stream.sweep(&self.degrees),
            _ => self.sampler.draw(&mut stream.rng),
        }
    }

    fn body(&mut self) -> String {
        self.tag += 1;
        gen::body(&mut self.bodies, self.tag, BODY_MIN, BODY_MAX)
    }

    fn remember(&mut self, author: u32, seq: u64) {
        if self.recent.len() == RECENT_POSTS {
            self.recent.pop_front();
        }
        self.recent.push_back((author, seq));
    }
}

/// Kernel runs that gauge the host's speed at each step of a set-up.
const SETUP_SAMPLES: usize = 4;

/// Builds the universe for `workload`: register, befriend, fill the walls
/// and (feed workloads) warm the caches. Every set-up output is checked.
/// `gauge` samples the host's speed at the start, between the steps and at
/// the end.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    gauge: &mut Gauge,
) -> Result<(Universe, Gen), Mismatch> {
    gauge.burst(SETUP_SAMPLES);
    let mut engine = Engine::new(
        ReplicatedStore::new(ChordPlane::build(CHORD_NODES, seed), REPLICAS),
        seed,
    );
    engine.set_workers(workers);
    engine.enable_feed_cache(CACHE_POSTS);
    engine.enable_hot_cache(CACHE_POSTS);
    let (edges, pa) = gen::pref_attach_graph(USERS, LINKS, &mut Rng::new(seed, S_GRAPH));
    let mut u = Universe {
        engine,
        model: Model::default(),
        names: Vec::with_capacity(USERS * 2),
        pa,
        edges,
    };
    let mut g = Gen::new(workload, seed, &u.edges);

    let mut batch = OpBatch::new();
    for _ in 0..USERS {
        let i = u.model.register();
        u.names.push(gen::name(i));
        batch = batch.register(&u.names[i as usize]);
    }
    expect_all(u.engine.execute(batch), "register", |r| {
        matches!(r, OpOutput::Registered)
    })?;
    gauge.burst(SETUP_SAMPLES);

    let mut batch = OpBatch::new();
    for &(a, b) in &u.edges {
        u.model.befriend(a, b);
        batch = batch.befriend(&u.names[a as usize], &u.names[b as usize], 0.9);
    }
    expect_all(u.engine.execute(batch), "befriend", |r| {
        matches!(r, OpOutput::Befriended)
    })?;
    gauge.burst(SETUP_SAMPLES);

    for _ in 0..WALL {
        let mut batch = OpBatch::new();
        let mut seqs = Vec::with_capacity(USERS);
        for a in 0..USERS as u32 {
            let body = g.body();
            batch = batch.post(&u.names[a as usize], &body);
            let seq = u.model.post(a, body);
            seqs.push(seq);
            g.remember(a, seq);
        }
        let report = u.engine.execute(batch);
        for (r, seq) in report.results.iter().zip(seqs) {
            if !matches!(r, Ok(OpOutput::Posted { seq: s }) if *s == seq) {
                return Err(Mismatch(format!(
                    "set-up post: {r:?}, model expects seq {seq}"
                )));
            }
        }
        gauge.burst(SETUP_SAMPLES);
    }

    if workload != Workload::WriteChurn {
        for _ in 0..WARM_CALLS {
            let reader = g.reader(true);
            let items = u
                .engine
                .read_feed(&u.names[reader as usize], FEED_K)
                .map_err(|e| Mismatch(format!("warm-up read_feed: {e}")))?;
            check_feed(&u, reader, &items)?;
        }
    }
    gauge.burst(SETUP_SAMPLES);
    Ok((u, g))
}

fn expect_all(
    report: BatchReport,
    what: &str,
    ok: impl Fn(&OpOutput) -> bool,
) -> Result<(), Mismatch> {
    match report.results.iter().find(|r| !r.as_ref().is_ok_and(&ok)) {
        None => Ok(()),
        Some(bad) => Err(Mismatch(format!("set-up {what}: {bad:?}"))),
    }
}

fn check_feed(u: &Universe, reader: u32, got: &[FeedItem]) -> Result<(), Mismatch> {
    let expected = u.model.expect_feed(reader, FEED_K);
    if expected.len() != got.len() {
        return Err(Mismatch(format!(
            "read_feed({}): {} items, model expects {}",
            u.names[reader as usize],
            got.len(),
            expected.len()
        )));
    }
    for ((author, seq, body), item) in expected.iter().zip(got) {
        if item.author.as_str() != u.names[*author as usize] || item.seq != *seq {
            return Err(Mismatch(format!(
                "read_feed({}): item {}/{}, model expects {}/{seq}",
                u.names[reader as usize],
                item.author.as_str(),
                item.seq,
                u.names[*author as usize]
            )));
        }
        check_read_body("read_feed item", body, &item.body)?;
    }
    Ok(())
}

/// What the model predicts for one op of a write_churn batch.
#[derive(Debug)]
enum Expect {
    Registered,
    Befriended,
    Posted(u64),
    Commented,
    /// `None`: the reader was revoked before the post was sealed.
    Read(Option<String>),
}

/// How a phase ends: at a wall-clock deadline, or after a fixed number of
/// primary calls (the parallel replay of a traced phase).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Deadline(Duration),
    Calls(usize),
}

/// Everything one measured phase observed.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Latency of every primary call, ns.
    pub calls: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    /// Digest over every output, in order: identical for any worker count.
    pub digest: [u8; 32],
    /// Σ `BatchReport.timings` prepare µs over `execute_all` calls.
    pub prepare_busy_us: u64,
    /// Batch seams submitted to `execute_all` (batches − 1 per call).
    pub seams: u64,
    /// The phase cut into stretches of about `BLOCK`, each with its own
    /// host slowdown; every primary call lies in one.
    pub blocks: Vec<Block>,
    pub mismatch: Option<Mismatch>,
}

/// Length of one `Block`: short against the host's slow spells, long
/// enough for the kernel samples to settle.
pub const BLOCK: Duration = Duration::from_secs(1);

/// One stretch of a measured phase. `wall` and `cpu` leave out the time
/// the kernel samples took.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub wall: Duration,
    pub cpu: Duration,
    /// Requests that did what the model predicted.
    pub ok: u64,
    /// Primary calls, in `PhaseOut::calls` order.
    pub calls: usize,
    /// Median kernel time over `speed::REFERENCE`.
    pub slowdown: f64,
}

impl PhaseOut {
    /// Seconds the phase would have taken at the reference host speed.
    pub fn ref_seconds(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.wall.as_secs_f64() / b.slowdown)
            .sum()
    }

    /// Requests that did what the model predicted, per reference second.
    pub fn ref_req_per_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.ok).sum::<u64>() as f64 / self.ref_seconds()
    }

    /// Process CPU seconds at the reference host speed.
    pub fn ref_cpu_seconds(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.cpu.as_secs_f64() / b.slowdown)
            .sum()
    }

    /// Every primary call's latency at the reference host speed, ns.
    pub fn ref_calls(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.calls.len());
        let mut rest = &self.calls[..];
        for b in &self.blocks {
            let (these, after) = rest.split_at(b.calls);
            out.extend(these.iter().map(|&c| (c as f64 / b.slowdown) as u64));
            rest = after;
        }
        out
    }
}

/// The process's user + system CPU time, from `/proc/self/stat` (in
/// USER_HZ = 100 ticks, which covers threads that have already exited).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// Where the open block of a measured phase began.
struct Mark {
    at: Instant,
    cpu: Duration,
    ok: u64,
    calls: usize,
}

struct Runner<'a> {
    u: &'a mut Universe,
    g: &'a mut Gen,
    t: &'a mut Tracer,
    out: PhaseOut,
    digest: Sha256,
}

/// Runs the closed loop: one primary call at a time until `stop`.
pub fn run_phase(u: &mut Universe, g: &mut Gen, t: &mut Tracer, stop: Stop) -> PhaseOut {
    let mut r = Runner {
        u,
        g,
        t,
        out: PhaseOut::default(),
        digest: Sha256::new(),
    };
    let started = Instant::now();
    let mut gauge = Gauge::default();
    let mut sampled = started;
    let mut mark = Mark {
        at: started,
        cpu: cpu_time(),
        ok: 0,
        calls: 0,
    };
    let mut call = 0u64;
    loop {
        let now = Instant::now();
        let done = match stop {
            Stop::Deadline(d) => now - started >= d,
            Stop::Calls(n) => call as usize >= n,
        };
        if !done && now - sampled >= SAMPLE_EVERY {
            gauge.sample();
            sampled = Instant::now();
        }
        if done || now - mark.at >= BLOCK {
            mark = r.close_block(mark, &mut gauge);
        }
        if done {
            break;
        }
        let step = match r.g.workload {
            Workload::WriteChurn => r.churn_window(call),
            _ => r.feed_call(call),
        };
        if let Err(m) = step {
            r.out.mismatch = Some(m);
            break;
        }
        call += 1;
    }
    r.out.wall = started.elapsed();
    r.out.digest = r.digest.finalize();
    r.out
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Runner<'_> {
    /// Ends the block opened at `mark` (if it holds a call) and opens the
    /// next.
    fn close_block(&mut self, mark: Mark, gauge: &mut Gauge) -> Mark {
        let (slowdown, spent) = gauge.take();
        let next = Mark {
            at: Instant::now(),
            cpu: cpu_time(),
            ok: self.out.attempted - self.out.failed,
            calls: self.out.calls.len(),
        };
        if next.calls > mark.calls {
            self.out.blocks.push(Block {
                wall: (next.at - mark.at).saturating_sub(spent),
                cpu: (next.cpu - mark.cpu).saturating_sub(spent),
                ok: next.ok - mark.ok,
                calls: next.calls - mark.calls,
                slowdown,
            });
        }
        next
    }

    /// Counts one request's outcome: `Ok(true)` as expected, `Ok(false)` an
    /// unexpected error, `Err` a wrong output.
    fn tally(&mut self, outcome: Result<bool, Mismatch>) -> Result<(), Mismatch> {
        self.out.attempted += 1;
        if !outcome? {
            self.out.failed += 1;
        }
        Ok(())
    }

    fn execute_all(
        &mut self,
        batches: Vec<OpBatch>,
        parent: Option<usize>,
        call: u64,
    ) -> Vec<BatchReport> {
        self.out.seams += batches.len().saturating_sub(1) as u64;
        let span = self.t.open("execute_all", parent, call);
        let reports = self.u.engine.execute_all(batches);
        self.t.close(span);
        for report in &reports {
            self.digest.update(&report.digest);
            self.out.prepare_busy_us +=
                report.timings.iter().map(|t| t.prepare_micros).sum::<u64>();
        }
        reports
    }

    /// feed_hot / feed_cold: an optional post (feed_hot), then one
    /// `read_feed` primary call.
    fn feed_call(&mut self, call: u64) -> Result<(), Mismatch> {
        if self.g.workload == Workload::FeedHot && self.g.mix.chance(HOT_POST_RATE) {
            // The author is a friend of a zipf-drawn reader, so the post
            // lands in a hot feed and invalidates cached slices.
            let reader = self.g.sampler.draw(&mut self.g.mix);
            let friends = self.u.model.friends(reader);
            let author = *friends
                .iter()
                .nth(self.g.mix.below(friends.len()))
                .expect("every generated user has friends");
            let body = self.g.body();
            let batch = OpBatch::new().post(&self.u.names[author as usize], &body);
            let seq = self.u.model.post(author, body);
            let span = self.t.open("post", None, call);
            let reports = self.execute_all(vec![batch], span, call);
            self.t.close(span);
            let got = &reports[0].results[0];
            self.tally(check_op(&Expect::Posted(seq), got))?;
        }
        let reader = self.g.reader(false);
        let span = self.t.open("feed", None, call);
        let inner = self.t.open("read_feed", span, call);
        let started = Instant::now();
        let got = self
            .u
            .engine
            .read_feed(&self.u.names[reader as usize], FEED_K);
        let latency = started.elapsed();
        self.t.close(inner);
        self.t.close(span);
        self.out.calls.push(nanos(latency));
        match got {
            Ok(items) => {
                check_feed(self.u, reader, &items)?;
                for item in &items {
                    self.digest.update(item.author.as_str().as_bytes());
                    self.digest.update(&item.seq.to_be_bytes());
                    self.digest.update(item.body.as_bytes());
                }
                self.tally(Ok(true))
            }
            Err(_) => self.tally(Ok(false)),
        }
    }

    /// write_churn: one window — its `unfriend` calls, then one
    /// `execute_all` over `WINDOW_BATCHES` generated batches.
    fn churn_window(&mut self, call: u64) -> Result<(), Mismatch> {
        // Unfriends first, so the batches are generated against the
        // post-revocation model.
        let ops_per_window = (WINDOW_BATCHES * BATCH_OPS) as f64;
        self.g.unfriend_credit += ops_per_window * UNFRIEND_SHARE / (1.0 - UNFRIEND_SHARE);
        let mut unfriends = Vec::new();
        while self.g.unfriend_credit >= 1.0 {
            self.g.unfriend_credit -= 1.0;
            let i = self.g.mix.below(self.u.edges.len());
            let (a, b) = self.u.edges.swap_remove(i);
            unfriends.push((a, b, self.u.model.unfriend(a, b)));
        }
        let mut batches = Vec::with_capacity(WINDOW_BATCHES);
        let mut expects = Vec::with_capacity(WINDOW_BATCHES);
        let mut fresh = Vec::new();
        for _ in 0..WINDOW_BATCHES {
            let (batch, expect) = self.churn_batch(&mut fresh);
            batches.push(batch);
            expects.push(expect);
        }

        let started = Instant::now();
        let span = self.t.open("window", None, call);
        let mut unfriend_results = Vec::with_capacity(unfriends.len());
        for &(a, b, _) in &unfriends {
            let inner = self.t.open("unfriend", span, call);
            let got = self
                .u
                .engine
                .unfriend(&self.u.names[a as usize], &self.u.names[b as usize]);
            self.t.close(inner);
            unfriend_results.push(got);
        }
        let reports = self.execute_all(batches, span, call);
        self.t.close(span);
        self.out.calls.push(nanos(started.elapsed()));

        for (&(a, b, rekeyed), got) in unfriends.iter().zip(unfriend_results) {
            let outcome = match got {
                Ok(n) if n == rekeyed => Ok(true),
                Ok(n) => Err(Mismatch(format!(
                    "unfriend({}, {}) re-keyed {n}, model expects {rekeyed}",
                    self.u.names[a as usize], self.u.names[b as usize]
                ))),
                Err(_) => Ok(false),
            };
            self.tally(outcome)?;
        }
        for (report, expect) in reports.iter().zip(&expects) {
            if report.results.len() != expect.len() {
                return Err(Mismatch("execute_all returned a short report".into()));
            }
            for (got, want) in report.results.iter().zip(expect) {
                let outcome = check_op(want, got);
                self.tally(outcome)?;
            }
        }
        for (author, seq) in fresh {
            self.g.remember(author, seq);
        }
        Ok(())
    }

    /// One write_churn batch: about 40% posts, 25% reads of recent posts by
    /// friends, 15% comments and 20% newcomer ops (a register plus
    /// `NEW_LINKS` preferential befriends). Batches are not shaped to be
    /// user-disjoint.
    fn churn_batch(&mut self, fresh: &mut Vec<(u32, u64)>) -> (OpBatch, Vec<Expect>) {
        // A newcomer draw yields 1 + L ops, so its draw probability x solves
        // (1 + L) x = 0.2 (1 + L x) for a 20% share of ops.
        let l = NEW_LINKS as f64;
        let p_new = 0.2 / (1.0 + 0.8 * l);
        let rest = 1.0 - p_new;
        let (p_post, p_read) = (rest * 0.40 / 0.80, rest * 0.25 / 0.80);
        let mut ops = Vec::with_capacity(BATCH_OPS + NEW_LINKS);
        let mut expect = Vec::with_capacity(BATCH_OPS + NEW_LINKS);
        while ops.len() < BATCH_OPS {
            let x = self.g.mix.unit();
            if x < p_new {
                self.newcomer(&mut ops, &mut expect);
            } else if x < p_new + p_post {
                let author = self.g.sampler.draw(&mut self.g.mix);
                self.post(author, &mut ops, &mut expect, fresh);
            } else if x < p_new + p_post + p_read {
                let revoked = self.u.model.revoked_pairs().len();
                let (reader, author, seq) = if revoked > 0 && self.g.mix.chance(REVOKED_READ_SHARE)
                {
                    // A revoked friend reads a post its ex-friend seals
                    // in this same batch, after the revocation.
                    let pick = self.g.mix.below(revoked);
                    let (owner, member) = self.u.model.revoked_pairs()[pick];
                    let seq = self.post(owner, &mut ops, &mut expect, fresh);
                    (member, owner, seq)
                } else {
                    self.pick_friend_post()
                };
                ops.push(Op::ReadPost {
                    reader: self.u.names[reader as usize].clone(),
                    author: self.u.names[author as usize].clone(),
                    seq,
                });
                expect.push(Expect::Read(
                    match self.u.model.expect_read(reader, author, seq) {
                        ReadExpect::Body(b) => Some(b.to_owned()),
                        ReadExpect::NotAuthorized => None,
                    },
                ));
            } else {
                let (commenter, author, seq) = self.pick_friend_post();
                ops.push(Op::Comment {
                    commenter: self.u.names[commenter as usize].clone(),
                    author: self.u.names[author as usize].clone(),
                    seq,
                    body: self.g.body(),
                });
                expect.push(Expect::Commented);
            }
        }
        (OpBatch::from_ops(ops), expect)
    }

    fn post(
        &mut self,
        author: u32,
        ops: &mut Vec<Op>,
        expect: &mut Vec<Expect>,
        fresh: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let body = self.g.body();
        ops.push(Op::Post {
            author: self.u.names[author as usize].clone(),
            body: body.clone(),
        });
        let seq = self.u.model.post(author, body);
        fresh.push((author, seq));
        expect.push(Expect::Posted(seq));
        seq
    }

    fn newcomer(&mut self, ops: &mut Vec<Op>, expect: &mut Vec<Expect>) {
        let me = self.u.model.register();
        self.u.names.push(gen::name(me));
        ops.push(Op::Register {
            name: self.u.names[me as usize].clone(),
        });
        expect.push(Expect::Registered);
        let mut linked = 0;
        while linked < NEW_LINKS {
            let t = self.u.pa.pick(&mut self.g.mix);
            if !self.u.model.can_link(me, t) {
                continue;
            }
            self.u.model.befriend(me, t);
            self.u.pa.add_edge(t, me);
            self.u.edges.push((t, me));
            ops.push(Op::Befriend {
                a: self.u.names[me as usize].clone(),
                b: self.u.names[t as usize].clone(),
                trust: 0.9,
            });
            expect.push(Expect::Befriended);
            linked += 1;
        }
    }

    /// A post committed before this window, and a current friend of its
    /// author.
    fn pick_friend_post(&mut self) -> (u32, u32, u64) {
        loop {
            let (author, seq) = self.g.recent[self.g.mix.below(self.g.recent.len())];
            let friends = self.u.model.friends(author);
            if friends.is_empty() {
                continue;
            }
            let friend = *friends
                .iter()
                .nth(self.g.mix.below(friends.len()))
                .expect("index below len");
            return (friend, author, seq);
        }
    }
}

/// Checks one batch op's result: `Ok(true)` as predicted, `Ok(false)` an
/// unexpected error, `Err` a wrong output. A denial the model does not
/// predict is a wrong output, as a dropped item is on the feed path.
fn check_op(want: &Expect, got: &Result<OpOutput, DosnError>) -> Result<bool, Mismatch> {
    let wrong = || {
        Err(Mismatch(format!(
            "op result {got:?}, model expects {want:?}"
        )))
    };
    match (want, got) {
        (Expect::Read(None), Err(DosnError::NotAuthorized(_))) => Ok(true),
        (Expect::Read(None), Ok(_)) | (_, Err(DosnError::NotAuthorized(_))) => wrong(),
        (_, Err(_)) => Ok(false),
        (Expect::Registered, Ok(OpOutput::Registered))
        | (Expect::Befriended, Ok(OpOutput::Befriended))
        | (Expect::Commented, Ok(OpOutput::Commented)) => Ok(true),
        (Expect::Posted(s), Ok(OpOutput::Posted { seq })) if s == seq => Ok(true),
        (Expect::Read(Some(b)), Ok(OpOutput::Read { body })) => {
            check_read_body("read_post", b, body).map(|()| true)
        }
        _ => wrong(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each block's calls, wall and CPU time are divided by that block's
    /// own slowdown.
    #[test]
    fn reference_figures_divide_each_block_by_its_slowdown() {
        let block = |secs: u64, ok: u64, calls: usize, slowdown: f64| Block {
            wall: Duration::from_secs(secs),
            cpu: Duration::from_secs(secs),
            ok,
            calls,
            slowdown,
        };
        let phase = PhaseOut {
            calls: vec![100, 200, 300, 400, 500],
            blocks: vec![block(2, 10, 2, 1.0), block(4, 10, 3, 2.0)],
            ..PhaseOut::default()
        };
        assert_eq!(phase.ref_calls(), vec![100, 200, 150, 200, 250]);
        assert!((phase.ref_seconds() - 4.0).abs() < 1e-9);
        assert!((phase.ref_cpu_seconds() - 4.0).abs() < 1e-9);
        assert!((phase.ref_req_per_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn an_unpredicted_denial_is_a_wrong_output() {
        let denied = Err(DosnError::NotAuthorized("read_post".into()));
        assert!(check_op(&Expect::Read(Some("a body".into())), &denied).is_err());
        assert!(check_op(&Expect::Commented, &denied).is_err());
        assert!(matches!(check_op(&Expect::Read(None), &denied), Ok(true)));
    }

    #[test]
    fn other_errors_count_as_failed_requests() {
        let lost = Err(DosnError::ContentUnavailable("quorum".into()));
        assert!(matches!(check_op(&Expect::Posted(3), &lost), Ok(false)));
        assert!(matches!(
            check_op(&Expect::Read(Some("a body".into())), &lost),
            Ok(false)
        ));
    }
}
