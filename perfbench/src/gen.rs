//! Seeded input generation: the benchmark's own random stream, zipf and
//! preferential-attachment samplers, and post bodies.
//!
//! These samplers are deliberately independent of the repository's graph
//! generators, so a change to the program under test can never change the
//! inputs the benchmark feeds it.

/// SplitMix64: a small, fast, seedable stream. Each workload concern
/// (graph, readers, authors, op mix, bodies) draws from its own stream so
/// that changing one concern's draw count leaves the others unchanged.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of the run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Users ordered so that every prefix of the order is a stratified sample
/// of the degree distribution: rank `r` takes the user at degree-sorted
/// position `bitrev(r)`, so the first ranks sit at the same degree
/// quantiles (lowest, median, quartiles, octiles, ...) for every seed. Ties
/// are broken at random.
pub fn stratified_order(degrees: &[usize], rng: &mut Rng) -> Vec<u32> {
    let n = degrees.len();
    let mut by_degree = permutation(n, rng);
    by_degree.sort_by_key(|&u| degrees[u as usize]);
    let slots = n.next_power_of_two();
    let shift = usize::BITS - slots.trailing_zeros();
    (0..slots)
        .map(|r| {
            if slots == 1 {
                0
            } else {
                r.reverse_bits() >> shift
            }
        })
        .filter(|&p| p < n)
        .map(|p| by_degree[p])
        .collect()
}

/// Preferential attachment: a target is drawn with probability proportional
/// to the number of edges it has taken part in. The endpoint list only
/// grows (an unfriended edge keeps its weight), which keeps a draw O(1).
#[derive(Debug, Clone, Default)]
pub struct PrefAttach {
    endpoints: Vec<u32>,
}

impl PrefAttach {
    pub fn add_edge(&mut self, a: u32, b: u32) {
        self.endpoints.push(a);
        self.endpoints.push(b);
    }

    pub fn pick(&self, rng: &mut Rng) -> u32 {
        self.endpoints[rng.below(self.endpoints.len())]
    }
}

/// A Barabási–Albert graph over `n` users: a clique of `m + 1` seeds, then
/// each newcomer links to `m` distinct earlier users picked preferentially.
/// Mean degree is close to `2m`; the oldest users become hubs.
pub fn pref_attach_graph(n: usize, m: usize, rng: &mut Rng) -> (Vec<(u32, u32)>, PrefAttach) {
    assert!(n > m, "graph needs more users than links per newcomer");
    let mut pa = PrefAttach::default();
    let mut edges = Vec::with_capacity(n * m);
    for a in 0..=m as u32 {
        for b in 0..a {
            edges.push((b, a));
            pa.add_edge(b, a);
        }
    }
    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for v in (m + 1) as u32..n as u32 {
        targets.clear();
        while targets.len() < m {
            let t = pa.pick(rng);
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t, v));
            pa.add_edge(t, v);
        }
    }
    (edges, pa)
}

const WORDS: &[&str] = &[
    "party", "friday", "home", "photos", "trip", "coffee", "meeting", "garden", "concert", "lunch",
    "weekend", "birthday", "movie", "walk", "news", "recipe", "city", "train", "beach", "book",
    "game", "music", "river", "snow", "market", "bike", "class", "work",
];

/// A post or comment body of `min..max` bytes of words, tagged with `tag`
/// so every body in a run is distinct.
pub fn body(rng: &mut Rng, tag: u64, min: usize, max: usize) -> String {
    let target = min + rng.below(max - min);
    let mut s = format!("#{tag}");
    while s.len() < target {
        s.push(' ');
        s.push_str(WORDS[rng.below(WORDS.len())]);
    }
    s
}

/// The engine-facing name of user `i`. Zero-padded, so name order equals
/// index order — the engine returns feed items in friend-name order.
pub fn name(i: u32) -> String {
    format!("u{i:06}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> (Vec<usize>, Vec<(u32, u32)>) {
        let mut r = Rng::new(seed, 1);
        let z = Zipf::new(500, 1.1);
        let zs = (0..200).map(|_| z.sample(&mut r)).collect();
        let (edges, _) = pref_attach_graph(300, 4, &mut Rng::new(seed, 2));
        (zs, edges)
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        assert_eq!(draws(7), draws(7));
    }

    #[test]
    fn samplers_differ_across_seeds() {
        let (za, ea) = draws(7);
        let (zb, eb) = draws(8);
        assert_ne!(za, zb);
        assert_ne!(ea, eb);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut r = Rng::new(3, 0);
        let z = Zipf::new(1000, 1.2);
        let low = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(low > 5_000, "top 10 of 1000 ranks drew {low} of 10000");
    }

    #[test]
    fn pref_attach_has_hubs_and_mean_degree_2m() {
        let n = 2000;
        let (edges, _) = pref_attach_graph(n, 4, &mut Rng::new(11, 0));
        let mut deg = vec![0usize; n];
        for &(a, b) in &edges {
            assert_ne!(a, b);
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mean = deg.iter().sum::<usize>() as f64 / n as f64;
        assert!((7.5..8.5).contains(&mean), "mean degree {mean}");
        assert!(*deg.iter().max().unwrap() > 60, "no hub");
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len(), "duplicate edge");
    }

    #[test]
    fn stratified_order_is_a_permutation_led_by_fixed_quantiles() {
        let degrees: Vec<usize> = (0..1000).map(|i| i % 50).collect();
        let order = stratified_order(&degrees, &mut Rng::new(5, 0));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        let lead: Vec<usize> = order[..3].iter().map(|&u| degrees[u as usize]).collect();
        assert_eq!(lead, vec![0, 25, 12], "lowest, median, lower quartile");
        let other = stratified_order(&degrees, &mut Rng::new(6, 0));
        assert_ne!(order, other, "ties break differently per seed");
        assert_eq!(degrees[other[1] as usize], 25);
    }

    #[test]
    fn names_sort_like_indices() {
        assert!(name(9) < name(10));
        assert!(name(99_999) < name(100_000));
    }
}
