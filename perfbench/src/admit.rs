//! Seeded admission queries, per-query latency, and the admission probe.

use std::time::Instant;

use botscope::robots::PolicyEstate;
use botscope::simnet::PolicyVersion;

/// splitmix64: the benchmark's own seeded generator, so its inputs do
/// not depend on any library's random streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The agents queries ask as: every bot of the simulated fleet, by the
/// canonical product token the traffic generator checks policies with,
/// drawn in proportion to its calibrated daily request volume
/// (`daily_hits`, from the paper's Table 3).
pub struct Agents {
    tokens: Vec<&'static str>,
    cdf: Vec<f64>,
}

impl Agents {
    pub fn fleet() -> Agents {
        let mut total = 0.0;
        let (tokens, cdf) = botscope::simnet::fleet::build_fleet()
            .iter()
            .map(|bot| {
                total += bot.behavior.daily_hits;
                (bot.spec.canonical, total)
            })
            .unzip();
        Agents { tokens, cdf }
    }

    pub fn token(&self, agent: u8) -> &'static str {
        self.tokens[usize::from(agent)]
    }

    fn draw(&self, rng: &mut Rng) -> u8 {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let i = draw_cdf(&self.cdf, rng.unit() * total);
        u8::try_from(i).expect("the fleet has at most 256 bots")
    }
}

/// Index of the first cumulative weight above `u`.
fn draw_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Request paths, drawn uniformly: allowed page-data endpoints, content
/// the stricter policies deny, directory pages, and the always-allowed
/// robots.txt.
pub fn paths() -> Vec<String> {
    let mut paths = Vec::new();
    for i in 0..256 {
        paths.push(format!("/page-data/item-{i:03}/page-data.json"));
        paths.push(format!("/news/item-{i:03}"));
        paths.push(format!("/people/person-{i:04}"));
        if i % 64 == 0 {
            paths.push("/robots.txt".to_string());
        }
    }
    paths
}

/// One admission query, as indices into the site, agent and path pools.
#[derive(Clone, Copy)]
pub struct Query {
    pub site: u32,
    pub agent: u8,
    pub path: u16,
}

/// `n` queries over `n_sites` sites, Zipf-skewed with exponent 1: site
/// `i` of the caller's list is the `(i+1)`-th most popular at every
/// seed. Agents follow the fleet's volumes and paths are uniform.
pub fn queries(
    rng: &mut Rng,
    n_sites: usize,
    agents: &Agents,
    n_paths: usize,
    n: usize,
) -> Vec<Query> {
    let mut total = 0.0;
    let zipf: Vec<f64> = (1..=n_sites)
        .map(|rank| {
            total += 1.0 / rank as f64;
            total
        })
        .collect();
    (0..n)
        .map(|_| Query {
            site: draw_cdf(&zipf, rng.unit() * total) as u32,
            agent: agents.draw(rng),
            path: rng.below(n_paths) as u16,
        })
        .collect()
}

/// One query in this many is timed. Reading the clock around every
/// query would make clock reads a large share of what is measured.
pub const SAMPLE_EVERY: usize = 8;

/// Admission check of query number `i`, timed into `latencies` when `i`
/// is a sampled one. `None` is a query with no verdict.
#[inline]
pub fn answer(
    estate: &mut PolicyEstate,
    i: usize,
    site: &str,
    agent: &str,
    path: &str,
    latencies: &mut Vec<u32>,
) -> Option<bool> {
    if !i.is_multiple_of(SAMPLE_EVERY) {
        return estate.check(site, agent, path);
    }
    let t = Instant::now();
    let verdict = estate.check(site, agent, path);
    latencies.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    verdict
}

/// `(p50, p99)` of per-query latencies in nanoseconds. Each is the mean
/// of the latencies ranked within a band around the quantile, so that
/// it is not stuck to the clock's 1 ns grid: half a percentile point
/// each side for p50, and 0.05 for p99, where a wider band would reach
/// the recompiles just above the 99th percentile and move with how many
/// of them fall in it.
pub fn percentiles(latencies: &mut [u32]) -> (f64, f64) {
    if latencies.is_empty() {
        return (0.0, 0.0);
    }
    latencies.sort_unstable();
    let n = latencies.len() as f64;
    let at = |q: f64, half_band: f64| {
        let lo = ((q - half_band) * n).floor() as usize;
        let hi = (((q + half_band) * n).ceil() as usize).clamp(lo + 1, latencies.len());
        let band = &latencies[lo..hi];
        band.iter().map(|&l| f64::from(l)).sum::<f64>() / band.len() as f64
    };
    (at(0.50, 0.005), at(0.99, 0.0005))
}

/// Queries in one admission probe round, and in the pool the rounds
/// take turns over.
const ROUND_QUERIES: usize = 2_000;
const PROBE_QUERIES: usize = 100 * ROUND_QUERIES;

/// Per-query admission latency on a warm 36-site estate with no policy
/// churn. Workloads whose iterations make no admission checks build its
/// estate during set-up and run rounds of it beside their iterations,
/// so that every workload reports `check_ns_p50` and `check_ns_p99`.
pub struct Probe {
    sites: Vec<String>,
    paths: Vec<String>,
    estate: PolicyEstate,
    agents: Option<Agents>,
    queries: Vec<Query>,
    rounds: usize,
}

impl Probe {
    /// The estate: 36 sites serving the four policy versions in turn,
    /// each compiled once.
    pub fn new() -> Probe {
        let sites: Vec<String> = (0..36).map(|i| format!("site-{i:02}.example.edu")).collect();
        let mut estate = PolicyEstate::new();
        for (i, site) in sites.iter().enumerate() {
            estate.insert(site.as_str(), PolicyVersion::ALL[i % 4].robots_txt());
            estate.check(site, "*", "/");
        }
        Probe { sites, paths: paths(), estate, agents: None, queries: Vec::new(), rounds: 0 }
    }

    /// Draw the query pool; done after set-up, which it is not part of.
    pub fn load(&mut self, seed: u64) {
        let agents = Agents::fleet();
        let mut rng = Rng::new(seed, 2);
        self.queries =
            queries(&mut rng, self.sites.len(), &agents, self.paths.len(), PROBE_QUERIES);
        self.agents = Some(agents);
    }

    /// One round of queries, their sampled latencies pushed to `latencies`.
    pub fn round(&mut self, latencies: &mut Vec<u32>) {
        let agents = self.agents.as_ref().expect("the probe's queries are loaded");
        let start = (self.rounds * ROUND_QUERIES) % PROBE_QUERIES;
        self.rounds += 1;
        for (i, q) in self.queries[start..start + ROUND_QUERIES].iter().enumerate() {
            let verdict = answer(
                &mut self.estate,
                i,
                &self.sites[q.site as usize],
                agents.token(q.agent),
                &self.paths[q.path as usize],
                latencies,
            );
            assert!(verdict.is_some(), "probe sites are all registered");
        }
    }
}
