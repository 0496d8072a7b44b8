//! The four workloads. Each calls the library's public functions
//! directly, wraps every call into a layer in a runner span, and checks
//! its own outputs.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

use botscope::core::analyze::{BeliefContext, Experiment};
use botscope::core::attribution::{
    attribute_table_with_threads, excusal_mask, AttributionCounts, PolicyBasis,
};
use botscope::core::{recheck, report};
use botscope::monitor::daemon::{self, ChangeDigest, MonitorConfig};
use botscope::monitor::scenario::build_estate;
use botscope::monitor::{apply_digests, prime_estate, CoupledConfig, RefreshModel, ScenarioKind};
use botscope::obs::digest::{sha256_hex, Sha256};
use botscope::robots::PolicyEstate;
use botscope::simnet::scenario::{phase_study_stream, phase_study_table};
use botscope::simnet::server::PolicyCorpus;
use botscope::simnet::{PhaseSchedule, SimConfig, StreamOptions};
use botscope::weblog::codec::DecodeError;
use botscope::weblog::colfmt::{read_table, BinReader, BinSink};
use botscope::weblog::{LogTable, RecordRow, RowStream, StringInterner};

use crate::admit::{self, Agents, Query, Rng};
use crate::trace::Tracer;

/// Input size: the benchmark's, or a tiny one for the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// What one iteration produced.
#[derive(Default)]
pub struct Iteration {
    /// Rows, fetches or queries completed.
    pub items: u64,
    /// Operations attempted and failed within the iteration; an
    /// iteration that is not a batch of queries counts as one.
    pub attempted: u64,
    pub failed: u64,
    /// SHA-256 of the rendered output (or of the verdict stream).
    pub digest: String,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Exact per-layer counts.
    pub counts: Vec<(&'static str, f64)>,
    /// Sampled per-query admission latencies in nanoseconds.
    pub latencies: Vec<u32>,
}

pub trait Workload {
    /// Restore the input state an iteration starts from (untimed).
    fn prepare(&mut self) {}

    /// One closed-loop iteration.
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String>;

    /// Checks made once per run, outside the timed iterations.
    fn check_once(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer values measured outside the iterations of a traced
    /// run: layers that run during set-up, and sub-layer probes.
    fn extra_layers(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

pub const NAMES: [&str; 4] = ["coupled_paper", "stream_s10", "monitor_100k", "admit_churn"];

/// A workload's inputs, plus the admission probe's estate for workloads
/// whose iterations make no admission checks.
pub struct Setup {
    pub workload: Box<dyn Workload>,
    pub probe: Option<admit::Probe>,
}

/// Build a workload's inputs.
pub fn setup(
    name: &str,
    size: Size,
    seed: u64,
    threads: usize,
    run_dir: &std::path::Path,
) -> Result<Setup, String> {
    let workload: Box<dyn Workload> = match name {
        "coupled_paper" => Box::new(CoupledPaper::new(size, seed, threads)),
        "stream_s10" => Box::new(StreamS10::new(size, seed, threads, run_dir)?),
        "monitor_100k" => Box::new(Monitor100k::new(size, seed, threads)),
        "admit_churn" => {
            return Ok(Setup {
                workload: Box::new(AdmitChurn::new(size, seed, threads)),
                probe: None,
            })
        }
        other => return Err(format!("unknown workload {other:?} (want one of {NAMES:?})")),
    };
    Ok(Setup { workload, probe: Some(admit::Probe::new()) })
}

/// Sum of every labelled series of a telemetry counter.
fn counter_total(snapshot: &BTreeMap<String, u64>, name: &str) -> u64 {
    snapshot
        .iter()
        .filter(|(k, _)| {
            k.as_str() == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Counter deltas over one iteration.
struct CounterDelta(BTreeMap<String, u64>);

impl CounterDelta {
    fn start() -> CounterDelta {
        CounterDelta(botscope::obs::global().snapshot_counters())
    }

    fn get(&self, name: &str) -> u64 {
        let now = botscope::obs::global().snapshot_counters();
        counter_total(&now, name) - counter_total(&self.0, name)
    }
}

/// Tables 4, 5, 6 and 10 of one experiment.
fn render_phase_tables(out: &mut String, exp: &Experiment) {
    for table in
        [report::table4(exp), report::table5(exp), report::table6(exp), report::table10(exp)]
    {
        out.push_str(&table);
        out.push('\n');
    }
}

fn finish(mut it: Iteration, rendered: &str) -> Iteration {
    it.digest = sha256_hex(rendered.as_bytes());
    it.counts.push(("core.render_bytes", rendered.len() as f64));
    it
}

// ---------------------------------------------------------------------

/// The 8-week coupled study at paper scale, then attribution, the
/// excusal mask, both analysis bases and the report tables.
struct CoupledPaper {
    cfg: CoupledConfig,
    corpus: PolicyCorpus,
    threads: usize,
    /// The last traced iteration's log table, for the standardize probe.
    last_table: Option<LogTable>,
}

impl CoupledPaper {
    fn new(size: Size, seed: u64, threads: usize) -> CoupledPaper {
        let (scale, sites) = match size {
            Size::Full => (1.0, 36),
            Size::Tiny => (0.02, 4),
        };
        let sim = SimConfig { scale, sites, seed, ..SimConfig::default() };
        let cfg =
            CoupledConfig { sim, scenario: ScenarioKind::Mixed, refresh: RefreshModel::Fleet };
        CoupledPaper { cfg, corpus: PolicyCorpus::new(), threads, last_table: None }
    }
}

impl Workload for CoupledPaper {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let threads = self.threads;
        let before = CounterDelta::start();
        let out = tr.span("monitor.belief", || {
            botscope::monitor::run_coupled_with_threads(&self.cfg, threads)
        });
        let table = &out.sim.table;
        let counts = tr.span("core.attribution", || {
            attribute_table_with_threads(table, &out.beliefs, &out.served, &self.corpus, threads)
        });
        let mask = tr.span("core.excusal_mask", || {
            excusal_mask(table, &out.beliefs, &out.served, &self.corpus, threads)
        });
        let ctx =
            BeliefContext { beliefs: &out.beliefs, served: &out.served, corpus: &self.corpus };
        let analyze = |basis| {
            Experiment::analyze_table_with_basis(table, &out.schedule, &ctx, basis, threads)
        };
        let served = tr.span("core.analyze_table", || analyze(PolicyBasis::Served));
        let believed = tr.span("core.analyze_believed", || analyze(PolicyBasis::Believed));
        let rendered = tr.span("core.render", || {
            let mut r = report::attribution_report(&counts);
            r.push('\n');
            render_phase_tables(&mut r, &served);
            render_phase_tables(&mut r, &believed);
            r
        });

        let excused_rows = mask.iter().filter(|&&m| m).count() as u64;
        let excused_attributed: u64 = counts.values().map(AttributionCounts::excused).sum();
        let mut it = Iteration { items: table.len() as u64, attempted: 1, ..Iteration::default() };
        if excused_rows != excused_attributed {
            it.problems.push(format!(
                "believed basis drops {excused_rows} rows, attribution excuses {excused_attributed}"
            ));
        }
        let stats = out.monitor_stats.as_ref().ok_or("fleet refresh reports belief stats")?;
        it.counts = vec![
            ("simnet.rows", table.len() as f64),
            ("monitor.belief_fetches", stats.fetches as f64),
            ("monitor.belief_transitions", out.beliefs.total_transitions() as f64),
            ("core.policy_lookups", before.get("attribution_policy_lookups_total") as f64),
            ("core.cursor_resets", before.get("attribution_cursor_resets_total") as f64),
            ("core.excused_rows", excused_rows as f64),
        ];
        if tr.enabled() {
            self.last_table = Some(out.sim.table);
        }
        Ok(finish(it, &rendered))
    }

    fn extra_layers(&mut self) -> Vec<(&'static str, f64)> {
        // The program has no standardize span yet: time the same call
        // attribution and each analysis basis make internally, once,
        // on the last traced iteration's table.
        let Some(table) = &self.last_table else { return Vec::new() };
        let t = Instant::now();
        let logs = botscope::core::pipeline::standardize_table_with_threads(table, self.threads);
        let secs = t.elapsed().as_secs_f64();
        drop(logs);
        vec![("core.standardize_s", secs)]
    }
}

// ---------------------------------------------------------------------

/// A [`RowStream`] that counts the rows it yields.
struct Counted<S> {
    inner: S,
    rows: u64,
}

impl<S: RowStream> RowStream for Counted<S> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        let row = self.inner.next_row();
        if matches!(row, Some(Ok(_))) {
            self.rows += 1;
        }
        row
    }

    fn interner(&self) -> &StringInterner {
        self.inner.interner()
    }
}

/// The phase study at scale 10, streamed through spill, k-way merge and
/// a BSCL file, then read back and folded in one pass.
struct StreamS10 {
    cfg: SimConfig,
    threads: usize,
    opts: StreamOptions,
    bscl: PathBuf,
    /// Schedule, row count and rendered report of the last iteration,
    /// for the once-per-run checks.
    last: Option<(PhaseSchedule, u64, String)>,
}

impl StreamS10 {
    fn new(
        size: Size,
        seed: u64,
        threads: usize,
        run_dir: &std::path::Path,
    ) -> Result<Self, String> {
        let scale = match size {
            Size::Full => 10.0,
            Size::Tiny => 0.05,
        };
        let spill = run_dir.join("spill");
        std::fs::create_dir_all(&spill).map_err(|e| format!("cannot create {spill:?}: {e}"))?;
        Ok(StreamS10 {
            cfg: SimConfig { scale, seed, ..SimConfig::default() },
            threads,
            opts: StreamOptions { spill_dir: Some(spill), ..StreamOptions::default() },
            bscl: run_dir.join("stream.bscl"),
            last: None,
        })
    }

    fn generate(&self) -> io::Result<botscope::simnet::scenario::PhaseStudyStreamOutput> {
        let mut sink = BinSink::new(BufWriter::new(File::create(&self.bscl)?))?;
        let out = phase_study_stream(&self.cfg, self.threads, &self.opts, &mut [&mut sink])?;
        sink.into_inner().into_inner().map_err(io::IntoInnerError::into_error)?;
        Ok(out)
    }

    fn fold(&self, schedule: &PhaseSchedule) -> Result<(Experiment, u64), String> {
        let file = File::open(&self.bscl).map_err(|e| e.to_string())?;
        let reader =
            BinReader::new(BufReader::with_capacity(1 << 16, file)).map_err(|e| e.to_string())?;
        let mut stream = Counted { inner: reader, rows: 0 };
        let exp = Experiment::analyze_stream(&mut stream, schedule).map_err(|e| e.to_string())?;
        Ok((exp, stream.rows))
    }
}

impl Workload for StreamS10 {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let before = CounterDelta::start();
        let out = tr.span("simnet.generate", || self.generate()).map_err(|e| e.to_string())?;
        let (exp, rows_read) = tr.span("core.stream_fold", || self.fold(&out.schedule))?;
        let rendered = tr.span("core.render", || {
            let mut r = String::new();
            render_phase_tables(&mut r, &exp);
            r
        });

        // The merge's count is the one the sink saw; the materialized
        // generator checks it once per run.
        let merged = out.sim.rows;
        let folded = before.get("stream_rows_total");
        let mut it = Iteration { items: merged, attempted: 1, ..Iteration::default() };
        if rows_read != merged || folded != merged {
            it.problems.push(format!(
                "rows not conserved: merged {merged}, BSCL read {rows_read}, folded {folded}"
            ));
        }
        let bytes = std::fs::metadata(&self.bscl).map_err(|e| e.to_string())?.len();
        it.counts = vec![
            ("simnet.rows", before.get("simnet_rows_total") as f64),
            ("weblog.spill_runs", before.get("simnet_spill_runs_total") as f64),
            ("weblog.merge_rows", before.get("weblog_merge_rows_total") as f64),
            ("weblog.merge_groups", before.get("weblog_merge_groups_total") as f64),
            ("weblog.bscl_bytes", bytes as f64),
            ("core.stream_rows", folded as f64),
        ];
        self.last = Some((out.schedule, merged, rendered.clone()));
        Ok(finish(it, &rendered))
    }

    /// The stream fold must render the same bytes as the table engine
    /// on the decoded file, and the materialized generator must make as
    /// many rows at the same seed as the stream merged.
    fn check_once(&mut self) -> Result<(), String> {
        let (schedule, merged, streamed) = self.last.as_ref().ok_or("no iteration ran")?;
        let file = File::open(&self.bscl).map_err(|e| e.to_string())?;
        let table = read_table(BufReader::new(file)).map_err(|e| e.to_string())?;
        let exp = Experiment::analyze_table_with_threads(&table, schedule, self.threads);
        drop(table);
        let mut tabled = String::new();
        render_phase_tables(&mut tabled, &exp);
        if &tabled != streamed {
            return Err("stream fold and table engine render different bytes".into());
        }
        let generated = phase_study_table(&self.cfg).sim.table.len() as u64;
        if generated != *merged {
            return Err(format!(
                "rows not conserved: the materialized generator makes {generated}, \
                 the stream merged {merged}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------

fn monitor_config(sites: usize, seed: u64) -> MonitorConfig {
    MonitorConfig { seed, sites, days: 46, bots: 2, ..MonitorConfig::default() }
}

/// The monitoring daemon over a 100 000-site estate, then the phase
/// re-check matrix and Table 7.
struct Monitor100k {
    cfg: MonitorConfig,
    threads: usize,
}

impl Monitor100k {
    fn new(size: Size, seed: u64, threads: usize) -> Monitor100k {
        let sites = match size {
            Size::Full => 100_000,
            Size::Tiny => 500,
        };
        Monitor100k { cfg: monitor_config(sites, seed), threads }
    }
}

impl Workload for Monitor100k {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let out = tr.span("monitor.daemon", || daemon::run_with_threads(&self.cfg, self.threads));
        let matrix =
            tr.span("core.recheck", || recheck::phase_check_matrix(&out.table, &out.site_windows));
        let rendered = tr.span("core.render", || report::table7_from_monitor(&matrix));
        let it = Iteration {
            items: out.stats.fetches,
            attempted: 1,
            counts: vec![
                ("monitor.fetches", out.stats.fetches as f64),
                ("monitor.digests", out.changes.len() as f64),
                ("monitor.revalidated", out.stats.revalidated as f64),
            ],
            ..Iteration::default()
        };
        // Freeing the daemon's output is part of the daemon's cost.
        tr.span("monitor.daemon", || drop(out));
        Ok(finish(it, &rendered))
    }
}

// ---------------------------------------------------------------------

/// A warm admission estate answering seeded queries while the change
/// digests of a monitor pre-run are applied at their timestamps.
struct AdmitChurn {
    /// Sites in the daemon's own order, which is also popularity order.
    sites: Vec<String>,
    agents: Agents,
    paths: Vec<String>,
    /// Query `i` is answered at `times[i]`, evenly spread over the
    /// monitored horizon.
    queries: Vec<Query>,
    times: Vec<u64>,
    digests: Vec<ChangeDigest>,
    warm: PolicyEstate,
    estate: PolicyEstate,
    setup_layers: Vec<(&'static str, f64)>,
}

impl AdmitChurn {
    fn new(size: Size, seed: u64, threads: usize) -> AdmitChurn {
        let (n_sites, n_queries) = match size {
            Size::Full => (20_000, 1_000_000),
            Size::Tiny => (300, 20_000),
        };
        let cfg = monitor_config(n_sites, seed);
        let t = Instant::now();
        let pre = daemon::run_with_threads(&cfg, threads);
        let daemon_s = t.elapsed().as_secs_f64();

        // Every site's first served policy, taken in the order the
        // daemon numbers its sites (its swap pattern is by that number).
        let deployment: Vec<(String, botscope::simnet::PolicyVersion)> = build_estate(&cfg)
            .into_iter()
            .filter_map(|server| {
                let &(version, _, _) = pre.site_windows.get(&server.name)?.first()?;
                Some((server.name, version))
            })
            .collect();
        let mut warm = PolicyEstate::new();
        prime_estate(&mut warm, deployment.iter().map(|(site, v)| (site.as_str(), *v)));
        for (site, _) in &deployment {
            warm.check(site, "*", "/");
        }
        let sites: Vec<String> = deployment.into_iter().map(|(site, _)| site).collect();
        let agents = Agents::fleet();
        let paths = admit::paths();
        let mut rng = Rng::new(seed, 1);
        let queries = admit::queries(&mut rng, sites.len(), &agents, paths.len(), n_queries);
        let (lo, span) = (cfg.start.unix(), pre.horizon_end - cfg.start.unix());
        let times = (0..n_queries as u64).map(|i| lo + i * span / n_queries as u64).collect();
        let setup_layers = vec![
            ("monitor.daemon_s", daemon_s),
            ("monitor.fetches", pre.stats.fetches as f64),
            ("monitor.digests", pre.changes.len() as f64),
            ("monitor.revalidated", pre.stats.revalidated as f64),
        ];
        AdmitChurn {
            sites,
            agents,
            paths,
            queries,
            times,
            digests: pre.changes,
            estate: warm.clone(),
            warm,
            setup_layers,
        }
    }
}

impl Workload for AdmitChurn {
    fn prepare(&mut self) {
        self.estate = self.warm.clone();
    }

    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let estate = &mut self.estate;
        let (compiles0, hits0) = (estate.compiles(), estate.cache_hits());
        let n = self.queries.len();
        let mut latencies: Vec<u32> = Vec::with_capacity(n / admit::SAMPLE_EVERY + 1);
        let mut verdicts: Vec<u8> = Vec::with_capacity(n);
        let (mut dropped, mut cosmetic, mut failed) = (0usize, 0usize, 0u64);
        let (mut q, mut d) = (0usize, 0usize);
        while q < n {
            // Apply every digest due by the next query's timestamp.
            let due = d + self.digests[d..].partition_point(|c| c.at <= self.times[q]);
            if due > d {
                let outcome = tr
                    .span("monitor.apply_digests", || apply_digests(estate, &self.digests[d..due]));
                dropped += outcome.dropped;
                cosmetic += outcome.cosmetic_skips;
                d = due;
            }
            // Answer queries until the next digest falls due.
            let next_at = self.digests.get(d).map_or(u64::MAX, |c| c.at);
            let end = q + self.times[q..].partition_point(|&t| t < next_at);
            tr.span("robotstxt.check", || {
                for (i, query) in (q..end).zip(&self.queries[q..end]) {
                    let verdict = admit::answer(
                        estate,
                        i,
                        &self.sites[query.site as usize],
                        self.agents.token(query.agent),
                        &self.paths[query.path as usize],
                        &mut latencies,
                    );
                    match verdict {
                        Some(allow) => verdicts.push(u8::from(allow)),
                        None => {
                            failed += 1;
                            verdicts.push(2);
                        }
                    }
                }
            });
            q = end;
        }
        let mut digest = Sha256::new();
        digest.update(&verdicts);
        let compiles = estate.compiles() - compiles0;
        let hits = estate.cache_hits() - hits0;
        let mut it = Iteration {
            items: n as u64,
            attempted: n as u64,
            failed,
            digest: digest.finalize_hex(),
            latencies,
            ..Iteration::default()
        };
        it.counts = vec![
            ("robotstxt.compiles", compiles as f64),
            ("robotstxt.cache_hits", hits as f64),
            ("robotstxt.hit_ratio", hits as f64 / n as f64),
            ("monitor.dropped", dropped as f64),
            ("monitor.cosmetic_skips", cosmetic as f64),
        ];
        Ok(it)
    }

    fn extra_layers(&mut self) -> Vec<(&'static str, f64)> {
        self.setup_layers.clone()
    }
}
