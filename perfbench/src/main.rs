//! The repository benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! One run is one workload in its own process: set-up (repeated, the
//! median reported), then closed-loop iterations until `--seconds` have
//! passed. The last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md.

#![forbid(unsafe_code)]

mod admit;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trace::{Breakdown, Tracer};
use workloads::{Iteration, Size, Workload};

/// End-to-end metrics, `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("check_ns_p50", "ns"),
    ("check_ns_p99", "ns"),
];

/// Per-layer metrics, `--trace 1`. A `_s` metric is a layer's self time
/// in the traced iterations; layers a workload bypasses report 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("simnet.generate_s", "s"),
    ("simnet.absorb_sort_s", "s"),
    ("simnet.rows", "count"),
    ("simnet.ns_per_row", "ns"),
    ("weblog.spill_merge_s", "s"),
    ("weblog.spill_runs", "count"),
    ("weblog.merge_rows", "count"),
    ("weblog.merge_groups", "count"),
    ("weblog.bscl_bytes", "bytes"),
    ("monitor.belief_s", "s"),
    ("monitor.belief_fetches", "count"),
    ("monitor.belief_transitions", "count"),
    ("monitor.daemon_s", "s"),
    ("monitor.fetches", "count"),
    ("monitor.ns_per_fetch", "ns"),
    ("monitor.digests", "count"),
    ("monitor.revalidated", "count"),
    ("core.attribution_s", "s"),
    ("core.excusal_mask_s", "s"),
    ("core.policy_lookups", "count"),
    ("core.cursor_resets", "count"),
    ("core.excused_rows", "count"),
    ("core.standardize_s", "s"),
    ("core.analyze_table_s", "s"),
    ("core.analyze_believed_s", "s"),
    ("core.stream_fold_s", "s"),
    ("core.stream_rows", "count"),
    ("core.stream_ns_per_row", "ns"),
    ("core.recheck_s", "s"),
    ("core.render_s", "s"),
    ("core.render_bytes", "bytes"),
    ("robotstxt.check_s", "s"),
    ("robotstxt.compiles", "count"),
    ("robotstxt.cache_hits", "count"),
    ("robotstxt.hit_ratio", "ratio"),
    ("monitor.apply_digests_s", "s"),
    ("monitor.dropped", "count"),
    ("monitor.cosmetic_skips", "count"),
    ("bench.uncovered_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Fewest measured iterations per run, whatever `--seconds` says. There
/// is no separate warm-up: the set-ups warm what they share with an
/// iteration, and a first iteration runs no slower than later ones.
/// Only `stream_s10`, whose iterations take 10-20 s, stops at this
/// floor; a floor of three would add up to 20 s to each of its runs.
const MIN_ITERATIONS: usize = 2;

/// In a timed run of a workload whose iterations make no admission
/// checks, a thread of its own runs one admission probe round after
/// each pause of this length while the iterations run. Short rounds
/// spread evenly over the run sample the machine as the iterations
/// meet it, and take under 1 % of one core.
const PROBE_PAUSE: Duration = Duration::from_millis(100);

/// The default workload seed; its digests are recorded.
const DEFAULT_SEED: u64 = 9309;

/// Recorded output digests: `workload size seed sha256` per line.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(args)
}

/// Refuse environments that would change what is measured, and return
/// the worker count every layer uses.
fn pinned_threads() -> Result<usize, String> {
    if let Ok(matcher) = std::env::var("BOTSCOPE_MATCHER") {
        if matcher != "compiled" {
            return Err(format!(
                "BOTSCOPE_MATCHER={matcher:?} selects another matcher than the compiled \
                 automata; unset it to run the benchmark"
            ));
        }
    }
    let threads = botscope::simnet::worker_threads();
    if threads > nproc() {
        return Err(format!(
            "BOTSCOPE_THREADS asks for {threads} workers on {} cores; the benchmark loads \
             at most one worker per core",
            nproc()
        ));
    }
    Ok(threads)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision; "unknown" when the checkout is not a
/// git repository (git would otherwise report an enclosing one).
fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

fn env_record(args: &Args, threads: usize) -> String {
    let botscope_threads = std::env::var("BOTSCOPE_THREADS")
        .map_or("null".to_string(), |v| format!("\"{}\"", botscope::obs::json_escape(&v)));
    format!(
        "{{\"workload\":\"{}\",\"size\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"workers\":{threads},\"botscope_threads\":{botscope_threads},\"nproc\":{},\
         \"matcher\":\"compiled\",\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        args.workload,
        args.size.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        botscope::obs::json_escape(&command_line("rustc", &["--version"])),
        git_revision(),
    )
}

fn recorded_digest(workload: &str, size: Size, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, n, sha] if *w == workload && *s == size.label() && *n == seed.to_string() => {
                Some(*sha)
            }
            _ => None,
        }
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured iteration.
struct Sample {
    wall_s: f64,
    traced: bool,
    it: Iteration,
    breakdown: Option<Breakdown>,
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    peak_rss_mb: f64,
    /// Sampled per-query admission latencies in nanoseconds, pooled over
    /// the measured iterations or the probe rounds between them.
    latencies: Vec<u32>,
    extra_layers: Vec<(&'static str, f64)>,
    /// The runner's spans as JSON lines (traced runs).
    trace: String,
}

impl Run {
    /// Run one iteration, check its outputs against `reference` (set
    /// from the first iteration when no digest is recorded), and count
    /// its operations.
    fn iterate(
        &mut self,
        wl: &mut dyn Workload,
        tracer: &mut Tracer,
        iter: u32,
        traced: bool,
        reference: &mut Option<String>,
    ) -> Option<Sample> {
        wl.prepare();
        tracer.set_enabled(traced);
        tracer.begin_iteration(iter);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| wl.iterate(tracer)));
        let wall_s = start.elapsed().as_secs_f64();
        let breakdown = tracer.end_iteration();
        tracer.set_enabled(false);
        let mut it = match result {
            Ok(Ok(it)) => it,
            Ok(Err(e)) => {
                self.fail(1, format!("iteration {iter}: {e}"));
                return None;
            }
            Err(_) => {
                self.fail(1, format!("iteration {iter} panicked"));
                return None;
            }
        };
        match reference {
            Some(want) if *want != it.digest => {
                it.problems.push(format!("output digest {} != recorded {want}", it.digest));
            }
            Some(_) => {}
            None => *reference = Some(it.digest.clone()),
        }
        self.attempted += it.attempted;
        self.failed += it.failed;
        if !it.problems.is_empty() {
            // A failed output check fails every operation of the iteration.
            self.failed += it.attempted - it.failed;
            for p in &it.problems {
                self.problems.push(format!("iteration {iter}: {p}"));
            }
        }
        Some(Sample { wall_s, traced, it, breakdown })
    }

    fn fail(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.failed += n;
        self.problems.push(why);
    }

    /// The trace file: the environment, every runner span, and each
    /// traced iteration's breakdown into layer self times.
    fn trace_file(&self, env: &str) -> String {
        let mut text = format!("{{\"env\":{env}}}\n");
        text.push_str(&self.trace);
        for b in self.samples.iter().filter_map(|s| s.breakdown.as_ref()) {
            let layers: Vec<String> =
                b.layers.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let _ = writeln!(
                text,
                "{{\"breakdown\":{},\"wall_s\":{},\"uncovered_s\":{},\"layers\":{{{}}}}}",
                b.iter,
                b.wall_s,
                b.uncovered_s,
                layers.join(",")
            );
        }
        text
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.samples.iter().filter(|s| s.traced == traced).map(|s| s.wall_s).collect()
    }

    fn end_to_end(&mut self) -> BTreeMap<&'static str, f64> {
        let wall_s = median(&self.walls(false));
        let items = self.samples.last().map_or(0, |s| s.it.items);
        let (p50, p99) = admit::percentiles(&mut self.latencies);
        BTreeMap::from([
            ("wall_s", wall_s),
            ("items_per_s", items as f64 / wall_s),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", median(&self.setup_s)),
            ("check_ns_p50", p50),
            ("check_ns_p99", p99),
        ])
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let traced: Vec<&Sample> = self.samples.iter().filter(|s| s.traced).collect();
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        let breakdowns: Vec<&Breakdown> =
            traced.iter().filter_map(|s| s.breakdown.as_ref()).collect();
        for (name, _) in PER_LAYER {
            let Some(layer) = name.strip_suffix("_s") else { continue };
            let times: Vec<f64> =
                breakdowns.iter().filter_map(|b| b.layers.get(layer).copied()).collect();
            if !times.is_empty() {
                out.insert(name, median(&times));
            }
        }
        if let Some(last) = traced.last() {
            for &(name, value) in &last.it.counts {
                out.insert(name, value);
            }
        }
        for &(name, value) in &self.extra_layers {
            out.insert(name, value);
        }
        out.insert(
            "bench.uncovered_s",
            median(&breakdowns.iter().map(|b| b.uncovered_s).collect::<Vec<_>>()),
        );
        out.insert(
            "bench.trace_overhead_s",
            median(&self.walls(true)) - median(&self.walls(false)),
        );
        let per = |time: &str, count: &str| {
            let n = out[count];
            if n > 0.0 {
                out[time] * 1e9 / n
            } else {
                0.0
            }
        };
        let derived = [
            ("simnet.ns_per_row", per("simnet.generate_s", "simnet.rows")),
            ("monitor.ns_per_fetch", per("monitor.daemon_s", "monitor.fetches")),
            ("core.stream_ns_per_row", per("core.stream_fold_s", "core.stream_rows")),
        ];
        out.extend(derived);
        out
    }
}

fn peak_rss_mb() -> f64 {
    botscope::obs::rss::sample_self().map_or(0.0, |m| m.peak_rss_kb as f64 / 1024.0)
}

/// Run admission probe rounds, one after each pause, until `stop` is
/// set, and at least one; the thread returns the sampled latencies.
fn spawn_probe(mut probe: admit::Probe, stop: &Arc<AtomicBool>) -> JoinHandle<Vec<u32>> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let mut latencies = Vec::new();
        loop {
            std::thread::sleep(PROBE_PAUSE);
            probe.round(&mut latencies);
            if stop.load(Ordering::Relaxed) {
                return latencies;
            }
        }
    })
}

fn measure(args: &Args, threads: usize, epoch: Instant, run_dir: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    // Set-up: the first one counts from process start.
    let mut setup = None;
    while run.setup_s.len() < SETUP_REPEATS {
        drop(setup.take());
        let start = if run.setup_s.is_empty() { epoch } else { Instant::now() };
        setup = Some(workloads::setup(&args.workload, args.size, args.seed, threads, run_dir)?);
        run.setup_s.push(start.elapsed().as_secs_f64());
    }
    let workloads::Setup { mut workload, probe } = setup.expect("at least one set-up");
    let wl = workload.as_mut();
    // The probe measures only in timed runs.
    let stop = Arc::new(AtomicBool::new(false));
    let probe = probe.filter(|_| !args.trace).map(|mut p| {
        p.load(args.seed);
        spawn_probe(p, &stop)
    });

    let mut tracer = Tracer::new(epoch);
    let mut reference = recorded_digest(&args.workload, args.size, args.seed).map(str::to_string);
    if reference.is_none() {
        eprintln!("perfbench: no recorded digest for this seed; iterations must agree instead");
    }
    let start = Instant::now();
    let mut iter = 1u32;
    loop {
        let traced = args.trace && iter.is_multiple_of(2);
        if let Some(mut sample) = run.iterate(wl, &mut tracer, iter, traced, &mut reference) {
            run.latencies.append(&mut sample.it.latencies);
            run.samples.push(sample);
        }
        iter += 1;
        let measured = iter as usize - 1;
        // Peak RSS after a fixed amount of work: a faster program runs
        // more iterations, which must not raise its high-water mark.
        if measured == MIN_ITERATIONS {
            run.peak_rss_mb = peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() >= args.seconds && measured >= MIN_ITERATIONS {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    if let Some(probe) = probe {
        match probe.join() {
            Ok(mut latencies) => run.latencies.append(&mut latencies),
            Err(_) => run.fail(1, "the admission probe panicked".to_string()),
        }
    }
    if let Err(e) = wl.check_once() {
        run.fail(1, e);
    }
    if args.trace {
        run.extra_layers = wl.extra_layers();
        run.trace = tracer.to_jsonl();
    }
    Ok(run)
}

fn render_result(
    run: &Run,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            // Only a run with no successful iteration divides by zero; it
            // reports itself incorrect, and the line must stay valid JSON.
            let value = Some(metrics[name]).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.problems.is_empty(),
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = match pinned_threads() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {run_dir:?}: {e}");
        return ExitCode::from(2);
    }
    let result = measure(&args, threads, epoch, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let env = env_record(&args, threads);
    let untraced = run.walls(false);
    eprintln!("perfbench: env {env}");
    eprintln!(
        "perfbench: set-ups {:?}, {} untraced + {} traced iterations, wall_s samples {:?}",
        run.setup_s,
        untraced.len(),
        run.walls(true).len(),
        untraced
    );
    eprintln!(
        "perfbench: fail_ratio {} ({} of {} operations)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    if let Some(s) = run.samples.first() {
        eprintln!(
            "perfbench: digest {} {} {} {}",
            args.workload,
            args.size.label(),
            args.seed,
            s.it.digest
        );
    }
    for p in &run.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    let line = if args.trace {
        render_result(&run, &run.per_layer(), &PER_LAYER)
    } else {
        let metrics = run.end_to_end();
        render_result(&run, &metrics, &END_TO_END)
    };
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, run.trace_file(&env)) {
            eprintln!("perfbench: cannot write {path:?}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("perfbench: trace written to {}", path.display());
    }
    let log = out_dir.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| writeln!(f, "{{\"env\":{env},\"result\":{line}}}"));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {log:?}: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
