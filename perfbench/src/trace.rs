//! The runner's own spans around each public call into a layer.
//!
//! Spans live in memory and are written out once, when the run ends.
//! A runner span is named after the layer it calls into
//! (`core.attribution`, `monitor.daemon`, ...). Some public calls cover
//! more than one layer; for those, the program's own telemetry phases
//! that completed inside the span (`simnet_generate`,
//! `coupled_belief_stage`, ...) move their share of the span's time to
//! the layer they belong to. The rest stays with the span's own layer,
//! so the layer self times of an iteration plus `bench.uncovered` (the
//! iteration time outside every runner span) add up to its wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Program phase → the layer whose self time it is.
const PHASE_LAYERS: &[(&str, &str)] = &[
    ("coupled_belief_stage", "monitor.belief"),
    ("coupled_generate_stage", "simnet.generate"),
    ("simnet_generate", "simnet.generate"),
    ("simnet_absorb_sort", "simnet.absorb_sort"),
    ("simnet_spill_merge", "weblog.spill_merge"),
];

/// Program phases that run inside another phase when both occur in one
/// span: `(inner, outer)`.
const PHASE_PARENTS: &[(&str, &str)] = &[
    ("simnet_generate", "coupled_generate_stage"),
    ("simnet_absorb_sort", "coupled_generate_stage"),
];

/// One closed runner span.
pub struct SpanRec {
    pub name: &'static str,
    pub iter: u32,
    /// Index of the enclosing span (the iteration span for layer calls).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Program phases `(name, ms)` that completed inside the span.
    pub phases: Vec<(String, f64)>,
}

impl SpanRec {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Where one traced iteration's wall time went.
pub struct Breakdown {
    pub iter: u32,
    pub wall_s: f64,
    /// Layer self times in seconds, keyed by layer name.
    pub layers: BTreeMap<&'static str, f64>,
    pub uncovered_s: f64,
}

/// In-memory span recorder; inert unless enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open_iter: Option<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { enabled: false, epoch, spans: Vec::new(), open_iter: None }
    }

    /// Turn recording on or off, together with the program's own
    /// telemetry (whose phases split calls the runner cannot split).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        botscope::obs::global().set_enabled(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open the root span of iteration `iter`.
    pub fn begin_iteration(&mut self, iter: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: "bench.iteration",
            iter,
            parent: None,
            start_ns,
            end_ns: start_ns,
            phases: Vec::new(),
        });
        self.open_iter = Some(self.spans.len() - 1);
    }

    /// Close the open iteration span and return its breakdown.
    pub fn end_iteration(&mut self) -> Option<Breakdown> {
        let idx = self.open_iter.take()?;
        self.spans[idx].end_ns = self.now_ns();
        Some(self.breakdown(idx))
    }

    /// Run `f` inside a span named after the layer it calls into.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let obs = botscope::obs::global();
        let mark = obs.snapshot_phases().len();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let phases = obs.snapshot_phases().split_off(mark);
        let parent = self.open_iter.expect("layer spans run inside an iteration");
        let iter = self.spans[parent].iter;
        self.spans.push(SpanRec { name, iter, parent: Some(parent), start_ns, end_ns, phases });
        out
    }

    fn breakdown(&self, iter_idx: usize) -> Breakdown {
        let wall_s = self.spans[iter_idx].secs();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut covered = 0.0;
        for span in self.spans.iter().filter(|s| s.parent == Some(iter_idx)) {
            covered += span.secs();
            for (layer, secs) in span_self_times(span) {
                *layers.entry(layer).or_default() += secs;
            }
        }
        Breakdown { iter: self.spans[iter_idx].iter, wall_s, layers, uncovered_s: wall_s - covered }
    }

    /// Every span as JSON lines, for the trace file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let phases: Vec<String> =
                s.phases.iter().map(|(n, ms)| format!("[\"{n}\",{ms}]")).collect();
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"iter\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"phases\":[{}]}}",
                s.name,
                s.iter,
                s.start_ns,
                s.end_ns,
                phases.join(",")
            );
        }
        out
    }
}

/// Split one runner span into layer self times: each program phase's
/// time minus its nested phases goes to the phase's layer; the rest of
/// the span goes to the span's own layer.
fn span_self_times(span: &SpanRec) -> Vec<(&'static str, f64)> {
    let has = |name: &str| span.phases.iter().any(|(n, _)| n == name);
    let parent_of = |name: &str| {
        PHASE_PARENTS.iter().find(|(inner, outer)| *inner == name && has(outer)).map(|p| p.1)
    };
    let mut out = Vec::new();
    let mut top_level = 0.0;
    for (name, ms) in &span.phases {
        let Some(&(_, layer)) = PHASE_LAYERS.iter().find(|(p, _)| p == name) else {
            continue;
        };
        let nested: f64 = span
            .phases
            .iter()
            .filter(|(inner, _)| parent_of(inner) == Some(name.as_str()))
            .map(|(_, ms)| ms)
            .sum();
        out.push((layer, (ms - nested) / 1e3));
        if parent_of(name).is_none() {
            top_level += ms / 1e3;
        }
    }
    out.push((span.name, span.secs() - top_level));
    out
}
