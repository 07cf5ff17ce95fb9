//! Attribution of one request's virtual time to the stack's layers.
//!
//! The traced run installs the telemetry recorder and reads back the spans
//! the stack records (`gateway:request`, `invoke`, `executor:call`,
//! `xpucall`, `runc:cfork`, `state-commit`, ...) plus the spans the
//! benchmark records itself around its calls into each layer. A layer's
//! self time is a span's duration minus the part of it its child spans
//! cover; summed per layer along one request's span tree, self times add up
//! to the request's latency, and whatever no layer's span covers is the
//! unattributed remainder.

use std::collections::{BTreeMap, HashMap};

use telemetry::recorder::{EventKind, Recorder};
use telemetry::SpanContext;

/// The layers virtual time is attributed to, in report order. The engine
/// (`hetsim`) and `telemetry` take no virtual time of their own, and
/// tenancy's token buckets and fair queues run inside the sched extent, so
/// their time is counted as `sched`.
pub const LAYERS: [&str; 6] = ["xpu-shim", "vsandbox", "core", "sched", "rack", "state"];

/// Which layer a span belongs to, by the name the stack gives it.
pub fn layer_of(name: &str) -> Option<&'static str> {
    const PREFIXES: [(&str, &str); 16] = [
        ("gateway:", "core"),
        ("invoke ", "core"),
        ("executor:", "core"),
        ("startup:", "core"),
        ("chain:", "core"),
        ("recover-pu", "core"),
        ("core:", "core"),
        ("runc:", "vsandbox"),
        ("runf:", "vsandbox"),
        ("rung:", "vsandbox"),
        ("oci:", "vsandbox"),
        ("xpucall", "xpu-shim"),
        ("sync-immediate", "xpu-shim"),
        ("xspawn", "xpu-shim"),
        ("reclaim-pu", "xpu-shim"),
        ("state", "state"),
    ];
    if name.ends_with(" exec") {
        // DAG stage execution (`{stage} exec`), recorded by the chain runner.
        return Some("core");
    }
    PREFIXES.iter().find(|(p, _)| name.starts_with(p)).map(|&(_, layer)| layer)
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name as recorded.
    pub name: String,
    /// Virtual start, ns.
    pub start: u64,
    /// Virtual end, ns.
    pub end: u64,
    children: Vec<usize>,
}

/// Every closed span of a recorder, indexed for tree walks.
#[derive(Debug, Default)]
pub struct SpanForest {
    spans: Vec<Span>,
    by_id: HashMap<u64, usize>,
    /// Span indices by name, in recording (start-time) order.
    by_name: HashMap<String, Vec<usize>>,
    /// Startup spans (`startup:{kind} {func}->pu{n}`) by function.
    startups: HashMap<String, Vec<usize>>,
}

impl SpanForest {
    /// Collects the recorder's spans (complete spans and begin/end pairs).
    pub fn collect(recorder: &Recorder) -> SpanForest {
        let mut f = SpanForest::default();
        let mut parents: Vec<Option<u64>> = Vec::new();
        for ev in recorder.events() {
            match ev.kind {
                EventKind::Span { ctx, parent, dur_ns } => {
                    f.add(ctx, ev.name, ev.t_ns, ev.t_ns + dur_ns);
                    parents.push(parent.map(|p| p.0));
                }
                EventKind::Begin { ctx, parent } => {
                    f.add(ctx, ev.name, ev.t_ns, u64::MAX);
                    parents.push(parent.map(|p| p.0));
                }
                EventKind::End { ctx } => {
                    if let Some(&i) = f.by_id.get(&ctx.span.0) {
                        f.spans[i].end = ev.t_ns;
                    }
                }
                EventKind::Instant { .. } => {}
            }
        }
        for (i, parent) in parents.into_iter().enumerate() {
            if let Some(p) = parent.and_then(|p| f.by_id.get(&p).copied()) {
                f.spans[p].children.push(i);
            }
        }
        f
    }

    fn add(&mut self, ctx: SpanContext, name: String, start: u64, end: u64) {
        let i = self.spans.len();
        self.by_id.insert(ctx.span.0, i);
        if let Some(func) = name
            .strip_prefix("startup:")
            .and_then(|rest| rest.split_once(' '))
            .and_then(|(_, rest)| rest.rsplit_once("->"))
            .map(|(func, _)| func)
        {
            self.startups.entry(func.to_owned()).or_default().push(i);
        }
        self.by_name.entry(name.clone()).or_default().push(i);
        self.spans.push(Span { name, start, end, children: Vec::new() });
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// A closed span named `name` that ended exactly at `end`.
    pub fn find(&self, name: &str, end: u64) -> Option<usize> {
        self.by_name.get(name)?.iter().copied().find(|&i| self.spans[i].end == end)
    }

    /// The spans that served one request of `func` inside `[from, to]`:
    /// the latest-ending `invoke {func}` span in that window and, for a
    /// cold start, the `startup:` span that ended where the invoke began.
    pub fn service(&self, func: &str, from: u64, to: u64) -> Vec<usize> {
        let Some(list) = self.by_name.get(&format!("invoke {func}")) else {
            return Vec::new();
        };
        let upto = list.partition_point(|&i| self.spans[i].start <= to);
        let invoke = list[..upto]
            .iter()
            .rev()
            .take_while(|&&i| self.spans[i].start >= from)
            .copied()
            .filter(|&i| self.spans[i].end <= to)
            .max_by_key(|&i| self.spans[i].end);
        let Some(inv) = invoke else {
            return Vec::new();
        };
        let begin = self.spans[inv].start;
        let startup = self.startups.get(func).and_then(|l| {
            let upto = l.partition_point(|&i| self.spans[i].start <= begin);
            l[..upto]
                .iter()
                .rev()
                .copied()
                .find(|&i| self.spans[i].end == begin && self.spans[i].start >= from)
        });
        startup.into_iter().chain([inv]).collect()
    }

    /// Durations of the closed spans whose name satisfies `pred`, ns.
    pub fn durations_where(&self, pred: impl Fn(&str) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.end != u64::MAX && pred(&s.name))
            .map(|s| s.end - s.start)
            .collect()
    }

    /// A span by index.
    pub fn span(&self, i: usize) -> &Span {
        &self.spans[i]
    }

    /// Adds the self times along the blocking path of span `i` to `out`
    /// by layer; time in spans of no known layer goes to `unattributed`.
    ///
    /// Walking back from the span's end, the child that ended last is on
    /// the blocking path; children that overlap it ran in parallel and are
    /// skipped; gaps between blocking children are the span's own time. So
    /// the self times added always sum to the span's duration.
    pub fn attribute(&self, i: usize, out: &mut Path) {
        let s = &self.spans[i];
        let end = if s.end == u64::MAX { s.start } else { s.end };
        let mut kids: Vec<usize> = s
            .children
            .iter()
            .copied()
            .filter(|&c| {
                let k = &self.spans[c];
                k.end != u64::MAX && k.start >= s.start && k.end <= end
            })
            .collect();
        kids.sort_by_key(|&c| std::cmp::Reverse((self.spans[c].end, self.spans[c].start)));
        let mut cursor = end;
        let mut own = 0;
        for c in kids {
            let k = &self.spans[c];
            if k.end > cursor {
                continue;
            }
            own += cursor - k.end;
            self.attribute(c, out);
            cursor = k.start;
        }
        own += cursor - s.start;
        out.add(layer_of(&s.name), own);
    }
}

/// Virtual time of one request split by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Path {
    /// Self time per layer, ns.
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time in spans of no known layer, ns.
    pub unattributed: u64,
}

impl Path {
    /// Adds `ns` to `layer` (or to the unattributed remainder).
    pub fn add(&mut self, layer: Option<&'static str>, ns: u64) {
        match layer {
            Some(l) => *self.layers.entry(l).or_default() += ns,
            None => self.unattributed += ns,
        }
    }

    /// Sum of attributed self times.
    pub fn attributed(&self) -> u64 {
        self.layers.values().sum()
    }
}

/// A request's path as the benchmark sees it from outside: when it was
/// due, the calls it spent time in before the stack took it over, and the
/// stack's own span for the serving part (if any).
#[derive(Debug, Clone)]
pub struct Observed {
    /// End-to-end virtual latency, ns (due to completion).
    pub total: u64,
    /// Per-layer self times measured around the benchmark's calls, ns.
    pub outside: Vec<(&'static str, u64)>,
    /// A layer whose extent the benchmark sees from outside, as `(layer,
    /// start ns, end ns)` — e.g. sched, from submit to reply. Its self
    /// time is that extent minus the service spans inside it.
    pub enclosing: Option<(&'static str, u64, u64)>,
    /// The function whose service spans ([`SpanForest::service`]) lie
    /// inside the enclosing extent.
    pub served_by: Option<String>,
    /// The benchmark's own root span for the request, when it set one as
    /// the ambient trace context (closed-loop clients do).
    pub root: Option<(String, u64)>,
}

/// Attributes one observed request against the recorded spans. Time the
/// outside calls and the located spans do not explain is unattributed.
pub fn attribute(forest: &SpanForest, obs: &Observed) -> Path {
    let mut path = Path::default();
    for &(layer, ns) in &obs.outside {
        path.add(Some(layer), ns);
    }
    if let Some((layer, start, end)) = obs.enclosing {
        let mut inner = 0;
        if let Some(func) = &obs.served_by {
            for i in forest.service(func, start, end) {
                let s = forest.span(i);
                inner += s.end - s.start;
                forest.attribute(i, &mut path);
            }
        }
        path.add(Some(layer), (end - start).saturating_sub(inner));
    }
    if let Some((name, end)) = &obs.root {
        if let Some(i) = forest.find(name, *end) {
            forest.attribute(i, &mut path);
        }
    }
    let explained = path.attributed() + path.unattributed;
    path.unattributed += obs.total.saturating_sub(explained);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let rec = Recorder::new();
        rec.complete_span(0, 0, 50, "startup:cfork f->pu1", None);
        let inv = rec.complete_span(0, 50, 900, "invoke f", None);
        rec.complete_span(0, 200, 300, "xpucall", Some(inv));
        rec.complete_span(0, 250, 400, "state-pull r", Some(inv));
        rec.complete_span(0, 850, 890, "mystery", Some(inv));
        rec.complete_span(0, 960, 990, "invoke f", None);
        let forest = SpanForest::collect(&rec);
        let obs = Observed {
            total: 1300,
            outside: vec![("rack", 100)],
            enclosing: Some(("sched", 0, 950)),
            served_by: Some("f".into()),
            root: None,
        };
        let path = attribute(&forest, &obs);
        // Service window [0, 950]: the later invoke (960..990) is outside it.
        assert_eq!(path.layers["sched"], 950 - 900);
        // The state pull ends last among the overlapping pair, so it is on
        // the blocking path and the parallel xpucall is not.
        assert_eq!(path.layers["state"], 150);
        assert!(!path.layers.contains_key("xpu-shim"));
        assert_eq!(path.layers["core"], 50 + 850 - 150 - 40);
        assert_eq!(path.unattributed, 40 + 250);
        assert_eq!(path.layers["rack"], 100);
        assert_eq!(path.attributed() + path.unattributed, 1300);
    }

    #[test]
    fn names_map_to_layers() {
        assert_eq!(layer_of("runc:cfork sb-3"), Some("vsandbox"));
        assert_eq!(layer_of("state-commit shuffle"), Some("state"));
        assert_eq!(layer_of("alexa-door exec"), Some("core"));
        assert_eq!(layer_of("xpucall"), Some("xpu-shim"));
        assert_eq!(layer_of("dispatch"), None);
    }
}
