//! Spans recorded by the benchmark around each call into a layer, kept in
//! memory and written out when the run ends, plus the self-time accounting
//! the per-layer metrics are computed from.
//!
//! A span's *self time* is its duration minus the durations of its children.
//! Most children lie inside their parent's interval. Two kinds are *replays*
//! recorded after the program finished, on the same inputs: `exec.run`
//! (`Driver::run` on a thread spawned once) under `pipeline.execute_bounded`,
//! and `analysis.validate` (`Elaborated::validate`) under `analysis.interp`
//! (`analyze_with_solver`, which validates and then interprets). Subtracting a
//! replay splits the parent into the part the replayed call does and the
//! rest, and every replay is checked to produce the parent's own result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one program (source in -> checked result out).
pub const ROOT: &str = "program";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Extra label: the model name for execution spans, empty otherwise.
    pub attr: &'static str,
    pub parent: Option<usize>,
    pub program: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> i64 {
        self.end_ns.saturating_sub(self.start_ns) as i64
    }

    /// The layer a span belongs to: the crate-named prefix of its name, or
    /// `None` for the root (whose self time is the benchmark's own glue).
    pub fn layer(&self) -> Option<&'static str> {
        (self.name != ROOT).then(|| self.name.split('.').next().unwrap_or(self.name))
    }
}

/// An in-memory span recorder. When disabled every call is a no-op, so the
/// untimed product path and the traced one run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        attr: &'static str,
        parent: Option<SpanId>,
        program: u64,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            attr,
            parent,
            program,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        attr: &'static str,
        parent: SpanId,
        program: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, attr, Some(parent), program);
        let value = f();
        self.close(id);
        (value, id)
    }

    /// Record a span whose interval was measured elsewhere (a replay, or a
    /// request timed by a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        attr: &'static str,
        parent: Option<SpanId>,
        program: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            attr,
            parent,
            program,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Move another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"program\":{},\"name\":\"{}\",\"attr\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.program, s.name, s.attr, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub duration_ns: i64,
    pub self_ns: i64,
}

/// Self-time accounting of a finished trace.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Total duration per (span name, attr).
    pub by_attr: BTreeMap<(&'static str, &'static str), i64>,
    /// Self time per layer (root excluded).
    pub by_layer: BTreeMap<&'static str, i64>,
    /// Summed duration of the root spans: the programs' time.
    pub program_ns: i64,
    /// Number of root spans.
    pub programs: u64,
}

impl Accounting {
    pub fn of(spans: &[Span]) -> Self {
        let mut children = vec![0i64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        let mut acc = Accounting::default();
        for (span, child_ns) in spans.iter().zip(children) {
            let self_ns = span.duration_ns() - child_ns;
            let totals = acc.by_name.entry(span.name).or_default();
            totals.count += 1;
            totals.duration_ns += span.duration_ns();
            totals.self_ns += self_ns;
            *acc.by_attr.entry((span.name, span.attr)).or_default() += span.duration_ns();
            match span.layer() {
                Some(layer) => *acc.by_layer.entry(layer).or_default() += self_ns,
                None => {
                    acc.program_ns += span.duration_ns();
                    acc.programs += 1;
                }
            }
        }
        acc
    }

    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Share of the programs' time spent as self time of `layer`, in percent.
    pub fn layer_share_pct(&self, layer: &str) -> f64 {
        percent(
            self.by_layer.get(layer).copied().unwrap_or(0),
            self.program_ns,
        )
    }

    /// Share of the programs' time covered by the named layers, in percent.
    pub fn named_share_pct(&self) -> f64 {
        percent(self.by_layer.values().sum(), self.program_ns)
    }

    /// Milliseconds per program.
    pub fn per_program_ms(&self, ns: i64) -> f64 {
        if self.programs == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / self.programs as f64
        }
    }
}

fn percent(part: i64, whole: i64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            attr: "",
            parent,
            program: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_including_replays() {
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("parser.parse", Some(0), 0, 10),
            span("pipeline.execute_bounded", Some(0), 10, 90),
            // A replay child measured after the root closed.
            span("exec.run", Some(2), 200, 230),
        ];
        let acc = Accounting::of(&spans);
        assert_eq!(acc.program_ns, 100);
        assert_eq!(acc.get(ROOT).self_ns, 10);
        assert_eq!(acc.by_layer["pipeline"], 50);
        assert_eq!(acc.by_layer["exec"], 30);
        assert_eq!(acc.by_layer["parser"], 10);
        assert!((acc.named_share_pct() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.open(ROOT, "", None, 1);
        a.close(root);
        let mut b = Tracer::new(true, origin);
        let root_b = b.open(ROOT, "", None, 2);
        b.record("server.ack", "", Some(root_b), 2, origin, origin);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
