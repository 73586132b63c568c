//! Per-query structured tracing: a [`QueryId`], a span per pipeline
//! [`Stage`], and a [`QueryTrace`] tying them together.
//!
//! The span model is deliberately flat-plus-children rather than a
//! general tree: a query passes through six well-known stages, and the
//! only nesting that occurs in practice is per-statement execution
//! under the `execute` span (one translated Q expression can expand to
//! several SQL statements). Events ([`SpanEvent`]) capture the
//! discrete facts — cache hit/miss, wire recovery, XC state
//! transitions — that a duration alone cannot.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-unique query identifier, monotonically assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{:06}", self.0)
    }
}

/// Allocate the next [`QueryId`].
pub fn next_query_id() -> QueryId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    QueryId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The six pipeline stages every traced query passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Q text → AST.
    Parse,
    /// AST → bound/algebrized form (XTRA).
    Algebrize,
    /// Rule-based transformation passes.
    Optimize,
    /// Algebra → PG SQL text.
    Serialize,
    /// SQL shipped to the backend, rows returned.
    Execute,
    /// Backend rows pivoted back into Q column values.
    Pivot,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::Algebrize,
        Stage::Optimize,
        Stage::Serialize,
        Stage::Execute,
        Stage::Pivot,
    ];

    /// Position within [`Stage::ALL`] (pipeline order), for indexing
    /// per-stage handle arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable lower-case label used in metric names and renders.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Algebrize => "algebrize",
            Stage::Optimize => "optimize",
            Stage::Serialize => "serialize",
            Stage::Execute => "execute",
            Stage::Pivot => "pivot",
        }
    }
}

/// A discrete fact attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEvent {
    /// Translation served from the keyed cache.
    CacheHit,
    /// Translation had to run the full pipeline.
    CacheMiss,
    /// The wire layer reconnected mid-query; `reconnects` is how many
    /// times it did so while this span was open.
    Recovering { reconnects: u64 },
    /// Free-form annotation.
    Note(String),
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanEvent::CacheHit => write!(f, "cache-hit"),
            SpanEvent::CacheMiss => write!(f, "cache-miss"),
            SpanEvent::Recovering { reconnects } => {
                write!(f, "recovering(reconnects={reconnects})")
            }
            SpanEvent::Note(s) => write!(f, "note({s})"),
        }
    }
}

/// One timed stage of a query, with optional per-statement children.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Stage label (`Stage::name()` for pipeline spans, free-form for
    /// children such as `"statement"`).
    pub stage: &'static str,
    pub duration: Duration,
    /// Rows produced (result rows for execute/pivot spans).
    pub rows: u64,
    /// Bytes processed (SQL text bytes for execute spans).
    pub bytes: u64,
    pub events: Vec<SpanEvent>,
    pub children: Vec<Span>,
}

impl Span {
    /// A span for a pipeline stage.
    pub fn stage(stage: Stage, duration: Duration) -> Self {
        Span {
            stage: stage.name(),
            duration,
            ..Span::default()
        }
    }

    /// True if this span or any descendant carries an event matching
    /// `pred`.
    pub fn has_event(&self, pred: &dyn Fn(&SpanEvent) -> bool) -> bool {
        self.events.iter().any(pred)
            || self.children.iter().any(|c| c.has_event(pred))
    }
}

/// The full trace of one query through the pipeline.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub id: QueryId,
    /// The Q text as received.
    pub q_text: String,
    /// Generated SQL, one entry per emitted statement.
    pub sql: Vec<String>,
    /// Top-level spans, in pipeline order.
    pub spans: Vec<Span>,
    /// Wall-clock total for the query.
    pub total: Duration,
    /// Whether translation was served from the cache.
    pub cache_hit: bool,
}

impl QueryTrace {
    /// An empty trace for `q_text` with a fresh id.
    pub fn begin(q_text: &str) -> Self {
        QueryTrace {
            id: next_query_id(),
            q_text: q_text.to_string(),
            sql: Vec::new(),
            spans: Vec::new(),
            total: Duration::ZERO,
            cache_hit: false,
        }
    }

    /// The span for `stage`, if recorded.
    pub fn span(&self, stage: Stage) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == stage.name())
    }

    /// Top-level stage labels in recorded order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.spans.iter().map(|s| s.stage).collect()
    }

    /// True if every one of the six pipeline stages has a span.
    pub fn covers_all_stages(&self) -> bool {
        Stage::ALL.iter().all(|s| self.span(*s).is_some())
    }

    /// True if any span in the trace carries an event matching `pred`.
    pub fn has_event(&self, pred: impl Fn(&SpanEvent) -> bool) -> bool {
        self.spans.iter().any(|s| s.has_event(&pred))
    }

    /// Human-readable multi-line render of the span tree.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {:?} total={:?} cache_hit={}\n",
            self.id, self.q_text, self.total, self.cache_hit
        );
        for span in &self.spans {
            render_span(&mut out, span, 1);
        }
        out
    }
}

fn render_span(out: &mut String, span: &Span, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{} {:?}", span.stage, span.duration));
    if span.rows > 0 {
        out.push_str(&format!(" rows={}", span.rows));
    }
    if span.bytes > 0 {
        out.push_str(&format!(" bytes={}", span.bytes));
    }
    for e in &span.events {
        out.push_str(&format!(" [{e}]"));
    }
    out.push('\n');
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_and_ordered() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(b > a);
        assert_eq!(format!("{}", QueryId(7)), "q000007");
    }

    #[test]
    fn covers_all_stages_requires_all_six() {
        let mut t = QueryTrace::begin("1+1");
        for stage in Stage::ALL.iter().take(5) {
            t.spans.push(Span::stage(*stage, Duration::from_micros(3)));
        }
        assert!(!t.covers_all_stages());
        t.spans.push(Span::stage(Stage::Pivot, Duration::from_micros(1)));
        assert!(t.covers_all_stages());
        assert_eq!(
            t.stage_names(),
            vec!["parse", "algebrize", "optimize", "serialize", "execute", "pivot"]
        );
    }

    #[test]
    fn events_are_found_in_children() {
        let mut t = QueryTrace::begin("select from t");
        let mut exec = Span::stage(Stage::Execute, Duration::from_millis(2));
        exec.children.push(Span {
            stage: "statement",
            events: vec![SpanEvent::Recovering { reconnects: 1 }],
            ..Span::default()
        });
        t.spans.push(exec);
        assert!(t.has_event(|e| matches!(e, SpanEvent::Recovering { .. })));
        assert!(!t.has_event(|e| matches!(e, SpanEvent::CacheHit)));
    }

    #[test]
    fn render_includes_stages_and_events() {
        let mut t = QueryTrace::begin("select from trades");
        let mut s = Span::stage(Stage::Parse, Duration::from_micros(42));
        s.events.push(SpanEvent::CacheMiss);
        t.spans.push(s);
        let r = t.render();
        assert!(r.contains("parse"), "{r}");
        assert!(r.contains("cache-miss"), "{r}");
    }
}
