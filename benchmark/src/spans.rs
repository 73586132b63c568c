//! Spans recorded by the traced run, from this crate's own call sites:
//! one span per call into a layer of the program. Spans stay in memory
//! and are written out when the workload ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One call into a layer. `parent_id == 0` means a top-level span of
/// its trace; all spans of one statement share `trace_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock. A span opened while another is
/// open is its child.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    trace_id: u64,
    open: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: 1,
            trace_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to statement `trace_id`.
    pub fn statement(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
        self.open.clear();
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> usize {
        let span_id = self.next_id;
        self.next_id += 1;
        let parent_id = self.open.last().copied().unwrap_or(0);
        self.open.push(span_id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace_id: self.trace_id,
            span_id,
            parent_id,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            rows: 0,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    /// Close the span `open` returned; gives back its duration in ns.
    pub fn close(&mut self, slot: usize, rows: u64, bytes: u64) -> u64 {
        let end_ns = self.now_ns();
        self.open.pop();
        let s = &mut self.spans[slot];
        s.end_ns = end_ns;
        s.rows = rows;
        s.bytes = bytes;
        s.duration_ns()
    }

    /// Time one call as a childless span. `f` gives back the call's
    /// result with the span's row and byte counts; `call` gives back the
    /// result and the span's duration in microseconds.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> (T, u64, u64),
    ) -> (T, f64) {
        let slot = self.open(layer, name);
        let (out, rows, bytes) = f();
        let ns = self.close(slot, rows, bytes);
        (out, ns as f64 / 1000.0)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted
/// once, children are clipped to the parent's interval, and a span
/// whose parent is not in `spans` is treated as top-level.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children
                .entry(s.parent_id)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.span_id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
            }
            (s.span_id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Median self time per `layer.name`, in microseconds, with the number
/// of spans behind each median.
pub fn self_time_table(spans: &[Span]) -> Vec<(String, f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<String, Vec<f64>> = HashMap::new();
    for s in spans {
        by_name
            .entry(format!("{}.{}", s.layer, s.name))
            .or_default()
            .push(selfs[&s.span_id] as f64 / 1000.0);
    }
    let mut rows: Vec<(String, f64, usize)> = by_name
        .into_iter()
        .map(|(name, v)| (name, crate::stats::median(&v), v.len()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// One JSON object per line, in recording order.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"trace_id\": {}, \"span_id\": {}, \"parent_id\": {}, \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"rows\": {}, \"bytes\": {}}}",
            s.trace_id,
            s.span_id,
            s.parent_id,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.rows,
            s.bytes
        )?;
    }
    w.flush()
}
