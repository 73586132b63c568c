//! The untraced run of one workload: set-up, warm-up, the measured
//! window, and the end-to-end metrics by name.

use crate::drive::{self, WindowResult};
use crate::gen::{self, Class, Sizes};
use crate::stats::{median, median_rate, tail};
use crate::workload::{self, Ingest, Setup, Workload};
use pgdb::{Db, DurabilityOptions, FsyncPolicy};
use qlang::value::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one run does; the same on every commit.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Untimed warm-up before it: caches fill, lazy set-up finishes.
    pub warmup_s: u64,
    pub sizes: Sizes,
}

impl RunSpec {
    pub fn full(workload: Workload, seed: u64, seconds: u64) -> RunSpec {
        RunSpec {
            workload,
            seed,
            seconds,
            warmup_s: 3,
            sizes: Sizes::FULL,
        }
    }

    /// 3 s windows over small tables, for the crate's own tests.
    pub fn quick(workload: Workload, seed: u64) -> RunSpec {
        RunSpec {
            workload,
            seed,
            seconds: 3,
            warmup_s: 1,
            sizes: Sizes::QUICK,
        }
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    pub fn warmup(&self) -> Duration {
        Duration::from_secs(self.warmup_s)
    }

    /// Paced batches the run can send: warm-up plus window.
    pub fn paced_batches(&self) -> usize {
        ((self.warmup_s + self.seconds) * workload::PACED_BATCHES_PER_S) as usize
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Result of one run, as the driver's contract wants it.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failure texts and diagnostics for a human reader.
    pub notes: Vec<String>,
    /// Why the generator does not vouch for this run, if it does not.
    pub invalid: Option<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one line the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Set up once, timed.
pub fn timed_setup(spec: &RunSpec) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let setup = workload::setup(spec.workload, spec.seed, spec.sizes, spec.paced_batches())?;
    Ok((setup, t0.elapsed().as_secs_f64()))
}

/// Names, units, direction and regression bound of every end-to-end
/// metric; each is reported by every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("stmts_per_s", "1/s", "higher", 0.25),
    ("stmt_p50_ms", "ms", "lower", 0.25),
    ("point_p50_ms", "ms", "lower", 0.25),
    ("agg_p50_ms", "ms", "lower", 0.25),
    ("window_p50_ms", "ms", "lower", 0.25),
    ("asof_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Completions per block of `stmts_per_s`: five passes of a client's
/// class deck, so every block holds about the same mix.
pub const RATE_BLOCK: usize = 50;

/// The end-to-end metrics of one window. `setup_s` is the median of
/// `setup_runs`.
pub fn end_to_end(win: &WindowResult, setup_runs: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let all = win.all_latencies();
    let mut out = vec![
        metric("setup_s", median(setup_runs), "s"),
        metric(
            "stmts_per_s",
            median_rate(&win.completions(), RATE_BLOCK, win.window_s),
            "1/s",
        ),
        metric("stmt_p50_ms", median(&all), "ms"),
    ];
    for class in Class::ALL {
        out.push(metric(
            class.p50_metric(),
            median(&win.latencies(class)),
            "ms",
        ));
    }
    out.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
    out
}

/// The generator's own diagnostics of one window (`client.*`).
pub fn client_metrics(win: &WindowResult) -> Vec<Metric> {
    let all = win.all_latencies();
    let (pct, stmt_tail) = tail(&all);
    let (_, asof_tail) = tail(&win.latencies(Class::Asof));
    let (ack_tail, late_share, lag) = match &win.writer {
        Some(w) => (
            tail(&w.ack_ms).1,
            w.late as f64 / w.attempted.max(1) as f64,
            w.lag_ms_max,
        ),
        None => (0.0, 0.0, 0.0),
    };
    vec![
        metric("client.stmt_tail_pct", pct, "%"),
        metric("client.stmt_tail_ms", stmt_tail, "ms"),
        metric("client.asof_tail_ms", asof_tail, "ms"),
        metric("client.ingest_ack_tail_ms", ack_tail, "ms"),
        metric("client.late_share", late_share, "ratio"),
        metric("client.generator_lag_ms_max", lag, "ms"),
        metric(
            "client.generator_cpu_share",
            win.generator_cpu_share(),
            "ratio",
        ),
        metric("client.samples", all.len() as f64, "count"),
    ]
}

/// Attempts, failures and failure texts of one window.
pub fn tally(win: &WindowResult, out: &mut RunOutput) {
    for r in &win.readers {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.notes
            .extend(r.failures.iter().map(|f| format!("FAILED {f}")));
    }
    if let Some(w) = &win.writer {
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.notes
            .extend(w.failures.iter().map(|f| format!("FAILED {f}")));
        if w.late > 0 {
            out.notes.push(format!(
                "FAILED {} paced batches acknowledged over 1 s after due",
                w.late
            ));
        }
    }
    out.invalid = win.invalid();
}

/// One untraced run: warm-up, window, end-to-end metrics, and on
/// `ingest_tail` the crash-recovery check. `more_setups` times further
/// set-ups of the same spec in other processes; it is called twice,
/// before this run's own set-up and after its window, so that `setup_s`
/// is a median over set-ups spread across the run.
pub fn untraced(
    spec: &RunSpec,
    more_setups: &mut dyn FnMut() -> Result<Vec<f64>, String>,
) -> Result<RunOutput, String> {
    let mut setups = more_setups()?;
    let (setup, setup_s) = timed_setup(spec)?;
    setups.push(setup_s);
    let win = drive::window(&setup, spec.warmup(), spec.window());
    let mut out = RunOutput::default();
    tally(&win, &mut out);
    let rss = drive::peak_rss_mb();
    setups.extend(more_setups()?);
    out.metrics = end_to_end(&win, &setups, rss);
    out.notes.push(format!(
        "{} statements in the window ({} point, {} agg, {} window, {} asof); oracle compared {} at set-up",
        win.all_latencies().len(),
        win.latencies(Class::Point).len(),
        win.latencies(Class::Agg).len(),
        win.latencies(Class::Window).len(),
        win.latencies(Class::Asof).len(),
        setup.oracle_checked,
    ));
    if let (Some(ingest), Some(writer)) = (&setup.ingest, &win.writer) {
        let rec = recover(ingest, writer.acked_batches, writer.sent_batches);
        out.attempted += rec.attempted;
        out.failed += rec.failures.len() as u64;
        out.notes
            .extend(rec.failures.iter().map(|f| format!("FAILED {f}")));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// ingest_tail: crash images and recovery
// ---------------------------------------------------------------------------

/// Copies of the crashed data directory reopened per run.
pub const RECOVERY_COPIES: usize = 5;

pub struct Recovery {
    /// Median wall time of reopening one copy.
    pub recovery_s: f64,
    /// Rows a reopening brought back.
    pub recovered_rows: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), &dst)?;
        }
    }
    Ok(())
}

/// Bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// The engine is still open and was never shut down: its data directory
/// as it stands is what a kill would leave. Copy it, reopen each copy,
/// and require acked rows ⊆ recovered rows ⊆ sent rows, the recovered
/// rows being the first rows of the tick stream in arrival order.
pub fn recover(ingest: &Ingest, acked_batches: usize, sent_batches: usize) -> Recovery {
    let (acked, sent) = (
        acked_batches * gen::BATCH_ROWS,
        sent_batches * gen::BATCH_ROWS,
    );
    let Some(Value::Longs(sizes)) = ingest.ticks.column("Size") else {
        panic!("TAQ generator changed its column types")
    };
    let mut times = Vec::new();
    let mut failures = Vec::new();
    let mut recovered_rows = 0;
    for n in 0..RECOVERY_COPIES {
        let copy = ingest.data_dir.with_extension(format!("crash{n}"));
        let _ = std::fs::remove_dir_all(&copy);
        if let Err(e) = copy_dir(&ingest.data_dir, &copy) {
            failures.push(format!("copying the data directory: {e}"));
            continue;
        }
        let t0 = Instant::now();
        let reopened = Db::open(&DurabilityOptions {
            data_dir: copy.clone(),
            fsync: FsyncPolicy::Group(workload::FSYNC_WINDOW),
            checkpoint_every: 0,
        });
        times.push(t0.elapsed().as_secs_f64());
        match reopened {
            Err(e) => failures.push(format!("reopening crash image {n}: {e}")),
            Ok(db) => {
                let trades = db.get_table_snapshot("trades").map(|t| t.batch);
                let rows = trades.as_ref().map_or(0, |b| b.rows());
                recovered_rows = rows as u64;
                if rows < acked || rows > sent {
                    failures.push(format!(
                        "crash image {n} recovered {rows} rows; {acked} were acknowledged, {sent} sent"
                    ));
                } else if let Some(b) = trades {
                    let col = b.column_index("Size").expect("trades has Size");
                    let same =
                        (0..rows).all(|i| b.columns[col].cell_at(i) == pgdb::Cell::Int(sizes[i]));
                    if !same {
                        failures.push(format!(
                            "crash image {n} recovered rows that were never sent"
                        ));
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    Recovery {
        recovery_s: median(&times),
        recovered_rows,
        attempted: RECOVERY_COPIES as u64,
        failures,
    }
}
