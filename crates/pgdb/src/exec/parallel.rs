//! Morsel-driven parallel execution scaffolding (DESIGN §12).
//!
//! A *morsel* is a fixed-size contiguous range of rows (~64K). Operators
//! that parallelize split their input into morsels, a bounded pool of
//! scoped `std::thread` workers claims morsels off a shared atomic
//! cursor (work-stealing by construction: fast workers simply claim
//! more), and per-morsel results are merged back **in morsel order** —
//! that canonical merge order is what keeps parallel output bit-identical
//! to the serial path, row order, group order, and error identity
//! included.
//!
//! The pool is created per operator invocation rather than kept warm:
//! scoped threads let workers borrow the frame directly (no `Arc`
//! plumbing, no lifetime laundering), and thread spawn cost is noise
//! against the ≥64K-row inputs that take this path at all.

use crate::engine::DbError;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Target rows per morsel. 64K rows keeps a morsel's working set (a
/// handful of 8-byte columns) around L2 size while amortizing claim
/// overhead to nothing.
pub const MORSEL_ROWS: usize = 65_536;

/// Session default worker count: `HQ_EXEC_THREADS` when set to a
/// positive integer (read uncached so tests can flip it per call),
/// otherwise the machine's available parallelism. `1` is the serial
/// path — no pool, no morsel splitting.
pub fn default_exec_threads() -> usize {
    if let Ok(v) = std::env::var("HQ_EXEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Does a `rows`-row operator input warrant the pool at all? Inputs of
/// one morsel or less always run serially — identical to `threads = 1`.
pub(crate) fn should_parallelize(rows: usize, threads: usize) -> bool {
    threads > 1 && rows > MORSEL_ROWS
}

/// Split `[0, n)` into MORSEL_ROWS-sized contiguous ranges.
pub(crate) fn morsel_ranges(n: usize) -> Vec<Range<usize>> {
    (0..n).step_by(MORSEL_ROWS).map(|o| o..(o + MORSEL_ROWS).min(n)).collect()
}

/// Split `[0, n)` into at most `parts` near-even contiguous ranges —
/// used where the natural work unit is not a row (group chunks in
/// aggregate phase 2, output-row chunks in gathers).
pub(crate) fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

fn morsels_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::global_registry().counter("pgdb_morsels_total"))
}

fn workers_gauge() -> &'static Arc<obs::Gauge> {
    static G: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| obs::global_registry().gauge("pgdb_exec_workers"))
}

/// Per-stage morsel-size histogram (`pgdb_morsel_rows_<stage>`): how
/// many rows each morsel of that stage covered.
fn stage_histogram(stage: &str) -> Arc<obs::Histogram> {
    obs::global_registry().histogram_with(
        &format!("pgdb_morsel_rows_{stage}"),
        &[256.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0],
    )
}

/// Run `f` over morsel-sized ranges of `[0, n)` on up to `threads`
/// workers; results come back in morsel order.
pub(crate) fn run_morsels<T, F>(
    n: usize,
    threads: usize,
    stage: &str,
    f: F,
) -> Result<Vec<T>, DbError>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T, DbError> + Sync,
{
    run_ranges(morsel_ranges(n), threads, stage, f)
}

/// The morsel pool. Workers claim ranges off an atomic cursor; results
/// are merged back in range order, so the output (and, on failure, the
/// reported error — see below) is independent of scheduling.
///
/// Error canonicalization: ranges are claimed in index order, so every
/// range with an index below the lowest failing one was fully processed
/// before any worker observed the failure flag. Returning the
/// lowest-indexed error therefore reports *the same* error the serial
/// loop would have stopped at.
pub(crate) fn run_ranges<T, F>(
    ranges: Vec<Range<usize>>,
    threads: usize,
    stage: &str,
    f: F,
) -> Result<Vec<T>, DbError>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T, DbError> + Sync,
{
    if ranges.is_empty() {
        return Ok(Vec::new());
    }
    morsels_counter().add(ranges.len() as u64);
    let hist = stage_histogram(stage);
    for r in &ranges {
        hist.observe_secs(r.len() as f64);
    }
    let workers = threads.min(ranges.len());
    if workers <= 1 {
        return ranges.into_iter().enumerate().map(|(i, r)| f(i, r)).collect();
    }
    workers_gauge().set(workers as i64);
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, DbError>>>> =
        ranges.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= ranges.len() || failed.load(Ordering::Relaxed) {
                    break;
                }
                let out = f(i, ranges[i].clone());
                if out.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Unreachable while the claim order argument above holds;
            // fail loudly rather than return a truncated result.
            None => return Err(DbError::exec("morsel abandoned without a preceding error")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_tile_the_input_exactly() {
        let rs = morsel_ranges(MORSEL_ROWS * 2 + 5);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0], 0..MORSEL_ROWS);
        assert_eq!(rs[2], MORSEL_ROWS * 2..MORSEL_ROWS * 2 + 5);
        assert!(morsel_ranges(0).is_empty());
    }

    #[test]
    fn even_ranges_cover_without_gaps() {
        let rs = even_ranges(10, 4);
        assert_eq!(rs, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(even_ranges(2, 8), vec![0..1, 1..2]);
        assert!(even_ranges(0, 4).is_empty());
    }

    #[test]
    fn results_come_back_in_morsel_order_regardless_of_workers() {
        let n = MORSEL_ROWS * 5 + 17;
        for threads in [1, 2, 4, 8] {
            let sums = run_morsels(n, threads, "test", |_, r| Ok(r.len())).unwrap();
            assert_eq!(sums.iter().sum::<usize>(), n);
            let serial = run_morsels(n, 1, "test", |_, r| Ok(r.len())).unwrap();
            assert_eq!(sums, serial, "threads={threads}");
        }
    }

    #[test]
    fn lowest_morsel_error_wins() {
        let n = MORSEL_ROWS * 6;
        let got = run_morsels(n, 4, "test", |i, _| {
            if i >= 2 {
                Err(DbError::exec(format!("boom at morsel {i}")))
            } else {
                Ok(i)
            }
        });
        let msg = format!("{:?}", got.unwrap_err());
        assert!(msg.contains("boom at morsel 2"), "{msg}");
    }
}
