//! Emit `BENCH_durability.json`: what durability costs on the ingest
//! path, and what recovery costs on restart (DESIGN §13).
//!
//!     cargo run --release --bin bench_durability
//!
//! Ingest: the same batched `INSERT` stream (1000-row VALUES lists)
//! through three engine configurations —
//!
//! * `baseline` — in-memory engine, durability compiled out of the path;
//! * `off` — WAL written, never fsynced (survives process death, not
//!   power loss);
//! * `group_5ms` — group commit: the first commit to find its record
//!   unsynced leads one fsync that covers every commit appended before
//!   it (the 5 ms is the spelling's, not a wait; `HQ_FSYNC=always`
//!   parses to this same policy).
//!
//! Linearity gate: an INSERT must cost its own rows, not the table's,
//! so for every policy the rows/s over the last 10 % of the rows must
//! be at least half the rows/s over the first 10 %. The binary writes
//! the JSON, then exits non-zero if any policy falls short.
//!
//! Recovery: the `off` run leaves a WAL tail holding the entire ingest
//! (checkpoints disabled); reopening the engine replays it all — the
//! worst-case restart — and the wall clock is recorded.
//!
//! `BENCH_DURABILITY_ROWS` overrides the 1M default for smoke runs.

use pgdb::{Db, DurabilityOptions, FsyncPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DEFAULT_ROWS: usize = 1_000_000;
const BATCH_ROWS: usize = 1_000;

fn rows_target() -> usize {
    std::env::var("BENCH_DURABILITY_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(DEFAULT_ROWS)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hq-bench-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// What one policy's ingest took.
struct IngestEntry {
    policy: &'static str,
    seconds: f64,
    rows_per_s: f64,
    /// Rows/s over the last 10 % of the rows over rows/s over the first
    /// 10 %: about 1 when an INSERT costs its own rows.
    linearity: f64,
}

/// Least `linearity` the gate accepts.
const LINEARITY_FLOOR: f64 = 0.5;

/// Drive `rows` through batched INSERTs and time them (table creation
/// excluded), keeping each batch's end time for the linearity gate.
fn ingest(db: &Db, policy: &'static str, rows: usize) -> IngestEntry {
    let mut session = db.session();
    session.execute("CREATE TABLE t (x bigint, v float8)").expect("create");
    let t0 = Instant::now();
    let mut done = 0usize;
    // (rows done, seconds since t0) after each batch.
    let mut marks = vec![(0usize, 0f64)];
    let mut sql = String::with_capacity(BATCH_ROWS * 16);
    while done < rows {
        let n = BATCH_ROWS.min(rows - done);
        sql.clear();
        sql.push_str("INSERT INTO t VALUES ");
        for k in 0..n {
            let id = (done + k) as i64;
            if k > 0 {
                sql.push(',');
            }
            let _ = write!(sql, "({id}, {}.25)", id % 97);
        }
        session.execute(&sql).expect("insert batch");
        done += n;
        marks.push((done, t0.elapsed().as_secs_f64()));
    }
    let seconds = t0.elapsed().as_secs_f64();
    // Rate over whole batches spanning at least a tenth of the rows.
    let tenth = rows.div_ceil(10);
    let rate = |(r0, s0): (usize, f64), (r1, s1): (usize, f64)| (r1 - r0) as f64 / (s1 - s0).max(1e-9);
    let first_end = marks.iter().find(|m| m.0 >= tenth).copied().expect("ingest ran");
    let last_start = marks.iter().rev().find(|m| rows - m.0 >= tenth).copied().unwrap_or(marks[0]);
    IngestEntry {
        policy,
        seconds,
        rows_per_s: rows as f64 / seconds.max(1e-9),
        linearity: rate(last_start, (rows, seconds)) / rate(marks[0], first_end),
    }
}

fn main() {
    let rows = rows_target();
    eprintln!("ingesting {rows} rows per policy...");

    let policies: [(&'static str, Option<FsyncPolicy>); 3] = [
        ("baseline", None),
        ("off", Some(FsyncPolicy::Off)),
        ("group_5ms", Some(FsyncPolicy::Group(Duration::from_millis(5)))),
    ];

    let mut entries = Vec::new();
    let mut recovery_dir: Option<PathBuf> = None;
    for (name, policy) in policies {
        let (db, dir) = match policy {
            None => (Db::new(), None),
            Some(fsync) => {
                let dir = fresh_dir(name);
                let opts = DurabilityOptions {
                    data_dir: dir.clone(),
                    fsync,
                    // No checkpoints: the recovery leg below wants the
                    // whole ingest as a WAL tail, the worst case.
                    checkpoint_every: 0,
                };
                (Db::open(&opts).expect("open durable engine"), Some(dir))
            }
        };
        let e = ingest(&db, name, rows);
        drop(db);
        println!(
            "ingest {:<10} {:>8.3}s   {:>12.0} rows/s   last/first tenth {:.2}",
            e.policy, e.seconds, e.rows_per_s, e.linearity
        );
        entries.push(e);
        match (name, dir) {
            ("off", Some(d)) => recovery_dir = Some(d), // kept for the recovery leg
            (_, Some(d)) => {
                let _ = std::fs::remove_dir_all(&d);
            }
            _ => {}
        }
    }

    // Recovery: reopen the engine over the full WAL tail and prove the
    // data came back before timing is trusted.
    let dir = recovery_dir.expect("off policy ran");
    let t0 = Instant::now();
    let recovered = Db::open(&DurabilityOptions {
        data_dir: dir.clone(),
        fsync: FsyncPolicy::Off,
        checkpoint_every: 0,
    })
    .expect("recovery");
    let recovery = t0.elapsed();
    let got_rows = recovered
        .get_table_snapshot("t")
        .map(|t| t.batch.rows())
        .unwrap_or(0);
    assert_eq!(got_rows, rows, "recovery lost rows");
    drop(recovered);
    println!(
        "recovery: {rows}-row WAL tail replayed in {:.3}s ({:.0} rows/s)",
        recovery.as_secs_f64(),
        rows as f64 / recovery.as_secs_f64().max(1e-9),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let baseline = entries[0].rows_per_s;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"batch_rows\": {BATCH_ROWS},");
    json.push_str("  \"ingest\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"seconds\": {:.6}, \"rows_per_s\": {:.0}, \"vs_baseline\": {:.3}, \"linearity\": {:.3}}}{}",
            e.policy,
            e.seconds,
            e.rows_per_s,
            e.rows_per_s / baseline.max(1e-9),
            e.linearity,
            if i + 1 < entries.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"wal_rows\": {rows}, \"seconds\": {:.6}, \"rows_per_s\": {:.0}}}",
        recovery.as_secs_f64(),
        rows as f64 / recovery.as_secs_f64().max(1e-9),
    );
    json.push_str("}\n");
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");

    let quadratic: Vec<String> = entries
        .iter()
        .filter(|e| e.linearity < LINEARITY_FLOOR)
        .map(|e| format!("{} {:.2}", e.policy, e.linearity))
        .collect();
    if !quadratic.is_empty() {
        eprintln!(
            "linearity gate failed: the last tenth ingested at under {LINEARITY_FLOOR}x the first tenth's rows/s ({})",
            quadratic.join(", ")
        );
        std::process::exit(1);
    }
}
