//! Durability chaos suite (DESIGN §13): a real pgdb server process is
//! SIGKILLed mid-commit and mid-checkpoint via deterministic fault
//! points (`HQ_DUR_CRASH`), and the reopened catalog is diffed against
//! an in-memory oracle that applied exactly the acknowledged
//! statements. Disk faults — torn tails, bit flips, a deleted
//! checkpoint segment — are injected directly against the data
//! directory, and recovery must answer each with the committed prefix
//! or a typed error; it must never panic.
//!
//! Invariant asserted throughout: **acked ⊆ recovered ⊆ sent.** A
//! statement acknowledged to the client survives the crash verbatim; a
//! statement in flight when the process died may or may not have made
//! it, but nothing else ever appears.

use hyperq::backend::Backend;
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::{RetryPolicy, WireTimeouts};
use pgdb::{Cell, DurabilityOptions, FsyncPolicy, QueryResult};
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

// ------------------------------------------------------------ plumbing

/// Locate the standalone `pgdb-server` binary next to this test's own
/// executable, first rebuilding it with the test's profile when it is
/// missing or older than the test: a stale server would answer for code
/// the test was not built from. Once per test process.
fn server_binary() -> PathBuf {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY
        .get_or_init(|| {
            let exe = std::env::current_exe().expect("current_exe");
            // target/{profile}/deps/durability_chaos-… → target/{profile}/
            let profile_dir = exe
                .parent()
                .and_then(Path::parent)
                .expect("test binary has no target dir")
                .to_path_buf();
            let candidate = profile_dir.join("pgdb-server");
            let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
            let fresh = matches!(
                (modified(&candidate), modified(&exe)),
                (Some(server), Some(test)) if server >= test
            );
            if !fresh {
                let profile = match profile_dir.file_name().and_then(|n| n.to_str()) {
                    Some("debug") | None => "dev",
                    Some(other) => other,
                };
                let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
                let status = Command::new(cargo)
                    .args(["build", "-q", "-p", "pgdb", "--bin", "pgdb-server", "--profile", profile])
                    .status()
                    .expect("spawn cargo build for pgdb-server");
                assert!(status.success(), "building pgdb-server failed");
            }
            assert!(candidate.exists(), "built pgdb-server not at {}", candidate.display());
            candidate
        })
        .clone()
}

/// A spawned server that is killed on drop (test failures must not
/// leak processes).
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawn `pgdb-server` against `data_dir` with the default fsync
    /// policy (group commit) and the given extra environment (fault
    /// points, checkpoint cadence), and read the bound address off its
    /// stdout.
    fn spawn(data_dir: &Path, extra_env: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(server_binary());
        cmd.env_remove("HQ_DUR_CRASH")
            .env_remove("HQ_CHECKPOINT_EVERY")
            .env("HQ_DATA_DIR", data_dir)
            .env("HQ_FSYNC", "group")
            .env("HQ_LISTEN", "127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in extra_env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn pgdb-server");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read server banner");
        // "pgdb listening on 127.0.0.1:PORT (durability on)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        assert!(line.contains("durability on"), "server not durable: {line:?}");
        ServerProc { child, addr }
    }

    /// Wait (bounded) for the child to die and confirm it was killed by
    /// a signal, not a clean exit — the fault points die by SIGKILL.
    fn assert_killed(&mut self) {
        for _ in 0..200 {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(!status.success(), "server exited cleanly instead of dying");
                    return;
                }
                None => std::thread::sleep(std::time::Duration::from_millis(25)),
            }
        }
        panic!("server did not die within 5s of the armed fault");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> PgWireBackend {
    PgWireBackend::connect_with(
        addr,
        &Credentials { user: "chaos".into(), password: String::new(), database: "hist".into() },
        WireTimeouts::default(),
        RetryPolicy::no_retry(),
    )
    .expect("connect to spawned server")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hq-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn reopen_opts(dir: &Path) -> DurabilityOptions {
    DurabilityOptions {
        data_dir: dir.to_path_buf(),
        fsync: FsyncPolicy::GROUP,
        checkpoint_every: 0,
    }
}

// ------------------------------------------------------------- oracles

/// An in-memory pgdb that applied exactly `stmts` — the differential
/// oracle a recovered catalog is compared against.
fn oracle(stmts: &[&str]) -> pgdb::Db {
    let db = pgdb::Db::new();
    let mut s = db.session();
    for q in stmts {
        s.execute(q).unwrap_or_else(|e| panic!("oracle rejected {q:?}: {e}"));
    }
    db
}

/// The recovered catalog must match the oracle exactly: same table
/// names, and every table structurally equal batch-for-batch.
fn assert_catalog_equals(recovered: &pgdb::Db, want: &pgdb::Db) {
    let mut got_names = recovered.table_names();
    let mut want_names = want.table_names();
    got_names.sort();
    want_names.sort();
    assert_eq!(got_names, want_names, "recovered table set diverges from oracle");
    for name in &want_names {
        let got = recovered.get_table_snapshot(name).expect("table listed but missing");
        let exp = want.get_table_snapshot(name).unwrap();
        assert!(
            got.batch.structurally_equal(&exp.batch),
            "table \"{name}\" diverges from the oracle after recovery"
        );
    }
}

/// Recovery equals the oracle over some prefix of `sent` that is at
/// least `acked` statements long: acked ⊆ recovered ⊆ sent.
fn assert_recovered_prefix(dir: &Path, sent: &[&str], acked: usize) {
    let db = pgdb::Db::open(&reopen_opts(dir)).expect("recovery failed");
    for take in acked..=sent.len() {
        let candidate = oracle(&sent[..take]);
        let mut got = db.table_names();
        let mut want = candidate.table_names();
        got.sort();
        want.sort();
        let matches = got == want
            && want.iter().all(|n| {
                db.get_table_snapshot(n)
                    .map(|t| t.batch.structurally_equal(&candidate.get_table_snapshot(n).unwrap().batch))
                    .unwrap_or(false)
            });
        if matches {
            return; // recovered == sent[..take], a legal commit prefix
        }
    }
    // Exact-match diagnostics against the acked prefix.
    assert_catalog_equals(&db, &oracle(&sent[..acked]));
}

// ------------------------------------------------- SIGKILL mid-commit

/// The server dies with half a WAL frame on disk while the 4th
/// mutation is committing. The three acked statements must be exactly
/// what recovery returns, and the torn tail must be truncated (metric)
/// rather than poisoning the log.
#[test]
fn sigkill_mid_commit_preserves_exactly_the_acked_prefix() {
    let dir = fresh_dir("midcommit");
    let sent = [
        "CREATE TABLE t (x bigint, s varchar)",
        "INSERT INTO t VALUES (1, 'a'), (2, NULL)",
        "INSERT INTO t VALUES (3, 'c')",
        "INSERT INTO t VALUES (4, 'd')",
    ];
    let mut server = ServerProc::spawn(&dir, &[("HQ_DUR_CRASH", "wal.partial-append:4")]);
    let mut gw = connect(&server.addr);
    assert!(Backend::durable(&gw), "spawned server must advertise durability");
    for q in &sent[..3] {
        gw.execute_sql(q).unwrap_or_else(|e| panic!("{q:?} should ack: {e}"));
    }
    // The 4th statement dies mid-append: the client sees an error, not
    // an ack, and the server is SIGKILLed with a torn frame on disk.
    let err = gw.execute_sql(sent[3]).expect_err("statement during crash cannot ack");
    let _ = err; // any wire error kind is acceptable here
    server.assert_killed();

    let truncated_before = obs::global_registry().counter_value("recovery_truncated_tail_total");
    let db = pgdb::Db::open(&reopen_opts(&dir)).expect("recovery must handle a torn tail");
    assert_catalog_equals(&db, &oracle(&sent[..3]));
    assert!(
        obs::global_registry().counter_value("recovery_truncated_tail_total") > truncated_before,
        "torn tail was not counted as truncated"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash *after* the fsync but before the ack: the statement is
/// durable-but-unacked, so recovery may legally include it — but never
/// anything beyond it.
#[test]
fn sigkill_after_fsync_recovers_a_durable_but_unacked_statement() {
    let dir = fresh_dir("postfsync");
    let sent = [
        "CREATE TABLE t (x bigint)",
        "INSERT INTO t VALUES (10)",
        "INSERT INTO t VALUES (20)",
    ];
    let mut server = ServerProc::spawn(&dir, &[("HQ_DUR_CRASH", "wal.after-fsync:3")]);
    let mut gw = connect(&server.addr);
    for q in &sent[..2] {
        gw.execute_sql(q).unwrap();
    }
    gw.execute_sql(sent[2]).expect_err("crashing statement cannot ack");
    server.assert_killed();
    assert_recovered_prefix(&dir, &sent, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------- SIGKILL mid-checkpoint

/// The server dies while spilling checkpoint segments. The WAL already
/// holds everything (the commit's fsync runs before the checkpoint), so
/// recovery replays the full log; the half-built checkpoint stays a
/// `.tmp-` orphan that never shadows the real state.
#[test]
fn sigkill_mid_checkpoint_recovers_from_the_wal() {
    let dir = fresh_dir("midcp");
    let sent = [
        "CREATE TABLE t (x bigint)",
        "INSERT INTO t VALUES (1)", // 2nd append trips the checkpoint → crash
    ];
    let mut server = ServerProc::spawn(
        &dir,
        &[("HQ_DUR_CRASH", "checkpoint.mid-segments:1"), ("HQ_CHECKPOINT_EVERY", "2")],
    );
    let mut gw = connect(&server.addr);
    gw.execute_sql(sent[0]).unwrap();
    gw.execute_sql(sent[1]).expect_err("checkpointing statement cannot ack");
    server.assert_killed();

    // The interrupted checkpoint left no committed checkpoint dir.
    let cps = dir.join("checkpoints");
    if let Ok(entries) = std::fs::read_dir(&cps) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(
                name.starts_with(".tmp-"),
                "crash mid-checkpoint must not leave a committed dir, found {name}"
            );
        }
    }
    assert_recovered_prefix(&dir, &sent, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash between assembling the checkpoint and its atomic rename: same
/// contract — the rename either happened entirely or not at all.
#[test]
fn sigkill_before_checkpoint_rename_is_atomic() {
    let dir = fresh_dir("cprename");
    let sent = ["CREATE TABLE t (x bigint)", "INSERT INTO t VALUES (5)"];
    let mut server = ServerProc::spawn(
        &dir,
        &[("HQ_DUR_CRASH", "checkpoint.before-rename:1"), ("HQ_CHECKPOINT_EVERY", "2")],
    );
    let mut gw = connect(&server.addr);
    gw.execute_sql(sent[0]).unwrap();
    gw.execute_sql(sent[1]).expect_err("checkpointing statement cannot ack");
    server.assert_killed();
    assert_recovered_prefix(&dir, &sent, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- disk faults

/// Seed a data dir in-process with a known statement sequence, closing
/// the engine cleanly, and return the statements used.
fn seeded_dir(tag: &str, checkpoint_every: u64) -> (PathBuf, Vec<&'static str>) {
    let dir = fresh_dir(tag);
    let stmts = vec![
        "CREATE TABLE t (x bigint, s varchar)",
        "INSERT INTO t VALUES (1, 'a')",
        "INSERT INTO t VALUES (2, 'b')",
        "INSERT INTO t VALUES (3, NULL)",
        "CREATE TABLE u (y float8)",
        "INSERT INTO u VALUES (2.5)",
    ];
    let opts = DurabilityOptions {
        data_dir: dir.clone(),
        fsync: FsyncPolicy::GROUP,
        checkpoint_every,
    };
    let db = pgdb::Db::open(&opts).unwrap();
    let mut s = db.session();
    for q in &stmts {
        s.execute(q).unwrap();
    }
    drop(s);
    drop(db);
    (dir, stmts)
}

/// The newest WAL file, by starting LSN in the file name.
fn newest_wal(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    files.sort();
    files.pop().expect("no wal files")
}

/// Garbage appended after the last valid record is a torn tail:
/// recovery truncates it and keeps every committed statement.
#[test]
fn garbage_wal_tail_is_truncated_not_fatal() {
    let (dir, stmts) = seeded_dir("tail", 0);
    let wal = newest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    std::fs::write(&wal, &bytes).unwrap();

    let db = pgdb::Db::open(&reopen_opts(&dir)).expect("torn tail must recover");
    assert_catalog_equals(&db, &oracle(&stmts));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short write — the final record cut mid-frame — is the same story.
#[test]
fn short_written_final_record_is_truncated() {
    let (dir, stmts) = seeded_dir("short", 0);
    let wal = newest_wal(&dir);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    let db = pgdb::Db::open(&reopen_opts(&dir)).expect("short write must recover");
    // The last statement was cut; everything before it survives.
    assert_catalog_equals(&db, &oracle(&stmts[..stmts.len() - 1]));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum broken in the *middle* of the log (valid records follow
/// the damage) is not a torn tail: recovery must refuse with a typed
/// corruption error instead of silently dropping committed data.
#[test]
fn mid_wal_corruption_is_a_typed_error() {
    let (dir, _) = seeded_dir("midflip", 0);
    let wal = newest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 32, "seed wal unexpectedly small");
    bytes[10] ^= 0x40; // inside the first frame, well before the tail
    std::fs::write(&wal, &bytes).unwrap();

    match pgdb::Db::open(&reopen_opts(&dir)) {
        Err(e) => assert!(e.message.contains("corrupt"), "untyped failure: {e}"),
        Ok(_) => panic!("mid-log corruption recovered silently"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing segment invalidates its checkpoint; recovery falls back
/// to an older checkpoint or the WAL and still serves the full state.
#[test]
fn missing_checkpoint_segment_falls_back() {
    let (dir, stmts) = seeded_dir("noseg", 2); // several checkpoints taken
    let cps = dir.join("checkpoints");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&cps)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && !p.file_name().unwrap().to_string_lossy().starts_with('.'))
        .collect();
    dirs.sort();
    let newest = dirs.pop().expect("seed produced no checkpoints");
    let seg = std::fs::read_dir(&newest)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("checkpoint has no segments");
    std::fs::remove_file(&seg).unwrap();

    let db = pgdb::Db::open(&reopen_opts(&dir)).expect("must fall back past damaged checkpoint");
    assert_catalog_equals(&db, &oracle(&stmts));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweep single-byte corruptions across the whole WAL: whatever the
/// damage, reopening either succeeds or fails with a typed error —
/// recovery never panics on corrupted input.
#[test]
fn byte_flip_sweep_over_the_wal_never_panics() {
    let (dir, _) = seeded_dir("sweep", 0);
    let wal = newest_wal(&dir);
    let pristine = std::fs::read(&wal).unwrap();
    for pos in (0..pristine.len()).step_by(7) {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x80;
        std::fs::write(&wal, &damaged).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| pgdb::Db::open(&reopen_opts(&dir))));
        match outcome {
            Ok(_ok_or_typed_err) => {}
            Err(_) => panic!("recovery panicked on a flipped byte at offset {pos}"),
        }
        // Restore for the next iteration (a successful open may have
        // truncated the tail).
        std::fs::write(&wal, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ metrics

/// The durability counters are visible through the server's admin
/// surface (`SHOW metrics`) like every other subsystem's.
#[test]
fn durability_metrics_are_visible_over_the_wire() {
    let dir = fresh_dir("metrics");
    let server = ServerProc::spawn(&dir, &[]);
    let mut gw = connect(&server.addr);
    gw.execute_sql("CREATE TABLE t (x bigint)").unwrap();
    gw.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    let rows = match gw.execute_sql("SHOW metrics").unwrap() {
        QueryResult::Rows(rows) => rows,
        other => panic!("SHOW metrics returned {other:?}"),
    };
    let rendered: Vec<String> = rows
        .data
        .iter()
        .map(|r| {
            r.iter()
                .map(|c| match c {
                    Cell::Text(s) => s.clone(),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let all = rendered.join("\n");
    assert!(all.contains("wal_appends_total"), "missing wal_appends_total:\n{all}");
    assert!(all.contains("wal_fsync_seconds"), "missing wal_fsync_seconds:\n{all}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
