//! Append-only, CRC-framed write-ahead log with group-commit fsync.
//!
//! Every committed mutation becomes one *typed* record — not SQL text.
//! Replay is deterministic batch application with no dependence on
//! parser behaviour or session temp tables (a `CREATE TABLE AS` logs
//! the *computed* result, so recovery never re-runs the query).
//!
//! ## Frame format
//!
//! ```text
//! ┌─────────┬─────────┬─────────────┬──────────────────┐
//! │ len u32 │ crc u32 │   lsn u64   │ payload (len-8 B)│
//! └─────────┴─────────┴─────────────┴──────────────────┘
//!            crc32 over [lsn..payload]; len = 8 + payload
//! ```
//!
//! Files are named `wal-%016x.log` by the LSN of their first record and
//! rotate at every checkpoint, so retention is file-granular.
//!
//! ## Commit protocol
//!
//! The engine appends under its table write lock (so LSN order equals
//! apply order), releases the lock, then calls [`Wal::wait_durable`]
//! before acknowledging the client:
//!
//! * `group` (also spelled `always`) — leader-based group commit. A
//!   committer whose LSN is not yet durable and that finds no sync in
//!   flight becomes the *leader*: it marks a sync in flight, takes the
//!   highest appended LSN as its target, and fsyncs outside the lock.
//!   Everyone who committed meanwhile waits on a condvar; when the
//!   leader publishes its target they are covered, or one of them leads
//!   the next sync. A lone writer pays one fsync per commit and nothing
//!   else; commits appended before a leader takes its target share its
//!   sync. No thread, no timer (the interval is parsed and ignored);
//! * `off` — return immediately (fsync only at rotation/shutdown).

use crate::codec::{self, CodecError, Cursor};
use crate::metrics::metrics;
use crate::{crc, fault, DurError};
use colstore::types::Column;
use colstore::Batch;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When the ack is allowed to outrun the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every acknowledgement, group commit: one leader's
    /// fsync covers every commit appended before it started. The
    /// interval is unread; it stays because the benchmark constructs
    /// this variant (ROADMAP item 8 step B).
    Group(Duration),
    /// Never fsync on commit (data still reaches the OS; a process
    /// crash loses nothing, a power cut may lose the tail).
    Off,
}

impl FsyncPolicy {
    /// The default: what `group` and `always` parse to.
    pub const GROUP: FsyncPolicy = FsyncPolicy::Group(Duration::from_millis(5));

    /// Parse the `HQ_FSYNC` knob: `off`, `group` or `always` (the same
    /// policy), or `group(<n>ms)`. The interval is kept, not waited on.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "group" | "always" => Some(FsyncPolicy::GROUP),
            "off" => Some(FsyncPolicy::Off),
            _ => {
                let inner = s.strip_prefix("group(")?.strip_suffix(')')?;
                let ms: u64 = inner.trim().strip_suffix("ms").unwrap_or(inner).trim().parse().ok()?;
                Some(FsyncPolicy::Group(Duration::from_millis(ms.max(1))))
            }
        }
    }

    /// Stable label for diagnostics and bench output.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Group(d) => format!("group({}ms)", d.as_millis()),
            FsyncPolicy::Off => "off".into(),
        }
    }
}

/// One logical mutation, replayable without a SQL parser.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE` — empty table with this schema.
    CreateTable { name: String, schema: Vec<Column> },
    /// `INSERT` — append these rows (already cast to the table schema).
    InsertBatch { table: String, batch: Batch },
    /// `DROP TABLE`.
    DropTable { name: String },
    /// Create-or-replace with materialized contents (`CREATE TABLE AS`
    /// results, host-API loads).
    PutTable { name: String, batch: Batch },
}

impl WalRecord {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::CreateTable { name, schema } => {
                out.push(0);
                codec::put_string(out, name);
                codec::encode_schema(out, schema);
            }
            WalRecord::InsertBatch { table, batch } => {
                out.push(1);
                codec::put_string(out, table);
                codec::encode_batch(out, batch);
            }
            WalRecord::DropTable { name } => {
                out.push(2);
                codec::put_string(out, name);
            }
            WalRecord::PutTable { name, batch } => {
                out.push(3);
                codec::put_string(out, name);
                codec::encode_batch(out, batch);
            }
        }
    }

    pub fn decode(c: &mut Cursor) -> Result<WalRecord, CodecError> {
        Ok(match c.u8()? {
            0 => WalRecord::CreateTable { name: c.string()?, schema: codec::decode_schema(c)? },
            1 => WalRecord::InsertBatch { table: c.string()?, batch: codec::decode_batch(c)? },
            2 => WalRecord::DropTable { name: c.string()? },
            3 => WalRecord::PutTable { name: c.string()?, batch: codec::decode_batch(c)? },
            other => return Err(CodecError(format!("unknown WAL record tag {other}"))),
        })
    }
}

/// Name of the WAL file whose first record carries `start_lsn`.
pub fn wal_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:016x}.log")
}

/// Parse a WAL file name back to its starting LSN.
pub fn parse_wal_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

struct WalState {
    /// Shared so a leader can fsync it outside the lock while `rotate`
    /// swaps in the next file.
    file: Arc<File>,
    /// LSN the next append will receive.
    next_lsn: u64,
    /// Highest LSN handed to the OS.
    appended_lsn: u64,
    /// Highest LSN known fsynced. Never decreases.
    durable_lsn: u64,
    /// A leader is syncing outside the lock; other committers wait.
    flushing: bool,
}

/// The live appender over a WAL directory.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    state: Mutex<WalState>,
    /// Signalled whenever a leader finishes (or a rotation syncs).
    durable: Condvar,
}

impl Wal {
    /// Start a fresh WAL file at `next_lsn` inside `dir` (created if
    /// missing). Recovery always hands us the LSN after the last one it
    /// saw, so the new file's name never collides with replayed ones.
    pub fn create(dir: &Path, policy: FsyncPolicy, next_lsn: u64) -> Result<Wal, DurError> {
        std::fs::create_dir_all(dir)?;
        let file = Arc::new(open_segment(dir, next_lsn)?);
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            state: Mutex::new(WalState {
                file,
                next_lsn,
                appended_lsn: next_lsn - 1,
                durable_lsn: next_lsn - 1,
                flushing: false,
            }),
            durable: Condvar::new(),
        })
    }

    /// Append one record; returns its LSN. The caller decides when to
    /// wait for durability (see [`Wal::wait_durable`]).
    pub fn append(&self, rec: &WalRecord) -> Result<u64, DurError> {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        let mut state = self.state.lock().unwrap();
        let lsn = state.next_lsn;

        let mut frame = Vec::with_capacity(payload.len() + 20);
        codec::put_u32(&mut frame, (payload.len() + 8) as u32);
        let mut body = Vec::with_capacity(payload.len() + 8);
        codec::put_u64(&mut body, lsn);
        body.extend_from_slice(&payload);
        codec::put_u32(&mut frame, crc::crc32(&body));
        frame.extend_from_slice(&body);

        fault::crash_point("wal.before-append");
        if fault::about_to_crash("wal.partial-append") {
            // Write a deliberately torn frame, force it to the device,
            // then die — the canonical mid-commit power cut.
            let half = &frame[..frame.len() / 2];
            let _ = (&*state.file).write_all(half);
            let _ = state.file.sync_data();
            fault::crash_now();
        }
        (&*state.file).write_all(&frame)?;
        state.next_lsn = lsn + 1;
        state.appended_lsn = lsn;
        metrics().wal_appends.inc();
        fault::crash_point("wal.after-append");
        Ok(lsn)
    }

    /// Block until `lsn` is durable per the configured policy.
    ///
    /// Under `Group` the first committer to find its LSN
    /// uncovered with no sync in flight leads one: it fsyncs everything
    /// appended so far outside the lock, publishes it, and wakes the
    /// rest. A failed sync is the leader's error — its statement does
    /// not commit — but the flag is cleared and the others woken either
    /// way, so the next uncovered committer retries instead of hanging.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), DurError> {
        if self.policy == FsyncPolicy::Off {
            return Ok(());
        }
        let mut state = self.state.lock().unwrap();
        while state.durable_lsn < lsn {
            if state.flushing {
                state = self.durable.wait(state).unwrap();
                continue;
            }
            state.flushing = true;
            let target = state.appended_lsn;
            let file = Arc::clone(&state.file);
            drop(state);
            let synced = sync_timed(&file);
            state = self.state.lock().unwrap();
            state.flushing = false;
            if synced.is_ok() {
                state.durable_lsn = state.durable_lsn.max(target);
            }
            self.durable.notify_all();
            synced?;
            drop(state);
            fault::crash_point("wal.after-fsync");
            return Ok(());
        }
        Ok(())
    }

    /// Highest LSN ever appended (the checkpoint's high-water mark).
    pub fn appended_lsn(&self) -> u64 {
        self.state.lock().unwrap().appended_lsn
    }

    /// Sync the current file and switch appends to a fresh one. Returns
    /// the last LSN of the closed file. Called with the engine's table
    /// lock held, so no append can interleave.
    pub fn rotate(&self) -> Result<u64, DurError> {
        let mut state = self.state.lock().unwrap();
        state.file.sync_data()?;
        let last = state.appended_lsn;
        state.file = Arc::new(open_segment(&self.dir, state.next_lsn)?);
        state.durable_lsn = state.durable_lsn.max(last);
        self.durable.notify_all();
        Ok(last)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Clean-shutdown durability regardless of policy.
        if let Ok(state) = self.state.lock() {
            let _ = state.file.sync_data();
        }
    }
}

fn open_segment(dir: &Path, start_lsn: u64) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(wal_file_name(start_lsn)))
}

/// `wal_fsync_seconds` is process-wide: the tests that count or cause
/// its samples take turns on this lock.
#[cfg(test)]
pub(crate) static FSYNC_SAMPLES: Mutex<()> = Mutex::new(());

fn sync_timed(file: &File) -> std::io::Result<()> {
    let t0 = Instant::now();
    file.sync_data()?;
    metrics().wal_fsync_seconds.observe_secs(t0.elapsed().as_secs_f64());
    Ok(())
}

// ------------------------------------------------------------- reading

/// Result of scanning one WAL file.
pub struct WalScan {
    /// Records in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset just past the last valid frame.
    pub valid_end: u64,
    /// Set when bytes after `valid_end` failed to parse: the torn-tail
    /// candidate (only legitimate in the *final* WAL file).
    pub failure: Option<String>,
}

/// Scan a WAL file's bytes. Never panics: damage is reported through
/// `failure`, and `resync_finds_valid_frame` distinguishes a torn tail
/// from mid-file corruption.
pub fn scan_wal_bytes(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return WalScan { records, valid_end: pos as u64, failure: None };
        }
        match parse_frame_at(bytes, pos) {
            Ok((lsn, rec, next)) => {
                records.push((lsn, rec));
                pos = next;
            }
            Err(msg) => {
                return WalScan { records, valid_end: pos as u64, failure: Some(msg) };
            }
        }
    }
}

fn parse_frame_at(bytes: &[u8], pos: usize) -> Result<(u64, WalRecord, usize), String> {
    let remaining = bytes.len() - pos;
    if remaining < 8 {
        return Err(format!("{remaining} trailing bytes, frame header needs 8"));
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let crc_want = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    if len < 9 {
        return Err(format!("frame length {len} below minimum"));
    }
    if remaining - 8 < len {
        return Err(format!("frame declares {len} bytes, {} remain", remaining - 8));
    }
    let body = &bytes[pos + 8..pos + 8 + len];
    if crc::crc32(body) != crc_want {
        return Err("frame checksum mismatch".into());
    }
    let mut c = Cursor::new(body);
    let lsn = c.u64().map_err(|e| e.to_string())?;
    let rec = WalRecord::decode(&mut c).map_err(|e| e.to_string())?;
    if !c.is_done() {
        return Err("frame has trailing bytes after its record".into());
    }
    Ok((lsn, rec, pos + 8 + len))
}

/// After a parse failure at `from`, look for any complete, checksummed,
/// decodable frame later in the file. Finding one means the damage is
/// *followed by* committed data — that is corruption, not a torn tail,
/// and recovery must refuse to silently drop the survivors.
pub fn resync_finds_valid_frame(bytes: &[u8], from: usize) -> bool {
    let start = from + 1;
    if start >= bytes.len() {
        return false;
    }
    (start..bytes.len()).any(|off| parse_frame_at(bytes, off).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::types::PgType;

    fn rec(n: i64) -> WalRecord {
        WalRecord::CreateTable {
            name: format!("t{n}"),
            schema: vec![Column::new("x", PgType::Int8)],
        }
    }

    fn frames(records: &[(u64, WalRecord)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (lsn, r) in records {
            let mut payload = Vec::new();
            r.encode(&mut payload);
            let mut body = Vec::new();
            codec::put_u64(&mut body, *lsn);
            body.extend_from_slice(&payload);
            codec::put_u32(&mut out, body.len() as u32);
            codec::put_u32(&mut out, crc::crc32(&body));
            out.extend_from_slice(&body);
        }
        out
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hq-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn durable_lsn(wal: &Wal) -> u64 {
        wal.state.lock().unwrap().durable_lsn
    }

    /// Append and wait from `threads` threads, `per_thread` commits
    /// each; every wait must return with its LSN covered.
    fn commit_concurrently(wal: &Wal, threads: usize, per_thread: usize) {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        let lsn = wal.append(&rec((t * per_thread + i) as i64)).unwrap();
                        wal.wait_durable(lsn).unwrap();
                        assert!(durable_lsn(wal) >= lsn, "acked lsn {lsn} is not durable");
                    }
                });
            }
        });
    }

    #[test]
    fn a_lone_committer_does_not_wait_for_the_group_interval() {
        let _turn = FSYNC_SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("lone");
        let wal = Wal::create(&dir, FsyncPolicy::Group(Duration::from_secs(30)), 1).unwrap();
        let t0 = Instant::now();
        for n in 0..3 {
            let lsn = wal.append(&rec(n)).unwrap();
            wal.wait_durable(lsn).unwrap();
            assert_eq!(durable_lsn(&wal), lsn);
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "3 commits took {:?}", t0.elapsed());
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Commits appended before a leader takes its target share its
    /// sync. Each round, 8 threads append and meet at a barrier before
    /// any of them waits, so the round's first waiter leads one sync
    /// that covers all 8 and nobody else in the round syncs.
    #[test]
    fn concurrent_committers_share_one_sync_per_round() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        let _turn = FSYNC_SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("share");
        let wal = Wal::create(&dir, FsyncPolicy::GROUP, 1).unwrap();
        let appended = std::sync::Barrier::new(THREADS);
        let before = metrics().wal_fsync_seconds.count();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (wal, appended) = (&wal, &appended);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let lsn = wal.append(&rec((round * THREADS + t) as i64)).unwrap();
                        appended.wait();
                        wal.wait_durable(lsn).unwrap();
                        assert!(durable_lsn(wal) >= lsn, "acked lsn {lsn} is not durable");
                    }
                });
            }
        });
        let syncs = metrics().wal_fsync_seconds.count() - before;
        assert_eq!(syncs, ROUNDS as u64, "{syncs} fsyncs for {} commits", THREADS * ROUNDS);
        assert_eq!(durable_lsn(&wal), (THREADS * ROUNDS) as u64);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_during_a_leaders_sync_keeps_durable_lsn_monotone() {
        let _turn = FSYNC_SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("rotate");
        let wal = Wal::create(&dir, FsyncPolicy::GROUP, 1).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut last = 0;
                let mut samples = 0u64;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let now = durable_lsn(&wal);
                    assert!(now >= last, "durable_lsn went back from {last} to {now}");
                    last = now;
                    samples += 1;
                }
                samples
            });
            let rotator = s.spawn(|| {
                let mut rotations = 0;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let last = wal.rotate().unwrap();
                    assert!(durable_lsn(&wal) >= last);
                    rotations += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                rotations
            });
            commit_concurrently(&wal, 4, 50);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(watcher.join().unwrap() > 0);
            assert!(rotator.join().unwrap() > 0);
        });
        assert_eq!(durable_lsn(&wal), 200);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::GROUP));
        assert_eq!(FsyncPolicy::parse("OFF"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("group"), Some(FsyncPolicy::GROUP));
        assert_eq!(
            FsyncPolicy::parse("group(25ms)"),
            Some(FsyncPolicy::Group(Duration::from_millis(25)))
        );
        assert_eq!(
            FsyncPolicy::parse("group(3)"),
            Some(FsyncPolicy::Group(Duration::from_millis(3)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn wal_file_names_round_trip() {
        assert_eq!(parse_wal_file_name(&wal_file_name(1)), Some(1));
        assert_eq!(parse_wal_file_name(&wal_file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_wal_file_name("wal-zz.log"), None);
        assert_eq!(parse_wal_file_name("MANIFEST"), None);
    }

    #[test]
    fn scan_round_trips_and_stops_clean() {
        let bytes = frames(&[(1, rec(1)), (2, rec(2)), (3, rec(3))]);
        let scan = scan_wal_bytes(&bytes);
        assert!(scan.failure.is_none());
        assert_eq!(scan.valid_end, bytes.len() as u64);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].0, 3);
    }

    #[test]
    fn torn_tail_is_detected_at_every_truncation_point() {
        let bytes = frames(&[(1, rec(1)), (2, rec(2))]);
        let first_len = frames(&[(1, rec(1))]).len();
        for cut in first_len + 1..bytes.len() {
            let scan = scan_wal_bytes(&bytes[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_end as usize, first_len);
            assert!(scan.failure.is_some());
            assert!(!resync_finds_valid_frame(&bytes[..cut], scan.valid_end as usize));
        }
    }

    #[test]
    fn corruption_before_valid_records_is_not_a_torn_tail() {
        let mut bytes = frames(&[(1, rec(1)), (2, rec(2)), (3, rec(3))]);
        let first_len = frames(&[(1, rec(1))]).len();
        // Flip a bit inside record 2's body.
        bytes[first_len + 10] ^= 0x40;
        let scan = scan_wal_bytes(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.failure.is_some());
        assert!(
            resync_finds_valid_frame(&bytes, scan.valid_end as usize),
            "record 3 is intact after the damage — must be found"
        );
    }
}
