//! Durability for the pgdb catalog: WAL + checkpoints + recovery.
//!
//! The layer is strictly opt-in — with no data directory configured the
//! engine never touches this crate and keeps its pure in-memory hot
//! path. When enabled ([`Options`], usually from `HQ_DATA_DIR` /
//! `HQ_FSYNC` / `HQ_CHECKPOINT_EVERY`):
//!
//! * every committed mutation appends one typed [`wal::WalRecord`] to an
//!   append-only, CRC-framed log ([`wal`]) and is acknowledged per the
//!   configured [`FsyncPolicy`] (a leader's fsync shared by every
//!   commit waiting on it, or none);
//! * every `checkpoint_every` mutations the engine spills all tables as
//!   on-disk columnar [`segment`]s under a manifest ([`checkpoint`]),
//!   rotates the WAL, and prunes history down to the last two
//!   checkpoints plus the WAL tail;
//! * on open, [`Durability::open`] loads the newest *valid* checkpoint
//!   (falling back to the previous one if the newest is damaged),
//!   replays the WAL tail above it, and truncates at most one torn
//!   final record — anything else that fails to parse is a typed
//!   [`DurError::Corrupt`], never a panic and never silent data loss.
//!
//! ## Data directory layout
//!
//! ```text
//! <data_dir>/
//!   wal/wal-<start lsn %016x>.log      append-only frames
//!   checkpoints/cp-<lsn %016x>/        columnar segments + MANIFEST
//! ```
//!
//! ## What "committed" means here
//!
//! The engine appends under its table write lock, applies in memory,
//! releases the lock, and only then waits for durability before the
//! client sees success. Recovery therefore restores exactly a prefix of
//! the commit order: every acknowledged statement, plus at most the
//! in-flight statements that reached the disk but not the client.

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod fault;
pub mod metrics;
pub mod segment;
pub mod wal;

pub use wal::{FsyncPolicy, WalRecord};

use colstore::Batch;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Failures from the durability layer. `Io` is the environment
/// misbehaving (disk full, permissions); `Corrupt` is the data on disk
/// failing validation — recovery surfaces it instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurError {
    Io(String),
    Corrupt(String),
}

impl fmt::Display for DurError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurError::Io(msg) => write!(f, "durability i/o error: {msg}"),
            DurError::Corrupt(msg) => write!(f, "durability corruption: {msg}"),
        }
    }
}

impl std::error::Error for DurError {}

impl From<std::io::Error> for DurError {
    fn from(e: std::io::Error) -> DurError {
        DurError::Io(e.to_string())
    }
}

impl From<codec::CodecError> for DurError {
    fn from(e: codec::CodecError) -> DurError {
        DurError::Corrupt(e.to_string())
    }
}

/// How a durable engine is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Root of the data directory (created if missing).
    pub data_dir: PathBuf,
    /// When commits are acknowledged relative to fsync.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL appends (0 disables periodic
    /// checkpoints; the WAL still grows and still recovers).
    pub checkpoint_every: u64,
}

impl Options {
    pub fn new(data_dir: impl Into<PathBuf>) -> Options {
        Options {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::GROUP,
            checkpoint_every: 1024,
        }
    }

    /// Read `HQ_DATA_DIR` (presence turns durability on), `HQ_FSYNC`
    /// and `HQ_CHECKPOINT_EVERY`. Unparseable knobs fall back to the
    /// defaults rather than failing startup.
    pub fn from_env() -> Option<Options> {
        let dir = std::env::var("HQ_DATA_DIR").ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        let mut opts = Options::new(dir);
        if let Some(policy) = std::env::var("HQ_FSYNC").ok().and_then(|s| FsyncPolicy::parse(&s)) {
            opts.fsync = policy;
        }
        if let Some(n) = std::env::var("HQ_CHECKPOINT_EVERY").ok().and_then(|s| s.trim().parse().ok()) {
            opts.checkpoint_every = n;
        }
        Some(opts)
    }

    fn wal_dir(&self) -> PathBuf {
        self.data_dir.join("wal")
    }

    fn checkpoints_dir(&self) -> PathBuf {
        self.data_dir.join("checkpoints")
    }
}

/// What recovery reconstructed from disk.
pub struct Recovered {
    /// Full table contents at the recovered LSN.
    pub tables: HashMap<String, Batch>,
    /// LSN the next append must use.
    pub next_lsn: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Whether a torn final record was truncated.
    pub truncated_tail: bool,
}

/// Apply one replayed record to the recovered table map. Mirrors the
/// engine's in-memory application exactly — this *is* the redo path.
fn apply_record(
    tables: &mut HashMap<String, Batch>,
    lsn: u64,
    rec: wal::WalRecord,
) -> Result<(), DurError> {
    match rec {
        wal::WalRecord::CreateTable { name, schema } => {
            tables.insert(name, Batch::empty(schema));
        }
        wal::WalRecord::InsertBatch { table, batch } => {
            let Some(t) = tables.get_mut(&table) else {
                return Err(DurError::Corrupt(format!(
                    "wal lsn {lsn}: insert into unknown table \"{table}\""
                )));
            };
            codec::append_settled(t, batch);
        }
        wal::WalRecord::DropTable { name } => {
            tables.remove(&name);
        }
        wal::WalRecord::PutTable { name, batch } => {
            tables.insert(name, batch);
        }
    }
    Ok(())
}

/// Reconstruct the catalog from `data_dir`: newest valid checkpoint
/// plus the WAL tail above it.
pub fn recover(options: &Options) -> Result<Recovered, DurError> {
    let wal_dir = options.wal_dir();
    let cps_dir = options.checkpoints_dir();

    // Newest checkpoint that loads cleanly wins; a damaged newer one is
    // skipped (its WAL is still retained, so nothing is lost).
    let mut base_lsn = 0u64;
    let mut tables: HashMap<String, Batch> = HashMap::new();
    let mut skipped: Vec<String> = Vec::new();
    for (lsn, path) in checkpoint::list_checkpoints(&cps_dir) {
        match checkpoint::load_checkpoint(&path) {
            Ok((cp_lsn, loaded)) => {
                base_lsn = cp_lsn;
                tables = loaded.into_iter().collect();
                break;
            }
            Err(e) => skipped.push(format!("{}: {e}", checkpoint::checkpoint_dir_name(lsn))),
        }
    }
    let mut wal_files: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&wal_dir) {
        for entry in entries.flatten() {
            if let Some(start) = entry.file_name().to_str().and_then(wal::parse_wal_file_name) {
                wal_files.push((start, entry.path()));
            }
        }
    }
    wal_files.sort();

    // If every checkpoint was rejected, replay-from-scratch only works
    // when the WAL still reaches back to LSN 1.
    if base_lsn == 0 && !skipped.is_empty() {
        let covered = wal_files.first().map(|(s, _)| *s <= 1).unwrap_or(false);
        if !covered {
            return Err(DurError::Corrupt(format!(
                "no loadable checkpoint and the WAL does not reach back to LSN 1 ({})",
                skipped.join("; ")
            )));
        }
    }

    let mut replayed = 0u64;
    let mut truncated_tail = false;
    let mut prev_lsn = 0u64;
    let last_idx = wal_files.len().wrapping_sub(1);
    for (i, (_, path)) in wal_files.iter().enumerate() {
        let bytes = std::fs::read(path)?;
        let scan = wal::scan_wal_bytes(&bytes);
        for (lsn, rec) in scan.records {
            if prev_lsn != 0 && lsn != prev_lsn + 1 {
                return Err(DurError::Corrupt(format!(
                    "wal {}: lsn {lsn} follows {prev_lsn}, sequence has a gap",
                    path.display()
                )));
            }
            prev_lsn = lsn;
            if lsn > base_lsn {
                apply_record(&mut tables, lsn, rec)?;
                replayed += 1;
            }
        }
        if let Some(msg) = scan.failure {
            let is_last = i == last_idx;
            let end = scan.valid_end as usize;
            if is_last && !wal::resync_finds_valid_frame(&bytes, end) {
                // Torn tail: the one legitimate kind of damage — the
                // final record of the final file, with nothing valid
                // after it. Truncate and move on.
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_end)?;
                f.sync_data()?;
                metrics::metrics().recovery_truncated_tail.inc();
                truncated_tail = true;
            } else {
                return Err(DurError::Corrupt(format!(
                    "wal {}: {msg} at offset {end}, with committed records after it",
                    path.display()
                )));
            }
        }
    }

    metrics::metrics().wal_replayed_records.add(replayed);
    Ok(Recovered {
        tables,
        next_lsn: prev_lsn.max(base_lsn) + 1,
        replayed,
        truncated_tail,
    })
}

/// The live durability manager an engine holds while open.
pub struct Durability {
    options: Options,
    wal: wal::Wal,
    since_checkpoint: AtomicU64,
    checkpointing: AtomicBool,
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durability")
            .field("data_dir", &self.options.data_dir)
            .field("fsync", &self.options.fsync)
            .finish_non_exhaustive()
    }
}

impl Durability {
    /// Recover the catalog from disk and start accepting appends.
    pub fn open(options: &Options) -> Result<(Durability, HashMap<String, Batch>), DurError> {
        let (dur, recovered) = Durability::open_full(options)?;
        Ok((dur, recovered.tables))
    }

    /// Like [`Durability::open`] but hands back the whole [`Recovered`]
    /// state, including the per-table statistics.
    pub fn open_full(options: &Options) -> Result<(Durability, Recovered), DurError> {
        std::fs::create_dir_all(&options.data_dir)?;
        let recovered = recover(options)?;
        let wal = wal::Wal::create(&options.wal_dir(), options.fsync, recovered.next_lsn)?;
        let dur = Durability {
            options: options.clone(),
            wal,
            since_checkpoint: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
        };
        Ok((dur, recovered))
    }

    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Append one record (call with the engine's table write lock held
    /// so LSN order equals apply order). Returns the record's LSN.
    pub fn append(&self, rec: &WalRecord) -> Result<u64, DurError> {
        let lsn = self.wal.append(rec)?;
        self.since_checkpoint.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Block until `lsn` is durable per the configured policy. Called
    /// *after* releasing the table lock, right before acking.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), DurError> {
        self.wal.wait_durable(lsn)
    }

    /// Whether enough mutations have accumulated to warrant a
    /// checkpoint. Cheap; callable on every commit.
    pub fn should_checkpoint(&self) -> bool {
        let every = self.options.checkpoint_every;
        every > 0 && self.since_checkpoint.load(Ordering::Relaxed) >= every
    }

    /// Claim the single checkpointing slot. Pair with
    /// [`Durability::write_checkpoint`] (which releases it) or
    /// [`Durability::abandon_checkpoint`].
    pub fn try_begin_checkpoint(&self) -> bool {
        !self.checkpointing.swap(true, Ordering::SeqCst)
    }

    /// Release the checkpointing slot without writing (snapshot failed).
    pub fn abandon_checkpoint(&self) {
        self.checkpointing.store(false, Ordering::SeqCst);
    }

    /// Sync + rotate the WAL; returns the LSN the checkpoint captures.
    /// Call with the table write lock held, together with snapshotting.
    pub fn rotate_for_checkpoint(&self) -> Result<u64, DurError> {
        self.wal.rotate()
    }

    /// Spill `tables` (the snapshot taken at [`rotate_for_checkpoint`]
    /// time) as a checkpoint at `lsn`, then prune old history. Runs
    /// outside the table lock. Releases the checkpointing slot.
    ///
    /// [`rotate_for_checkpoint`]: Durability::rotate_for_checkpoint
    pub fn write_checkpoint(
        &self,
        lsn: u64,
        tables: &[(String, Arc<Batch>)],
    ) -> Result<u64, DurError> {
        let result = checkpoint::write_checkpoint(&self.options.checkpoints_dir(), lsn, tables);
        if result.is_ok() {
            self.since_checkpoint.store(0, Ordering::Relaxed);
            let _ = checkpoint::prune(&self.options.checkpoints_dir(), &self.options.wal_dir());
        }
        self.checkpointing.store(false, Ordering::SeqCst);
        result
    }
}

/// Convenience: open, run `f` over (durability, recovered tables), used
/// by tests; the engine wires the pieces itself.
pub fn open_dir(dir: &Path) -> Result<(Durability, HashMap<String, Batch>), DurError> {
    Durability::open(&Options::new(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::types::{Column, PgType};
    use colstore::{ColumnVec, Validity};

    fn batch(vals: &[i64]) -> Batch {
        Batch::new(
            vec![Column::new("x", PgType::Int8)],
            vec![ColumnVec::Int(vals.to_vec(), Validity::all_valid(vals.len()))],
            vals.len(),
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hq-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn empty_dir_recovers_empty() {
        let dir = tmp_dir("empty");
        let (dur, tables) = open_dir(&dir).unwrap();
        assert!(tables.is_empty());
        drop(dur);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replays_across_reopen() {
        let _turn = wal::FSYNC_SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("replay");
        {
            let (dur, _) = open_dir(&dir).unwrap();
            let l1 = dur
                .append(&WalRecord::CreateTable {
                    name: "t".into(),
                    schema: vec![Column::new("x", PgType::Int8)],
                })
                .unwrap();
            let l2 = dur
                .append(&WalRecord::InsertBatch { table: "t".into(), batch: batch(&[1, 2, 3]) })
                .unwrap();
            dur.wait_durable(l2).unwrap();
            assert_eq!((l1, l2), (1, 2));
        }
        let (dur, tables) = open_dir(&dir).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables["t"].rows(), 3);
        // LSNs continue after the replayed tail.
        let l3 = dur.append(&WalRecord::DropTable { name: "t".into() }).unwrap();
        assert_eq!(l3, 3);
        drop(dur);
        let (_, tables) = open_dir(&dir).unwrap();
        assert!(tables.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail_recovers_and_prunes() {
        let dir = tmp_dir("cp");
        {
            let (dur, _) = open_dir(&dir).unwrap();
            dur.append(&WalRecord::PutTable { name: "t".into(), batch: batch(&[1]) }).unwrap();
            dur.append(&WalRecord::PutTable { name: "u".into(), batch: batch(&[2, 3]) }).unwrap();
            assert!(dur.try_begin_checkpoint());
            let lsn = dur.rotate_for_checkpoint().unwrap();
            assert_eq!(lsn, 2);
            dur.write_checkpoint(
                lsn,
                &[
                    ("t".to_string(), Arc::new(batch(&[1]))),
                    ("u".to_string(), Arc::new(batch(&[2, 3]))),
                ],
            )
            .unwrap();
            // Tail after the checkpoint.
            dur.append(&WalRecord::InsertBatch { table: "t".into(), batch: batch(&[9]) }).unwrap();
        }
        let (_, rec) = Durability::open_full(&Options::new(&dir)).unwrap();
        assert_eq!(rec.tables["t"].rows(), 2);
        assert_eq!(rec.tables["u"].rows(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The statistics sidecar checkpoints used to carry (`STATS`, magic
    /// `HQSTAT01`), as that writer laid it out for one table `t` whose
    /// column `x` held 1, 2, 2. No manifest names it.
    const OLD_STATS_SIDECAR: &str = "\
        4851535441543031010000000100000074030000000000000001000000010000007800000000\
        0000000000000000000000000000000000000000000001000000000000000000000000000000\
        000000000000000000000000000000000000000000000000000200000000f6877803";

    #[test]
    fn an_old_stats_sidecar_is_ignored_by_recovery() {
        let dir = tmp_dir("old-stats");
        {
            let (dur, _) = open_dir(&dir).unwrap();
            dur.append(&WalRecord::PutTable { name: "t".into(), batch: batch(&[1, 2, 2]) })
                .unwrap();
            assert!(dur.try_begin_checkpoint());
            let lsn = dur.rotate_for_checkpoint().unwrap();
            dur.write_checkpoint(lsn, &[("t".to_string(), Arc::new(batch(&[1, 2, 2])))]).unwrap();
            dur.append(&WalRecord::InsertBatch { table: "t".into(), batch: batch(&[7]) }).unwrap();
        }
        let cp = checkpoint::list_checkpoints(&Options::new(&dir).checkpoints_dir()).remove(0).1;
        let mut files: Vec<String> = std::fs::read_dir(&cp)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["000000.seg", "MANIFEST"], "a checkpoint is its segments and manifest");
        let (_, before) = Durability::open_full(&Options::new(&dir)).unwrap();
        let old: Vec<u8> = (0..OLD_STATS_SIDECAR.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&OLD_STATS_SIDECAR[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(&old[..8], b"HQSTAT01");
        for sidecar in [&old[..], b"damaged"] {
            std::fs::write(cp.join("STATS"), sidecar).unwrap();
            let (_, rec) = Durability::open_full(&Options::new(&dir)).unwrap();
            assert_eq!(rec.tables.len(), 1);
            assert!(rec.tables["t"].structurally_equal(&before.tables["t"]));
            assert!(rec.tables["t"].structurally_equal(&batch(&[1, 2, 2, 7])));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        {
            let (dur, _) = open_dir(&dir).unwrap();
            dur.append(&WalRecord::PutTable { name: "t".into(), batch: batch(&[1]) }).unwrap();
            assert!(dur.try_begin_checkpoint());
            let lsn = dur.rotate_for_checkpoint().unwrap();
            dur.write_checkpoint(lsn, &[("t".to_string(), Arc::new(batch(&[1])))]).unwrap();
            dur.append(&WalRecord::InsertBatch { table: "t".into(), batch: batch(&[2]) }).unwrap();
            assert!(dur.try_begin_checkpoint());
            let lsn = dur.rotate_for_checkpoint().unwrap();
            dur.write_checkpoint(lsn, &[("t".to_string(), Arc::new(batch(&[1, 2])))]).unwrap();
        }
        // Damage the newest checkpoint's segment.
        let cps = checkpoint::list_checkpoints(&Options::new(&dir).checkpoints_dir());
        assert_eq!(cps.len(), 2);
        std::fs::remove_file(cps[0].1.join("000000.seg")).unwrap();
        let (_, tables) = open_dir(&dir).unwrap();
        // Previous checkpoint (rows [1]) + WAL tail replay (insert 2).
        assert_eq!(tables["t"].rows(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_mid_file_corruption_is_an_error() {
        let dir = tmp_dir("tear");
        {
            let (dur, _) = open_dir(&dir).unwrap();
            for i in 0..3 {
                dur.append(&WalRecord::PutTable { name: format!("t{i}"), batch: batch(&[i]) })
                    .unwrap();
            }
        }
        let wal_path = Options::new(&dir).wal_dir().join(wal::wal_file_name(1));
        let bytes = std::fs::read(&wal_path).unwrap();

        // Torn tail: drop the final 3 bytes.
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, tables) = open_dir(&dir).unwrap();
        assert_eq!(tables.len(), 2, "torn third record dropped, first two recovered");
        // The truncate persisted: reopen sees a clean file.
        let rec = recover(&Options::new(&dir)).unwrap();
        assert!(!rec.truncated_tail);

        // Mid-file corruption: flip a byte inside the first record.
        std::fs::write(&wal_path, &bytes).unwrap();
        let mut dam = bytes.clone();
        dam[10] ^= 0x10;
        std::fs::write(&wal_path, &dam).unwrap();
        match recover(&Options::new(&dir)) {
            Err(DurError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.tables.len())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn options_env_parsing() {
        // Uses explicit constructors; from_env is covered by the chaos
        // suite end-to-end (env vars are process-global, not test-safe).
        let o = Options::new("/tmp/x");
        assert_eq!(o.checkpoint_every, 1024);
        assert_eq!(o.fsync, FsyncPolicy::GROUP);
    }
}
