//! Checkpoints: the WAL's periodic compaction into columnar segments.
//!
//! A checkpoint is a directory `checkpoints/cp-<lsn %016x>/` holding one
//! [`crate::segment`] file per table plus a checksummed `MANIFEST`
//! naming them. It captures the exact state through `lsn`; recovery
//! loads the newest *valid* one and replays only WAL records above it.
//!
//! Crash safety is rename-based at two levels: each segment is written
//! `.tmp` + rename, and the whole directory is assembled under
//! `.tmp-cp-<lsn>` and renamed into place only after every segment and
//! the manifest are synced. A crash mid-checkpoint therefore leaves
//! either the previous world (tmp orphan, cleaned up next prune) or the
//! new one — never a half checkpoint under a real name.
//!
//! Retention keeps the newest **two** checkpoints and every WAL file at
//! or above the older one: if the newest checkpoint is later damaged
//! (the chaos suite deletes a segment), recovery falls back to the
//! previous checkpoint plus a longer replay, with nothing lost.

use crate::codec::{self, Cursor};
use crate::metrics::metrics;
use crate::wal::parse_wal_file_name;
use crate::{crc, fault, segment, DurError};
use colstore::Batch;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_MAGIC: &[u8; 8] = b"HQMANI01";
const MANIFEST_VERSION: u16 = 1;

/// Directory name for the checkpoint capturing state through `lsn`.
pub fn checkpoint_dir_name(lsn: u64) -> String {
    format!("cp-{lsn:016x}")
}

fn parse_checkpoint_dir_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("cp-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// All committed checkpoints under `dir`, newest first.
pub fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    for entry in entries.flatten() {
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_checkpoint_dir_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|e| std::cmp::Reverse(e.0));
    out
}

fn encode_manifest(lsn: u64, tables: &[(String, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    codec::put_u64(&mut out, lsn);
    codec::put_u32(&mut out, tables.len() as u32);
    for (table, seg) in tables {
        codec::put_string(&mut out, table);
        codec::put_string(&mut out, seg);
    }
    let sum = crc::crc32(&out);
    codec::put_u32(&mut out, sum);
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<(String, String)>), DurError> {
    let corrupt = |msg: &str| DurError::Corrupt(format!("manifest: {msg}"));
    if bytes.len() < 12 {
        return Err(corrupt("too short"));
    }
    let (covered, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc::crc32(covered) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(corrupt("checksum mismatch"));
    }
    if &covered[..8] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut c = Cursor::new(&covered[8..]);
    let version = u16::from_le_bytes([c.u8()?, c.u8()?]);
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let lsn = c.u64()?;
    let count = c.u32()? as usize;
    if count.saturating_mul(8) > c.remaining() {
        return Err(corrupt("table count larger than manifest"));
    }
    let mut tables = Vec::with_capacity(count);
    for _ in 0..count {
        tables.push((c.string()?, c.string()?));
    }
    if !c.is_done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok((lsn, tables))
}

/// Best-effort directory fsync (rename durability on POSIX).
fn sync_dir(dir: &Path) {
    if let Ok(f) = std::fs::File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Write a full checkpoint capturing `tables` through `lsn`. Returns
/// total segment bytes written.
pub fn write_checkpoint(
    checkpoints_dir: &Path,
    lsn: u64,
    tables: &[(String, Arc<Batch>)],
) -> Result<u64, DurError> {
    std::fs::create_dir_all(checkpoints_dir)?;
    let tmp = checkpoints_dir.join(format!(".tmp-{}", checkpoint_dir_name(lsn)));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    std::fs::create_dir_all(&tmp)?;

    let mut manifest_entries = Vec::with_capacity(tables.len());
    let mut total = 0u64;
    for (i, (name, batch)) in tables.iter().enumerate() {
        let seg_name = format!("{i:06}.seg");
        total += segment::write_segment(&tmp.join(&seg_name), name, batch)?;
        manifest_entries.push((name.clone(), seg_name));
        fault::crash_point("checkpoint.mid-segments");
    }

    let manifest = encode_manifest(lsn, &manifest_entries);
    {
        let mpath = tmp.join(".tmp-MANIFEST");
        let mut f = std::fs::File::create(&mpath)?;
        f.write_all(&manifest)?;
        f.sync_data()?;
        std::fs::rename(&mpath, tmp.join("MANIFEST"))?;
    }
    sync_dir(&tmp);
    fault::crash_point("checkpoint.before-rename");
    std::fs::rename(&tmp, checkpoints_dir.join(checkpoint_dir_name(lsn)))?;
    sync_dir(checkpoints_dir);
    metrics().checkpoint_bytes.add(total);
    metrics().checkpoints.inc();
    Ok(total)
}

/// Load one checkpoint directory: `(lsn, tables)` or a typed error if
/// anything inside it is missing or damaged.
pub fn load_checkpoint(dir: &Path) -> Result<(u64, Vec<(String, Batch)>), DurError> {
    let (lsn, entries) = decode_manifest(&std::fs::read(dir.join("MANIFEST"))?)?;
    let declared = dir
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_checkpoint_dir_name);
    if declared != Some(lsn) {
        return Err(DurError::Corrupt(format!(
            "manifest lsn {lsn} does not match directory {:?}",
            dir.file_name()
        )));
    }
    let mut tables = Vec::with_capacity(entries.len());
    for (table, seg) in entries {
        let (seg_table, batch) = segment::read_segment(&dir.join(&seg))?;
        if seg_table != table {
            return Err(DurError::Corrupt(format!(
                "segment {seg} claims table \"{seg_table}\", manifest says \"{table}\""
            )));
        }
        tables.push((table, batch));
    }
    Ok((lsn, tables))
}

/// Drop checkpoints beyond the newest two (plus any `.tmp-*` orphans),
/// then drop WAL files wholly below the older retained checkpoint.
pub fn prune(checkpoints_dir: &Path, wal_dir: &Path) -> std::io::Result<()> {
    let cps = list_checkpoints(checkpoints_dir);
    for (_, path) in cps.iter().skip(2) {
        std::fs::remove_dir_all(path)?;
    }
    if let Ok(entries) = std::fs::read_dir(checkpoints_dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    // Oldest LSN any retained checkpoint still needs replay from.
    let Some(&(retain_lsn, _)) = cps.get(1).or_else(|| cps.first()) else {
        return Ok(());
    };
    let mut wal_files: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(wal_dir) {
        for entry in entries.flatten() {
            if let Some(start) = entry.file_name().to_str().and_then(parse_wal_file_name) {
                wal_files.push((start, entry.path()));
            }
        }
    }
    wal_files.sort();
    // A file is disposable when the *next* file starts at or below
    // retain_lsn + 1 — every record it holds is already in the older
    // retained checkpoint. The current (last) file always stays.
    for i in 0..wal_files.len().saturating_sub(1) {
        if wal_files[i + 1].0 <= retain_lsn + 1 {
            std::fs::remove_file(&wal_files[i].1)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::types::{Column, PgType};
    use colstore::{ColumnVec, Validity};

    fn batch(n: i64) -> Arc<Batch> {
        Arc::new(Batch::new(
            vec![Column::new("x", PgType::Int8)],
            vec![ColumnVec::Int((0..n).collect(), Validity::all_valid(n as usize))],
            n as usize,
        ))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hq-cp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = tmp_dir("rt");
        let tables = vec![("a".to_string(), batch(3)), ("b".to_string(), batch(5))];
        write_checkpoint(&dir, 42, &tables).unwrap();
        let listed = list_checkpoints(&dir);
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 42);
        let (lsn, loaded) = load_checkpoint(&listed[0].1).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].1.structurally_equal(&tables[0].1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_a_typed_error() {
        let dir = tmp_dir("miss");
        let tables = vec![("a".to_string(), batch(2))];
        write_checkpoint(&dir, 7, &tables).unwrap();
        let cp = list_checkpoints(&dir).remove(0).1;
        std::fs::remove_file(cp.join("000000.seg")).unwrap();
        assert!(load_checkpoint(&cp).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_two_checkpoints_and_the_wal_tail() {
        let cps = tmp_dir("prune-cp");
        let wal = tmp_dir("prune-wal");
        for lsn in [10u64, 20, 30] {
            write_checkpoint(&cps, lsn, &[("a".to_string(), batch(1))]).unwrap();
        }
        // WAL files starting at 1, 11, 21, 31 — records 1..=10 live in
        // the first file, which only the pruned cp-10 needed.
        for start in [1u64, 11, 21, 31] {
            std::fs::write(wal.join(crate::wal::wal_file_name(start)), b"").unwrap();
        }
        prune(&cps, &wal).unwrap();
        let kept: Vec<u64> = list_checkpoints(&cps).iter().map(|(l, _)| *l).collect();
        assert_eq!(kept, vec![30, 20]);
        let mut files: Vec<String> = std::fs::read_dir(&wal)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        // retain_lsn = 20: wal-1 (records ≤ 10) is droppable, wal-11
        // (records 11..=20) is droppable too since the next file starts
        // at 21 = retain_lsn + 1; wal-21 and wal-31 must stay.
        assert_eq!(
            files,
            vec![crate::wal::wal_file_name(21), crate::wal::wal_file_name(31)]
        );
        std::fs::remove_dir_all(&cps).unwrap();
        std::fs::remove_dir_all(&wal).unwrap();
    }
}
