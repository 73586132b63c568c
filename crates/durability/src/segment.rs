//! On-disk columnar segments: one table's batch per file.
//!
//! ## Layout
//!
//! ```text
//! ┌──────────────┬──────────────┬───┬────────┬──────────────┬─────────┬───────────┐
//! │ column 0 blk │ column 1 blk │ … │ footer │ footer_len   │ crc u32 │ magic 8 B │
//! │              │              │   │        │ u32          │         │ "HQSEGV01"│
//! └──────────────┴──────────────┴───┴────────┴──────────────┴─────────┴───────────┘
//! ```
//!
//! The footer carries the format version, table name, row count and a
//! per-column directory of `(column def, offset, length)` — readers
//! seek straight to a column without parsing its neighbours. The CRC-32
//! covers every byte before it (all column blocks + footer +
//! footer_len), so a bit flip anywhere in the file is a typed
//! [`DurError::Corrupt`], never a panic and never silently wrong data.
//!
//! Segments are written to a temp file in the same directory, synced,
//! then atomically renamed into place: a crash mid-write leaves a
//! `.tmp-*` orphan, never a half-valid segment under the real name.

use crate::codec::{self, Cursor};
use crate::{crc, fault, DurError};
use colstore::Batch;
use std::io::Write;
use std::path::Path;

/// Trailing magic: identifies the format and its version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"HQSEGV01";
/// Format version inside the footer (bumped independently of the magic
/// for compatible extensions).
pub const SEGMENT_VERSION: u16 = 1;

/// Serialize `batch` into the full segment byte image.
pub fn segment_bytes(table: &str, batch: &Batch) -> Vec<u8> {
    let mut out = Vec::new();
    let mut directory = Vec::with_capacity(batch.columns.len());
    for col in &batch.columns {
        let offset = out.len() as u64;
        codec::encode_column_block(&mut out, col);
        directory.push((offset, out.len() as u64 - offset));
    }

    let mut footer = Vec::new();
    footer.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    codec::put_string(&mut footer, table);
    codec::put_u64(&mut footer, batch.rows() as u64);
    codec::put_u32(&mut footer, batch.schema.len() as u32);
    for (col, (offset, len)) in batch.schema.iter().zip(&directory) {
        codec::encode_column_def(&mut footer, col);
        codec::put_u64(&mut footer, *offset);
        codec::put_u64(&mut footer, *len);
    }

    out.extend_from_slice(&footer);
    codec::put_u32(&mut out, footer.len() as u32);
    let sum = crc::crc32(&out);
    codec::put_u32(&mut out, sum);
    out.extend_from_slice(SEGMENT_MAGIC);
    out
}

/// Write a segment via temp file + fsync + atomic rename. Returns the
/// byte size written.
pub fn write_segment(path: &Path, table: &str, batch: &Batch) -> Result<u64, DurError> {
    let bytes = segment_bytes(table, batch);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| DurError::Io("segment path has no file name".into()))?;
    let tmp = path.with_file_name(format!(".tmp-{file_name}"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    fault::crash_point("segment.before-rename");
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Decode a segment byte image back into `(table name, batch)`.
pub fn decode_segment(bytes: &[u8]) -> Result<(String, Batch), DurError> {
    let corrupt = |msg: &str| DurError::Corrupt(format!("segment: {msg}"));
    if bytes.len() < 16 {
        return Err(corrupt("shorter than its trailer"));
    }
    let (rest, magic) = bytes.split_at(bytes.len() - 8);
    if magic != SEGMENT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let (covered, crc_bytes) = rest.split_at(rest.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc::crc32(covered) != want {
        return Err(corrupt("checksum mismatch"));
    }
    if covered.len() < 4 {
        return Err(corrupt("missing footer length"));
    }
    let (body_and_footer, len_bytes) = covered.split_at(covered.len() - 4);
    let footer_len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    if footer_len > body_and_footer.len() {
        return Err(corrupt("footer length exceeds file"));
    }
    let (body, footer) = body_and_footer.split_at(body_and_footer.len() - footer_len);

    let mut f = Cursor::new(footer);
    let version = u16::from_le_bytes([f.u8()?, f.u8()?]);
    if version != SEGMENT_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let table = f.string()?;
    let rows = usize::try_from(f.u64()?).map_err(|_| corrupt("row count overflows"))?;
    let ncols = f.u32()? as usize;
    if ncols.saturating_mul(21) > footer.len() {
        return Err(corrupt("column directory larger than footer"));
    }
    let mut schema = Vec::with_capacity(ncols);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let mut col = codec::decode_column_def(&mut f)?;
        let offset = usize::try_from(f.u64()?).map_err(|_| corrupt("offset overflows"))?;
        let len = usize::try_from(f.u64()?).map_err(|_| corrupt("length overflows"))?;
        let end = offset.checked_add(len).ok_or_else(|| corrupt("offset+length overflows"))?;
        if end > body.len() {
            return Err(corrupt("column block outside body"));
        }
        let mut c = Cursor::new(&body[offset..end]);
        let vec = codec::decode_column_block(&mut c, &mut col)?;
        if !c.is_done() {
            return Err(corrupt("column block has trailing bytes"));
        }
        if vec.len() != rows {
            return Err(corrupt(&format!(
                "column \"{}\" has {} rows, segment declares {rows}",
                col.name,
                vec.len()
            )));
        }
        schema.push(col);
        columns.push(vec);
    }
    Ok((table, Batch::new(schema, columns, rows)))
}

/// Read + decode a segment file.
pub fn read_segment(path: &Path) -> Result<(String, Batch), DurError> {
    decode_segment(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::types::{Column, PgType};
    use colstore::{ColumnVec, Validity};

    fn sample() -> Batch {
        let mut v = Validity::all_valid(3);
        v.set_null(2);
        Batch::new(
            vec![Column::new("x", PgType::Int8), Column::new("s", PgType::Text)],
            vec![
                ColumnVec::Int(vec![1, 2, 0], v.clone()),
                ColumnVec::Text(vec!["a".into(), "b".into(), String::new()], v),
            ],
            3,
        )
    }

    #[test]
    fn segment_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("hq-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("0.seg");
        let batch = sample();
        write_segment(&path, "trades", &batch).unwrap();
        let (name, got) = read_segment(&path).unwrap();
        assert_eq!(name, "trades");
        assert!(batch.structurally_equal(&got));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error_or_detected() {
        let bytes = segment_bytes("t", &sample());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[byte] ^= 1 << bit;
                match decode_segment(&dam) {
                    Err(DurError::Corrupt(_)) => {}
                    Err(other) => panic!("byte {byte} bit {bit}: unexpected error {other}"),
                    Ok((name, got)) => panic!(
                        "byte {byte} bit {bit}: decoded silently (name={name}, rows={})",
                        got.rows()
                    ),
                }
            }
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        let bytes = segment_bytes("t", &sample());
        for cut in 0..bytes.len() {
            assert!(matches!(decode_segment(&bytes[..cut]), Err(DurError::Corrupt(_))), "cut {cut}");
        }
    }
}
