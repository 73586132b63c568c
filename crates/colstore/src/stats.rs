//! Lightweight per-table statistics: row counts, per-column null counts
//! and a small HyperLogLog-style distinct sketch.
//!
//! The sketch is deliberately tiny (64 single-byte registers) because its
//! only consumer is the shard planner, which needs coarse answers to
//! "are there at least as many distinct keys as shards?" and "is this
//! table small enough to broadcast?". Registers combine by `max`, so
//! observation order never matters: recomputing stats from a batch and
//! accumulating them insert-by-insert yield identical sketches, which is
//! what lets WAL replay maintain stats incrementally while checkpoint
//! recovery loads a persisted copy.
//!
//! Cells are hashed through their [`CellKey`] canonical projection so
//! the sketch's notion of "distinct" matches SQL grouping/equality
//! semantics (integral floats fold onto integers, NaNs collapse to one
//! canonical NaN) rather than raw storage representation.

use crate::batch::Batch;
use crate::key::CellKey;
use crate::types::Column;

/// Number of HLL registers. 64 keeps the sketch at 64 bytes per column
/// while resolving cardinalities far beyond any realistic shard count.
pub const SKETCH_REGISTERS: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a cell's canonical key projection. NULLs are never hashed (they
/// are tracked by the null counter instead).
fn hash_key(key: &CellKey) -> Option<u64> {
    let mut h = FNV_OFFSET;
    match key {
        CellKey::Null => return None,
        CellKey::Int(v) => {
            h = fnv1a(&[2], h);
            h = fnv1a(&v.to_le_bytes(), h);
        }
        CellKey::Float(bits) => {
            h = fnv1a(&[3], h);
            h = fnv1a(&bits.to_le_bytes(), h);
        }
        CellKey::Text(s) => {
            h = fnv1a(&[4], h);
            h = fnv1a(s.as_bytes(), h);
        }
    }
    Some(h)
}

/// A 64-register HyperLogLog-style distinct-count sketch.
///
/// Insertion-order independent and mergeable (register-wise max), so
/// per-shard sketches combine into a global one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    regs: [u8; SKETCH_REGISTERS],
}

impl Default for DistinctSketch {
    fn default() -> DistinctSketch {
        DistinctSketch { regs: [0; SKETCH_REGISTERS] }
    }
}

impl DistinctSketch {
    pub fn new() -> DistinctSketch {
        DistinctSketch::default()
    }

    /// Observe one non-null cell key.
    pub fn observe(&mut self, key: &CellKey) {
        let Some(h) = hash_key(key) else { return };
        // Top 6 bits pick the register; the rank is the position of the
        // first set bit in the remaining 58 (1-based, capped).
        let idx = (h >> 58) as usize;
        let rest = h << 6;
        let rank = (rest.leading_zeros() as u8).min(57) + 1;
        if rank > self.regs[idx] {
            self.regs[idx] = rank;
        }
    }

    /// Register-wise max merge (union of the observed multisets).
    pub fn merge(&mut self, other: &DistinctSketch) {
        for (r, o) in self.regs.iter_mut().zip(other.regs.iter()) {
            if *o > *r {
                *r = *o;
            }
        }
    }

    /// Standard HLL estimate with the small-range linear-counting
    /// correction. Good to ~13% relative error at m=64, which is far
    /// more precision than the planner needs.
    pub fn estimate(&self) -> u64 {
        let m = SKETCH_REGISTERS as f64;
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.regs {
            sum += 1.0 / f64::from(1u32 << u32::from(r.min(31)));
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.709; // alpha_64
        let raw = alpha * m * m / sum;
        let est = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        est.round().max(0.0) as u64
    }

    pub fn registers(&self) -> &[u8; SKETCH_REGISTERS] {
        &self.regs
    }

    pub fn from_registers(regs: [u8; SKETCH_REGISTERS]) -> DistinctSketch {
        DistinctSketch { regs }
    }
}

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    /// Column name (matches the table schema).
    pub name: String,
    /// Number of NULL cells observed.
    pub nulls: u64,
    /// Distinct-value sketch over non-null cells.
    pub sketch: DistinctSketch,
}

impl ColStats {
    pub fn new(name: &str) -> ColStats {
        ColStats { name: name.to_string(), nulls: 0, sketch: DistinctSketch::new() }
    }

    /// Estimated number of distinct non-null values.
    pub fn distinct_estimate(&self) -> u64 {
        self.sketch.estimate()
    }
}

/// Per-table statistics: row count plus per-column null counts and
/// distinct sketches, maintained incrementally by the storage engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total rows in the table.
    pub rows: u64,
    /// One entry per column, in schema order.
    pub cols: Vec<ColStats>,
}

impl TableStats {
    /// Empty stats for a fresh table with the given schema.
    pub fn empty(schema: &[Column]) -> TableStats {
        TableStats { rows: 0, cols: schema.iter().map(|c| ColStats::new(&c.name)).collect() }
    }

    /// Full recompute from a batch (used for CTAS / bulk loads and as
    /// the recovery fallback when no persisted stats are available).
    pub fn from_batch(batch: &Batch) -> TableStats {
        let mut s = TableStats::empty(&batch.schema);
        s.observe_batch(batch);
        s
    }

    /// Fold an appended batch into the running stats. Column mismatch
    /// (schema drift) degrades gracefully: extra columns are ignored.
    pub fn observe_batch(&mut self, batch: &Batch) {
        self.rows += batch.rows() as u64;
        for (ci, col) in batch.columns.iter().enumerate() {
            let Some(cs) = self.cols.get_mut(ci) else { break };
            for i in 0..col.len() {
                let key = col.key_at(i);
                if matches!(key, CellKey::Null) {
                    cs.nulls += 1;
                } else {
                    cs.sketch.observe(&key);
                }
            }
        }
    }

    /// Merge another table's stats into this one (per-shard → global).
    pub fn merge(&mut self, other: &TableStats) {
        self.rows += other.rows;
        for (cs, os) in self.cols.iter_mut().zip(other.cols.iter()) {
            cs.nulls += os.nulls;
            cs.sketch.merge(&os.sketch);
        }
    }

    /// Fraction of NULLs in the named column (0.0 for empty tables or
    /// unknown columns).
    pub fn null_fraction(&self, col: &str) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.col(col).map(|c| c.nulls as f64 / self.rows as f64).unwrap_or(0.0)
    }

    /// Per-column stats by name.
    pub fn col(&self, name: &str) -> Option<&ColStats> {
        self.cols.iter().find(|c| c.name == name)
    }

    /// Distinct estimate for the named column, if tracked.
    pub fn distinct(&self, name: &str) -> Option<u64> {
        self.col(name).map(|c| c.distinct_estimate())
    }

    // --- persistence (checkpoint STATS file payload) -----------------

    /// Serialize to a self-describing little-endian byte layout:
    /// `rows u64 | ncols u32 | { name_len u32, name bytes, nulls u64,
    /// regs[64] }*`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        for c in &self.cols {
            out.extend_from_slice(&(c.name.len() as u32).to_le_bytes());
            out.extend_from_slice(c.name.as_bytes());
            out.extend_from_slice(&c.nulls.to_le_bytes());
            out.extend_from_slice(c.sketch.registers());
        }
    }

    /// Decode from the layout written by [`TableStats::encode`],
    /// advancing `pos`. Returns `None` on any truncation or malformed
    /// field (callers fall back to recomputing from data).
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<TableStats> {
        fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
            let s = buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let rows = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
        let ncols = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
        if ncols > 1 << 20 {
            return None;
        }
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let nlen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
            if nlen > 1 << 20 {
                return None;
            }
            let name = String::from_utf8(take(buf, pos, nlen)?.to_vec()).ok()?;
            let nulls = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
            let regs: [u8; SKETCH_REGISTERS] =
                take(buf, pos, SKETCH_REGISTERS)?.try_into().ok()?;
            cols.push(ColStats { name, nulls, sketch: DistinctSketch::from_registers(regs) });
        }
        Some(TableStats { rows, cols })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnVec;
    use crate::types::{Cell, PgType};

    fn batch(ids: &[i64], syms: &[Option<&str>]) -> Batch {
        let schema = vec![
            Column { name: "id".into(), ty: PgType::Int8 },
            Column { name: "sym".into(), ty: PgType::Varchar },
        ];
        let id_cells = ids.iter().map(|v| Cell::Int(*v)).collect();
        let idc = ColumnVec::from_cells(PgType::Int8, id_cells).unwrap();
        let symc = ColumnVec::from_cells(
            PgType::Varchar,
            syms.iter()
                .map(|s| s.map(|t| Cell::Text(t.to_string())).unwrap_or(Cell::Null))
                .collect(),
        )
        .unwrap();
        Batch::new(schema, vec![idc, symc], ids.len())
    }

    #[test]
    fn sketch_estimates_small_cardinalities_exactly_enough() {
        let mut s = DistinctSketch::new();
        for i in 0..4i64 {
            for _ in 0..100 {
                s.observe(&CellKey::Int(i));
            }
        }
        let est = s.estimate();
        assert!((2..=8).contains(&est), "estimate {est} too far from 4");

        let mut big = DistinctSketch::new();
        for i in 0..10_000i64 {
            big.observe(&CellKey::Int(i));
        }
        let est = big.estimate() as f64;
        assert!((5_000.0..20_000.0).contains(&est), "estimate {est} too far from 10000");
    }

    #[test]
    fn incremental_observation_matches_bulk_recompute() {
        let b1 = batch(&[1, 2, 3], &[Some("a"), None, Some("b")]);
        let b2 = batch(&[3, 4, 5], &[Some("b"), Some("c"), None]);
        let mut whole = b1.clone();
        whole.append(b2.clone());

        let mut inc = TableStats::empty(&b1.schema);
        inc.observe_batch(&b1);
        inc.observe_batch(&b2);
        assert_eq!(inc, TableStats::from_batch(&whole));
        assert_eq!(inc.rows, 6);
        assert_eq!(inc.col("sym").unwrap().nulls, 2);
        assert!((inc.null_fraction("sym") - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_union() {
        let b1 = batch(&[1, 2, 3], &[Some("a"), Some("a"), Some("b")]);
        let b2 = batch(&[4, 5, 6], &[Some("c"), None, Some("a")]);
        let mut m = TableStats::from_batch(&b1);
        m.merge(&TableStats::from_batch(&b2));
        let mut whole = b1;
        whole.append(b2);
        assert_eq!(m, TableStats::from_batch(&whole));
    }

    #[test]
    fn canonical_projection_folds_integral_floats() {
        let mut a = DistinctSketch::new();
        a.observe(&CellKey::from_cell(&Cell::Int(5)));
        let mut b = DistinctSketch::new();
        b.observe(&CellKey::from_cell(&Cell::Float(5.0)));
        assert_eq!(a, b, "Int(5) and Float(5.0) must sketch identically");
    }

    #[test]
    fn encode_decode_round_trips() {
        let b = batch(&[1, 2, 3, 4], &[Some("x"), None, Some("y"), Some("x")]);
        let stats = TableStats::from_batch(&b);
        let mut buf = Vec::new();
        stats.encode(&mut buf);
        let mut pos = 0;
        let back = TableStats::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, stats);
        assert_eq!(pos, buf.len());
        // Truncation is detected, not misread.
        let mut pos = 0;
        assert!(TableStats::decode(&buf[..buf.len() - 1], &mut pos).is_none());
    }
}
