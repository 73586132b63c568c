//! Per-table statistics: row counts, per-column null counts and a
//! small HyperLogLog-style distinct sketch.
//!
//! Exists for hqbench until ROADMAP item 8 step A: its
//! `colstore.stats_update_us` probe times [`TableStats::observe_batch`].
//! Nothing in the system reads these numbers; the shard router places
//! tables from the partition keys it routes.
//!
//! Cells are hashed through their [`CellKey`] canonical projection so
//! the sketch's notion of "distinct" matches SQL grouping/equality
//! semantics (integral floats fold onto integers, NaNs collapse to one
//! canonical NaN) rather than raw storage representation.

use crate::batch::Batch;
use crate::key::CellKey;

/// Number of HLL registers. 64 keeps the sketch at 64 bytes per column
/// while resolving cardinalities far beyond any realistic shard count.
const SKETCH_REGISTERS: usize = 64;

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

    /// Standard HLL estimate with the small-range linear-counting
    /// correction. Good to ~13% relative error at m=64.
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
}

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColStats {
    /// Number of NULL cells observed.
    pub nulls: u64,
    /// Distinct-value sketch over non-null cells.
    pub sketch: DistinctSketch,
}

/// Per-table statistics: row count plus per-column null counts and
/// distinct sketches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total rows in the table.
    pub rows: u64,
    /// One entry per column, in schema order.
    pub cols: Vec<ColStats>,
}

impl TableStats {
    /// Statistics of one batch.
    pub fn from_batch(batch: &Batch) -> TableStats {
        let mut s = TableStats { rows: 0, cols: vec![ColStats::default(); batch.columns.len()] };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnVec;
    use crate::types::{Cell, Column, PgType};

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

        let mut inc = TableStats::from_batch(&b1);
        inc.observe_batch(&b2);
        assert_eq!(inc, TableStats::from_batch(&whole));
        assert_eq!(inc.rows, 6);
        assert_eq!(inc.cols[1].nulls, 2);
    }

    #[test]
    fn canonical_projection_folds_integral_floats() {
        let mut a = DistinctSketch::new();
        a.observe(&CellKey::from_cell(&Cell::Int(5)));
        let mut b = DistinctSketch::new();
        b.observe(&CellKey::from_cell(&Cell::Float(5.0)));
        assert_eq!(a, b, "Int(5) and Float(5.0) must sketch identically");
    }
}
