//! Naive reference implementations of the executor's hashed hot paths.
//!
//! These are the pre-optimization O(n²) scans, kept as the semantic
//! oracle: debug assertions check the hash paths against them on small
//! inputs, and property tests check them on random tables. Compiled,
//! like the row pipeline whose hash paths they check, for tests and
//! debug builds only. They must NOT be "improved" — their value is
//! being obviously correct under [`Cell::not_distinct`] semantics.

use super::rows_equal;
use super::{EquiPair, Frame};
use crate::sql::ast::JoinType;
use crate::types::Cell;

/// O(n²) dedup keeping first occurrences.
pub fn dedup_rows_naive(rows: &mut Vec<Vec<Cell>>) {
    let mut seen: Vec<Vec<Cell>> = Vec::new();
    rows.retain(|r| {
        if seen.iter().any(|s| rows_equal(s, r)) {
            false
        } else {
            seen.push(r.clone());
            true
        }
    });
}

/// O(n·m) EXCEPT: distinct left rows with no right match.
pub fn except_rows_naive(left: &mut Vec<Vec<Cell>>, right: &[Vec<Cell>]) {
    left.retain(|r| !right.iter().any(|s| rows_equal(r, s)));
    dedup_rows_naive(left);
}

/// O(n·m) INTERSECT: distinct left rows with a right match.
pub fn intersect_rows_naive(left: &mut Vec<Vec<Cell>>, right: &[Vec<Cell>]) {
    left.retain(|r| right.iter().any(|s| rows_equal(r, s)));
    dedup_rows_naive(left);
}

/// O((n+m)²) UNION (distinct).
pub fn union_rows_naive(left: &mut Vec<Vec<Cell>>, right: Vec<Vec<Cell>>) {
    left.extend(right);
    dedup_rows_naive(left);
}

/// O(n·g) grouping by linear scan over the group list.
pub fn group_indices_naive(keys: Vec<Vec<Cell>>) -> Vec<(Vec<Cell>, Vec<usize>)> {
    let mut groups: Vec<(Vec<Cell>, Vec<usize>)> = Vec::new();
    for (ri, key) in keys.into_iter().enumerate() {
        match groups.iter_mut().find(|(k, _)| rows_equal(k, &key)) {
            Some((_, rows)) => rows.push(ri),
            None => groups.push((key, vec![ri])),
        }
    }
    groups
}

/// O(n²) DISTINCT over cells.
pub fn dedup_cells_naive(values: &mut Vec<Cell>) {
    let mut seen: Vec<Cell> = Vec::new();
    values.retain(|v| {
        if seen.iter().any(|s| s.not_distinct(v)) {
            false
        } else {
            seen.push(v.clone());
            true
        }
    });
}

/// Hashable projection of a cell as a formatted string — the join key
/// the executor used before [`super::key::CellKey`].
pub fn cell_hash_key_string(c: &Cell) -> String {
    match c {
        Cell::Null => "\u{0}N".to_string(),
        Cell::Bool(b) => format!("b{b}"),
        Cell::Int(v) => format!("i{v}"),
        Cell::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() && f.abs() < 9e15 {
                format!("i{}", *f as i64)
            } else {
                format!("f{}", f.to_bits())
            }
        }
        Cell::Text(s) => format!("t{s}"),
        Cell::Date(d) => format!("i{d}"),
        Cell::Time(t) => format!("i{t}"),
        Cell::Timestamp(t) => format!("i{t}"),
    }
}

/// The pre-optimization hash join: per-row `format!`-built `String`
/// keys over a `HashMap<String, _>` index.
pub fn hash_join_string_keyed(
    l: &Frame,
    r: &Frame,
    pairs: &[EquiPair],
    kind: JoinType,
    out: &mut Vec<Vec<Cell>>,
) {
    use std::collections::HashMap;
    let mut index: HashMap<String, Vec<usize>> = HashMap::with_capacity(r.rows.len());
    'right: for (ri, row) in r.rows.iter().enumerate() {
        let mut key = String::new();
        for p in pairs {
            let c = &row[p.right];
            if c.is_null() && !p.nulls_match {
                continue 'right;
            }
            key.push_str(&cell_hash_key_string(c));
            key.push('\u{1}');
        }
        index.entry(key).or_default().push(ri);
    }
    'left: for lrow in &l.rows {
        let mut key = String::new();
        let mut skip = false;
        for p in pairs {
            let c = &lrow[p.left];
            if c.is_null() && !p.nulls_match {
                skip = true;
                break;
            }
            key.push_str(&cell_hash_key_string(c));
            key.push('\u{1}');
        }
        if !skip {
            if let Some(matches) = index.get(&key) {
                for &ri in matches {
                    let mut row = lrow.clone();
                    row.extend(r.rows[ri].iter().cloned());
                    out.push(row);
                }
                continue 'left;
            }
        }
        if kind == JoinType::Left {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Cell::Null, r.cols.len()));
            out.push(row);
        }
    }
}
