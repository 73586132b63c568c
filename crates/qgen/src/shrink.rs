//! Delta-debugging shrinker.
//!
//! Given a diverging (program, dataset) pair, reduce both until the
//! divergence is minimal, in four passes:
//!
//! 1. **statement-level** — drop whole statements (try each singleton
//!    first: most bugs are one statement);
//! 2. **expression-level** — replace statements by structurally smaller
//!    candidates ([`GenStmt::shrink_candidates`]): fewer `where`
//!    conjuncts, fewer projections, a join replaced by one input;
//! 3. **row-level** — remove row chunks per table, halving the chunk
//!    size down to single rows (ddmin-style);
//! 4. **column-level** — drop columns the divergence doesn't need
//!    (dropping a referenced column makes *all* executors error, which
//!    counts as agreement, so such drops reject themselves).
//!
//! Every candidate is re-checked on **fresh** arms of the fuzz row
//! ([`crate::fuzz::check`]) so accepted reductions never depend on
//! leftover session state. The total number of checks is bounded; when
//! the budget is exhausted the current (already reduced) form is
//! returned.

use crate::fuzz::check;
use crate::grammar::GenStmt;
use qlang::value::Table;

/// The shrinker; tune [`Shrinker::max_checks`] to trade minimality for
/// time.
pub struct Shrinker {
    /// Upper bound on re-checks across all passes.
    pub max_checks: usize,
    checks: usize,
}

/// A minimized divergence.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The reduced dataset.
    pub tables: Vec<(String, Table)>,
    /// The reduced program.
    pub stmts: Vec<GenStmt>,
    /// How many checks the reduction spent.
    pub checks: usize,
}

impl Default for Shrinker {
    fn default() -> Self {
        Shrinker::new(400)
    }
}

impl Shrinker {
    /// A shrinker with an explicit check budget.
    pub fn new(max_checks: usize) -> Self {
        Shrinker { max_checks, checks: 0 }
    }

    /// Does (tables, stmts) still diverge? Spends one check. Tables
    /// that fail to load diverge nowhere.
    fn diverges(&mut self, tables: &[(String, Table)], stmts: &[GenStmt]) -> bool {
        if self.checks >= self.max_checks {
            return false; // budget exhausted: reject further reductions
        }
        self.checks += 1;
        let rendered = stmts.iter().map(GenStmt::render).collect();
        !check(tables.to_vec(), vec![rendered]).divergences.is_empty()
    }

    /// Reduce a diverging (program, dataset) pair. The input must
    /// actually diverge; the output is guaranteed to still diverge
    /// (every accepted reduction was re-checked).
    pub fn shrink(
        mut self,
        tables: &[(String, Table)],
        stmts: &[GenStmt],
    ) -> ShrinkResult {
        let mut tables = tables.to_vec();
        let mut stmts = stmts.to_vec();
        self.shrink_statements(&tables, &mut stmts);
        self.shrink_expressions(&tables, &mut stmts);
        self.shrink_rows(&mut tables, &stmts);
        self.shrink_columns(&mut tables, &stmts);
        // Drop tables no remaining statement can reach (cheap textual
        // reachability: the table name appears in no statement).
        let rendered: Vec<String> = stmts.iter().map(GenStmt::render).collect();
        let keep: Vec<(String, Table)> = tables
            .iter()
            .filter(|(name, _)| rendered.iter().any(|s| s.contains(name.as_str())))
            .cloned()
            .collect();
        if !keep.is_empty() && keep.len() < tables.len() && self.diverges(&keep, &stmts) {
            tables = keep;
        }
        ShrinkResult { tables, stmts, checks: self.checks }
    }

    fn shrink_statements(&mut self, tables: &[(String, Table)], stmts: &mut Vec<GenStmt>) {
        // Fast path: a single statement that diverges alone.
        if stmts.len() > 1 {
            for i in 0..stmts.len() {
                let one = vec![stmts[i].clone()];
                if self.diverges(tables, &one) {
                    *stmts = one;
                    return;
                }
            }
        }
        // Greedy removal to fixpoint.
        let mut changed = true;
        while changed && stmts.len() > 1 {
            changed = false;
            let mut i = 0;
            while i < stmts.len() && stmts.len() > 1 {
                let mut candidate = stmts.clone();
                candidate.remove(i);
                if self.diverges(tables, &candidate) {
                    *stmts = candidate;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
    }

    fn shrink_expressions(&mut self, tables: &[(String, Table)], stmts: &mut [GenStmt]) {
        for i in 0..stmts.len() {
            loop {
                let mut reduced = false;
                for cand in stmts[i].shrink_candidates() {
                    let mut candidate = stmts.to_vec();
                    candidate[i] = cand.clone();
                    if self.diverges(tables, &candidate) {
                        stmts[i] = cand;
                        reduced = true;
                        break;
                    }
                }
                if !reduced {
                    break;
                }
            }
        }
    }

    fn shrink_rows(&mut self, tables: &mut [(String, Table)], stmts: &[GenStmt]) {
        for ti in 0..tables.len() {
            let mut chunk = tables[ti].1.rows() / 2;
            while chunk >= 1 {
                let mut start = 0;
                while start < tables[ti].1.rows() {
                    let rows = tables[ti].1.rows();
                    if rows <= 1 {
                        break; // corpus renderer needs at least one row
                    }
                    let end = (start + chunk).min(rows);
                    if end - start >= rows {
                        start = end;
                        continue;
                    }
                    let keep: Vec<usize> =
                        (0..rows).filter(|r| *r < start || *r >= end).collect();
                    let mut candidate = tables.to_vec();
                    candidate[ti].1 = candidate[ti].1.take_rows(&keep);
                    if self.diverges(&candidate, stmts) {
                        tables[ti].1 = candidate[ti].1.clone();
                        // Re-scan from the same offset: indices shifted.
                    } else {
                        start = end;
                    }
                }
                chunk /= 2;
            }
        }
    }

    fn shrink_columns(&mut self, tables: &mut [(String, Table)], stmts: &[GenStmt]) {
        for ti in 0..tables.len() {
            let mut ci = 0;
            while ci < tables[ti].1.width() {
                if tables[ti].1.width() <= 1 {
                    break;
                }
                let t = &tables[ti].1;
                let names: Vec<String> = t
                    .names
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, n)| n.clone())
                    .collect();
                let columns: Vec<_> = t
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, c)| c.clone())
                    .collect();
                match Table::new(names, columns) {
                    Ok(smaller) => {
                        let mut candidate = tables.to_vec();
                        candidate[ti].1 = smaller;
                        if self.diverges(&candidate, stmts) {
                            tables[ti].1 = candidate[ti].1.clone();
                        } else {
                            ci += 1;
                        }
                    }
                    Err(_) => ci += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{GenStmt, Proj, Select, SelectKind};
    use qlang::value::{Table, Value};

    // End-to-end shrinking against a real divergence lives in the
    // fuzz_differential integration test (via the count-col fault hook);
    // the unit tests here pin the reduction mechanics and budgets.
    #[test]
    fn budget_zero_returns_input_unchanged() {
        let t = Table::new(vec!["V".into()], vec![Value::Longs(vec![1, 2, 3])]).unwrap();
        let tables = vec![("t".to_string(), t)];
        let stmts = vec![
            GenStmt::Raw("select from t".into()),
            GenStmt::Raw("exec V from t".into()),
        ];
        let r = Shrinker::new(0).shrink(&tables, &stmts);
        assert_eq!(r.stmts.len(), 2, "no checks allowed → nothing may be accepted");
        assert_eq!(r.tables[0].1.rows(), 3);
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn clean_input_is_not_reduced() {
        // Nothing diverges, so every candidate must be rejected and the
        // program survives intact.
        let t = Table::new(
            vec!["S".into(), "V".into()],
            vec![
                Value::Symbols(vec!["a".into(), "b".into()]),
                Value::Longs(vec![1, 2]),
            ],
        )
        .unwrap();
        let tables = vec![("t".to_string(), t)];
        let stmts = vec![GenStmt::Sel(Select {
            kind: SelectKind::Select,
            projections: vec![Proj { alias: Some("s".into()), expr: "sum V".into() }],
            bys: vec!["S".into()],
            wheres: vec!["V>0".into()],
            source: "t".into(),
        })];
        let r = Shrinker::new(50).shrink(&tables, &stmts);
        assert_eq!(r.stmts.len(), 1);
        assert_eq!(r.stmts[0].render(), stmts[0].render());
        assert_eq!(r.tables[0].1.width(), 2);
        assert!(r.checks > 0);
    }
}
