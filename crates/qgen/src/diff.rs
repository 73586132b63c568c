//! Cell-level divergence explanation.
//!
//! When the fuzz row flags a statement, the raw values can be
//! large tables; the fuzz log and the repro header want a *pointed*
//! explanation — which column, which row, which two cells — computed
//! under Q's 2-valued null semantics (typed nulls compare equal to
//! themselves, `NaN == NaN`).

use hyperq::Outcome;
use qlang::value::Value;

/// How many differing cells to spell out before eliding.
const MAX_CELLS: usize = 4;

/// Explain why two outcomes disagree. `None` means they agree.
pub fn explain(a: &Outcome, b: &Outcome) -> Option<String> {
    match (a, b) {
        (Outcome::Error(_), Outcome::Error(_)) => None,
        (Outcome::Value(_), Outcome::Error(e)) => Some(format!("one-sided error: {e}")),
        (Outcome::Error(e), Outcome::Value(_)) => Some(format!("one-sided error: {e}")),
        (Outcome::Value(va), Outcome::Value(vb)) => explain_values(va, vb),
    }
}

/// Explain why two values differ under Q equality. `None` means equal.
pub fn explain_values(a: &Value, b: &Value) -> Option<String> {
    if a.q_eq(b) {
        return None;
    }
    match (a, b) {
        (Value::Table(ta), Value::Table(tb)) => {
            if ta.names != tb.names {
                return Some(format!(
                    "column sets differ: {:?} vs {:?}",
                    ta.names, tb.names
                ));
            }
            if ta.rows() != tb.rows() {
                return Some(format!("row counts differ: {} vs {}", ta.rows(), tb.rows()));
            }
            let mut cells = Vec::new();
            for (name, (ca, cb)) in
                ta.names.iter().zip(ta.columns.iter().zip(&tb.columns))
            {
                for r in 0..ta.rows() {
                    let xa = ca.index(r).unwrap_or(Value::Nil);
                    let xb = cb.index(r).unwrap_or(Value::Nil);
                    if !xa.q_eq(&xb) {
                        cells.push(format!("{name}[{r}]: {xa:?} vs {xb:?}"));
                        if cells.len() > MAX_CELLS {
                            cells.push("…".to_string());
                            return Some(cells.join("; "));
                        }
                    }
                }
            }
            if cells.is_empty() {
                // q_eq said unequal but every cell matched — a structural
                // difference (e.g. column order) the loops above missed.
                Some("values differ structurally".to_string())
            } else {
                Some(cells.join("; "))
            }
        }
        _ => {
            let (la, lb) = (a.len(), b.len());
            if let (Some(la), Some(lb)) = (la, lb) {
                if la != lb {
                    return Some(format!("lengths differ: {la} vs {lb}"));
                }
                for i in 0..la {
                    let xa = a.index(i).unwrap_or(Value::Nil);
                    let xb = b.index(i).unwrap_or(Value::Nil);
                    if !xa.q_eq(&xb) {
                        return Some(format!("[{i}]: {xa:?} vs {xb:?}"));
                    }
                }
            }
            Some(format!("{a:?} vs {b:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlang::value::{Table, Value};

    #[test]
    fn equal_values_need_no_explanation() {
        let a = Value::Floats(vec![1.0, f64::NAN]);
        let b = Value::Floats(vec![1.0, f64::NAN]);
        assert!(explain_values(&a, &b).is_none(), "NaN cells must compare equal");
    }

    #[test]
    fn differing_cell_is_named() {
        let t = |v| {
            Value::Table(Box::new(
                Table::new(vec!["P".into()], vec![Value::Longs(vec![1, v])]).unwrap(),
            ))
        };
        let why = explain_values(&t(2), &t(3)).expect("must differ");
        assert!(why.contains("P[1]"), "{why}");
    }

    #[test]
    fn one_sided_error_is_reported() {
        let a = Outcome::Value(Value::Longs(vec![1]));
        let b = Outcome::Error("boom".into());
        assert!(explain(&a, &b).unwrap().contains("boom"));
        assert!(explain(
            &Outcome::Error("x".into()),
            &Outcome::Error("y".into())
        )
        .is_none());
    }

    #[test]
    fn row_count_differences_short_circuit() {
        let t1 = Value::Table(Box::new(
            Table::new(vec!["P".into()], vec![Value::Longs(vec![1])]).unwrap(),
        ));
        let t2 = Value::Table(Box::new(
            Table::new(vec!["P".into()], vec![Value::Longs(vec![1, 2])]).unwrap(),
        ));
        assert!(explain_values(&t1, &t2).unwrap().contains("row counts"));
    }
}
