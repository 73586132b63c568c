//! The side-by-side testing framework of paper §5.
//!
//! "As we implemented features from the customer workload, we needed a
//! way to ensure the exact same behavior to the application as before.
//! For this purpose we built a side-by-side testing framework."
//!
//! The same data is loaded into the reference Q engine (the kdb+
//! stand-in) and, through the loader, into the backend; each query is
//! executed on both paths and the results compared under Q equality
//! (two-valued nulls and all).
//!
//! [`agrees`] is the one agreement rule every differential harness
//! applies — [`SideBySide::check`], the fuzz loop's
//! [`crate::BatchDriver`] and the test matrix over execution arms.

use crate::loader;
use crate::session::{HyperQSession, SessionConfig};
use qengine::Interp;
use qlang::ast::Expr;
use qlang::value::{Table, Value};
use qlang::{QError, QResult};

/// What one executor produced for one statement, in the form the
/// application observes it: a value, or the error's text.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The statement evaluated to a value.
    Value(Value),
    /// The statement errored.
    Error(String),
}

impl From<QResult<Value>> for Outcome {
    fn from(r: QResult<Value>) -> Self {
        match r {
            Ok(v) => Outcome::Value(v),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

impl Outcome {
    /// The value, if this outcome carries one.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Outcome::Value(v) => Some(v),
            Outcome::Error(_) => None,
        }
    }

    /// The outcome of `q` as the application observes it: when `q` is a
    /// top-level assignment ([`is_assignment`]), a successful outcome
    /// collapses to `Nil`; errors still count.
    pub fn normalized(self, assignment: bool) -> Outcome {
        match self {
            Outcome::Value(_) if assignment => Outcome::Value(Value::Nil),
            o => o,
        }
    }
}

/// The §5 agreement rule: do two outcomes behave the same toward the
/// application? Both erroring agrees (the application sees an error
/// either way, and the reference engine's error text is not Hyper-Q's);
/// a one-sided error or differing values do not.
///
/// Table results are compared *structurally* where possible: both sides
/// are lowered onto the shared columnar representation via
/// [`qengine::colbridge`] and diffed batch against batch
/// (`Batch::structurally_equal`, which keys every cell), which catches
/// representation-level drift (e.g. a null carried in-band on one side
/// and out-of-band on the other) that value equality would paper over.
/// Shapes the bridge cannot express fall back to [`values_agree`].
pub fn agrees(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Value(a), Outcome::Value(b)) => {
            if let (Some(ba), Some(bb)) = (as_batch(a), as_batch(b)) {
                return ba.structurally_equal(&bb) && values_agree(a, b);
            }
            values_agree(a, b)
        }
        (Outcome::Error(_), Outcome::Error(_)) => true,
        _ => false,
    }
}

/// Lower a table-shaped value onto the shared columnar representation,
/// if every column has a storage class there. Keyed tables are
/// flattened first (key columns then value columns), matching the
/// representational tolerance of [`values_agree`].
fn as_batch(v: &Value) -> Option<colstore::Batch> {
    match v {
        Value::Table(t) => qengine::colbridge::table_to_batch(t),
        Value::KeyedTable(k) => qengine::colbridge::table_to_batch(&flatten(k)),
        _ => None,
    }
}

/// Is this statement a top-level assignment? The interpreter evaluates
/// an assignment to its value while the pipeline materializes it and
/// returns nothing (the console shows nothing either way), so the
/// assignment's *immediate* result is not an application-visible
/// observable — its effect is diffed through subsequent reads of the
/// variable instead.
pub fn is_assignment(q: &str) -> bool {
    qlang::parse(q)
        .map(|stmts| {
            stmts
                .last()
                .is_some_and(|e| matches!(e, Expr::Assign { .. } | Expr::IndexAssign { .. }))
        })
        .unwrap_or(false)
}

/// Outcome of one side-by-side check.
#[derive(Debug, Clone)]
pub enum Comparison {
    /// Both paths produced agreeing values ([`agrees`]).
    Match(Value),
    /// The values differ.
    Mismatch {
        /// What the reference engine computed.
        reference: Value,
        /// What came back through Hyper-Q.
        translated: Value,
    },
    /// At least one path errored.
    ErrorDivergence {
        /// Reference-side error, if any.
        reference_err: Option<String>,
        /// Hyper-Q-side error, if any.
        translated_err: Option<String>,
    },
}

impl Comparison {
    /// Did the two paths agree?
    pub fn is_match(&self) -> bool {
        matches!(self, Comparison::Match(_))
    }
}

/// The framework: one reference interpreter and one Hyper-Q session over
/// the same logical data.
pub struct SideBySide {
    /// The reference engine.
    pub reference: Interp,
    /// The virtualized path.
    pub hyperq: HyperQSession,
}

impl SideBySide {
    /// Create over a fresh in-process backend.
    pub fn new(db: &pgdb::Db) -> Self {
        SideBySide { reference: Interp::new(), hyperq: HyperQSession::with_direct(db) }
    }

    /// Create with an explicit session configuration.
    pub fn with_config(db: &pgdb::Db, config: SessionConfig) -> Self {
        SideBySide {
            reference: Interp::new(),
            hyperq: HyperQSession::with_direct_config(db, config),
        }
    }

    /// Load a table into both worlds.
    pub fn load(&mut self, name: &str, table: &Table) -> QResult<()> {
        self.reference.define_table(name, table.clone());
        loader::load_table(&mut self.hyperq, name, table)
    }

    /// Run a query on both paths and compare under [`agrees`].
    pub fn check(&mut self, q: &str) -> Comparison {
        let reference = Outcome::from(self.reference.run(q));
        let translated = Outcome::from(self.hyperq.execute(q));
        let agreed = agrees(&reference, &translated);
        match (reference, translated) {
            (Outcome::Value(v), Outcome::Value(_)) if agreed => Comparison::Match(v),
            (Outcome::Value(reference), Outcome::Value(translated)) => {
                Comparison::Mismatch { reference, translated }
            }
            (r, t) => Comparison::ErrorDivergence {
                reference_err: error_text(r),
                translated_err: error_text(t),
            },
        }
    }

    /// Assert agreement, with a verbose diff on failure (test helper).
    pub fn assert_match(&mut self, q: &str) -> QResult<Value> {
        match self.check(q) {
            Comparison::Match(v) => Ok(v),
            Comparison::Mismatch { reference, translated } => Err(QError::new(
                qlang::error::QErrorKind::Other,
                format!(
                    "side-by-side mismatch for {q:?}:\nreference:\n{reference}\ntranslated:\n{translated}"
                ),
            )),
            Comparison::ErrorDivergence { reference_err, translated_err } => Err(QError::new(
                qlang::error::QErrorKind::Other,
                format!(
                    "side-by-side error divergence for {q:?}: reference={reference_err:?} translated={translated_err:?}"
                ),
            )),
        }
    }
}

fn error_text(o: Outcome) -> Option<String> {
    match o {
        Outcome::Value(_) => None,
        Outcome::Error(e) => Some(e),
    }
}

/// Q-equality with tolerance for representational differences between
/// the engine and the pivoted backend results: an engine table compares
/// equal to a pivoted table with identical columns even when numeric
/// widths differ (the backend promotes). Public because the qgen
/// differential fuzzer applies the same criterion before drilling into
/// cell-level diffs.
pub fn values_agree(a: &Value, b: &Value) -> bool {
    if a.q_eq(b) {
        return true;
    }
    match (a, b) {
        // Keyed tables vs tables with the same flattened content.
        (Value::KeyedTable(k), Value::KeyedTable(j)) => {
            let fa = flatten(k);
            let fb = flatten(j);
            Value::Table(Box::new(fa)).q_eq(&Value::Table(Box::new(fb)))
        }
        _ => false,
    }
}

/// Flatten a keyed table into key-columns-then-value-columns (used when
/// comparing keyed results whose key/value split differs representationally).
pub fn flatten(k: &qlang::KeyedTable) -> Table {
    Table {
        names: k.key.names.iter().chain(&k.value.names).cloned().collect(),
        columns: k.key.columns.iter().chain(&k.value.columns).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framework() -> SideBySide {
        let db = pgdb::Db::new();
        let mut f = SideBySide::new(&db);
        let trades = Table::new(
            vec!["Date".into(), "Symbol".into(), "Time".into(), "Price".into(), "Size".into()],
            vec![
                Value::Dates(vec![6021, 6021, 6022, 6022]),
                Value::Symbols(vec!["GOOG".into(), "IBM".into(), "GOOG".into(), "MSFT".into()]),
                Value::Times(vec![34_200_000, 34_260_000, 34_320_000, 34_380_000]),
                Value::Floats(vec![100.0, 50.0, 101.5, 70.25]),
                Value::Longs(vec![10, 20, 30, 40]),
            ],
        )
        .unwrap();
        f.load("trades", &trades).unwrap();
        f
    }

    #[test]
    fn simple_queries_agree() {
        let mut f = framework();
        f.assert_match("select from trades").unwrap();
        f.assert_match("select Price from trades where Symbol=`GOOG").unwrap();
        f.assert_match("select Price, Size from trades where Date=2016.06.26").unwrap();
    }

    #[test]
    fn filters_and_membership_agree() {
        let mut f = framework();
        f.assert_match("select Price from trades where Symbol in `GOOG`MSFT").unwrap();
        f.assert_match("select Price from trades where Size>15, Price<100").unwrap();
        f.assert_match("select from trades where Price within 50 101").unwrap();
    }

    #[test]
    fn aggregations_agree() {
        let mut f = framework();
        f.assert_match("select mx: max Price, mn: min Price, s: sum Size from trades").unwrap();
        f.assert_match("exec Price from trades").unwrap();
    }

    #[test]
    fn group_by_agrees() {
        let mut f = framework();
        f.assert_match("select mx: max Price by Symbol from trades").unwrap();
        f.assert_match("select n: count i by Date from trades").unwrap();
    }

    #[test]
    fn update_and_delete_agree() {
        let mut f = framework();
        f.assert_match("update Notional: Price*Size from trades").unwrap();
        f.assert_match("delete from trades where Symbol=`IBM").unwrap();
    }

    #[test]
    fn variables_and_functions_agree() {
        let mut f = framework();
        f.assert_match("SYMS: `GOOG`IBM; select Price from trades where Symbol in SYMS").unwrap();
        f.assert_match(concat!(
            "f: {[s] dt: select Price from trades where Symbol=s; :select max Price from dt}; ",
            "f[`GOOG]"
        ))
        .unwrap();
    }

    #[test]
    fn sorting_agrees() {
        let mut f = framework();
        f.assert_match("`Price xdesc trades").unwrap();
        f.assert_match("`Symbol`Time xasc trades").unwrap();
    }

    #[test]
    fn mismatch_detection_works() {
        // Deliberately diverge the two worlds to prove the framework can
        // see a difference.
        let db = pgdb::Db::new();
        let mut f = SideBySide::new(&db);
        let t1 = Table::new(vec!["x".into()], vec![Value::Longs(vec![1])]).unwrap();
        let t2 = Table::new(vec!["x".into()], vec![Value::Longs(vec![2])]).unwrap();
        f.reference.define_table("t", t1);
        loader::load_table(&mut f.hyperq, "t", &t2).unwrap();
        let c = f.check("exec x from t");
        assert!(!c.is_match());
        assert!(matches!(c, Comparison::Mismatch { .. }));
    }
}
