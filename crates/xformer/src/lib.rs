//! # xformer — XTRA tree transformations
//!
//! The Xformer (paper §3.3) rewrites bound XTRA trees before SQL
//! serialization, for three purposes:
//!
//! * **Correctness** — Q's two-valued null logic is imposed on the
//!   three-valued SQL backend by rewriting strict equalities into
//!   `IS NOT DISTINCT FROM` predicates ([`null_logic`]).
//! * **Performance** — each XTRA node is annotated with all columns it
//!   *can* produce, but the requested columns are often a small subset;
//!   column pruning keeps the serialized SQL from bloating, which matters
//!   enormously for the paper's 500-column tables ([`prune`]).
//! * **Transparency** — Q's ordered-list semantics require `ORDER BY`
//!   clauses on the implicit order column, but the order-preservation
//!   property lets the Xformer *elide* ordering where it is unobservable,
//!   e.g. under a scalar aggregation ([`ordering`]).
//!
//! Rules are independent and composable; [`Xformer::apply`] runs the
//! configured set and reports which rules fired (instrumentation feeding
//! the Figure 7 stage-split harness).

pub mod null_logic;
pub mod ordering;
pub mod prune;

use xtra::RelNode;

/// Which transformations to run. Defaults to all (production behaviour);
/// benches toggle individual rules for the ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XformConfig {
    /// Correctness: 2-valued null logic.
    pub null_logic: bool,
    /// Performance: column pruning.
    pub column_pruning: bool,
    /// Transparency: ordering elision.
    pub ordering: bool,
}

impl Default for XformConfig {
    fn default() -> Self {
        XformConfig { null_logic: true, column_pruning: true, ordering: true }
    }
}

/// Per-rule fire counts from one transformation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XformReport {
    /// Equality predicates rewritten to `IS NOT DISTINCT FROM`.
    pub null_rewrites: usize,
    /// Columns removed by pruning (summed over all Get/Project nodes).
    pub columns_pruned: usize,
    /// Sort operators elided.
    pub sorts_elided: usize,
}

impl XformReport {
    /// Total rule firings.
    pub fn total(&self) -> usize {
        self.null_rewrites + self.columns_pruned + self.sorts_elided
    }
}

/// The transformation driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Xformer {
    /// Active configuration.
    pub config: XformConfig,
}

impl Xformer {
    /// Create a transformer with the default (all-on) configuration.
    pub fn new() -> Self {
        Xformer::default()
    }

    /// Create a transformer with an explicit configuration.
    pub fn with_config(config: XformConfig) -> Self {
        Xformer { config }
    }

    /// Run the configured transformations over `plan`.
    pub fn apply(&self, plan: RelNode) -> (RelNode, XformReport) {
        let mut report = XformReport::default();
        // Order matters: correctness first (it only touches scalar
        // expressions), then ordering elision (drops whole operators),
        // then pruning (which sees the final operator set).
        let plan = if self.config.null_logic {
            null_logic::apply(plan, &mut report)
        } else {
            plan
        };
        let plan = if self.config.ordering {
            ordering::apply(plan, &mut report)
        } else {
            plan
        };
        let plan = if self.config.column_pruning {
            prune::apply(plan, &mut report)
        } else {
            plan
        };
        (plan, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::{BinOp, ColumnDef, ScalarExpr, SqlType, ORD_COL};

    fn sample() -> RelNode {
        RelNode::filter(
            RelNode::get(
                "t",
                vec![
                    ColumnDef::not_null(ORD_COL, SqlType::Int8),
                    ColumnDef::new("a", SqlType::Int8),
                    ColumnDef::new("b", SqlType::Int8),
                ],
            ),
            ScalarExpr::binary(BinOp::Eq, ScalarExpr::col("a", SqlType::Int8), ScalarExpr::i64(1)),
        )
    }

    #[test]
    fn default_config_runs_all_rules() {
        let (_, report) = Xformer::new().apply(sample());
        assert!(report.null_rewrites > 0);
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let cfg = XformConfig { null_logic: false, column_pruning: false, ordering: false };
        let (plan, report) = Xformer::with_config(cfg).apply(sample());
        assert_eq!(report.total(), 0);
        assert_eq!(plan, sample());
    }
}
