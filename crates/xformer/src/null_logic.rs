//! Correctness: two-valued null logic.
//!
//! In Q, two nulls compare equal; in SQL, `NULL = NULL` is unknown and a
//! filter drops the row. The paper's fix (§3.3): "a transformation is used
//! to replace strict equalities in XTRA expressions with Is Not Distinct
//! From predicate, which provides the needed 2-valued logic for null
//! values when serializing the outgoing SQL query."
//!
//! The rewrite is *nullability-aware*: comparisons whose operands are both
//! provably non-null (NOT NULL columns, non-null constants) are left
//! alone, since `=` and `IS NOT DISTINCT FROM` agree there and plain
//! equality gives backends more optimizer latitude.

use crate::XformReport;
use xtra::{BinOp, ColumnDef, Name, RelNode, ScalarExpr, UnOp};

/// Apply the null-logic rewrite over the whole tree.
pub fn apply(plan: RelNode, report: &mut XformReport) -> RelNode {
    rewrite_node(plan, report)
}

/// Rewrite the inputs, then this node's expressions against the columns
/// they see. Types and names are untouched, so every node keeps its
/// properties.
fn rewrite_node(node: RelNode, report: &mut XformReport) -> RelNode {
    match node.map_inputs(|child| rewrite_node(child, report)) {
        RelNode::Filter { input, predicate, props } => {
            let predicate = rewrite_scalar(predicate, &[&input.props().output], report);
            RelNode::Filter { input, predicate, props }
        }
        RelNode::Project { input, items, props } => {
            let items = rewrite_items(items, &[&input.props().output], report);
            RelNode::Project { input, items, props }
        }
        RelNode::Join { kind, left, right, on, props } => {
            // The join condition sees both sides' columns.
            let schema: [&[ColumnDef]; 2] = [&left.props().output, &right.props().output];
            let on = rewrite_scalar(on, &schema, report);
            RelNode::Join { kind, left, right, on, props }
        }
        RelNode::Aggregate { input, group_by, aggs, props } => {
            let schema: [&[ColumnDef]; 1] = [&input.props().output];
            let group_by = rewrite_items(group_by, &schema, report);
            let aggs = rewrite_items(aggs, &schema, report);
            RelNode::Aggregate { input, group_by, aggs, props }
        }
        RelNode::Window { input, items, props } => {
            let items = rewrite_items(items, &[&input.props().output], report);
            RelNode::Window { input, items, props }
        }
        other => other,
    }
}

fn rewrite_items(
    items: Vec<(Name, ScalarExpr)>,
    schema: &[&[ColumnDef]],
    report: &mut XformReport,
) -> Vec<(Name, ScalarExpr)> {
    items.into_iter().map(|(n, e)| (n, rewrite_scalar(e, schema, report))).collect()
}

/// Can this expression ever evaluate to NULL, given the columns in
/// `schema` (searched in order)?
fn nullable(e: &ScalarExpr, schema: &[&[ColumnDef]]) -> bool {
    match e {
        ScalarExpr::Column { name, .. } => schema
            .iter()
            .flat_map(|cols| cols.iter())
            .find(|c| c.name == *name)
            .map(|c| c.nullable)
            // Unknown columns: assume nullable (be safe).
            .unwrap_or(true),
        ScalarExpr::Const(d) => d.is_null(),
        ScalarExpr::Binary { lhs, rhs, .. } => nullable(lhs, schema) || nullable(rhs, schema),
        ScalarExpr::Unary { arg, .. } => nullable(arg, schema),
        ScalarExpr::Cast { arg, .. } => nullable(arg, schema),
        ScalarExpr::IsNull { .. } => false,
        ScalarExpr::InList { needle, list, .. } => {
            nullable(needle, schema) || list.iter().any(|e| nullable(e, schema))
        }
        // Aggregates over empty input, window functions at partition
        // edges, CASE without ELSE, arbitrary functions: all nullable.
        _ => true,
    }
}

/// `l = r` / `l <> r` made null-safe when either side can be NULL.
fn null_safe(
    op: BinOp,
    lhs: Box<ScalarExpr>,
    rhs: Box<ScalarExpr>,
    schema: &[&[ColumnDef]],
    report: &mut XformReport,
) -> ScalarExpr {
    if !nullable(&lhs, schema) && !nullable(&rhs, schema) {
        return ScalarExpr::Binary { op, lhs, rhs };
    }
    report.null_rewrites += 1;
    let same = ScalarExpr::Binary { op: BinOp::IsNotDistinctFrom, lhs, rhs };
    match op {
        BinOp::Neq => ScalarExpr::Unary { op: UnOp::Not, arg: Box::new(same) },
        _ => same,
    }
}

fn rewrite_scalar(e: ScalarExpr, schema: &[&[ColumnDef]], report: &mut XformReport) -> ScalarExpr {
    match e {
        ScalarExpr::Column { .. } | ScalarExpr::Const(_) => e,
        ScalarExpr::Binary { op: op @ (BinOp::Eq | BinOp::Neq), lhs, rhs } => {
            let l = Box::new(rewrite_scalar(*lhs, schema, report));
            let r = Box::new(rewrite_scalar(*rhs, schema, report));
            null_safe(op, l, r, schema, report)
        }
        ScalarExpr::InSubquery { needle, plan, negated } => ScalarExpr::InSubquery {
            needle: Box::new(rewrite_scalar(*needle, schema, report)),
            plan: Box::new(rewrite_node(*plan, report)),
            negated,
        },
        // Recurse structurally everywhere else, bottom-up,
        // so equalities nested inside CASE branches etc. get the same
        // treatment.
        other => other.map_bottom_up(&mut |node| match node {
            ScalarExpr::Binary { op: op @ (BinOp::Eq | BinOp::Neq), lhs, rhs } => {
                null_safe(op, lhs, rhs, schema, report)
            }
            node => node,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::{Datum, SqlType, ORD_COL};

    fn table() -> RelNode {
        RelNode::get(
            "t",
            vec![
                ColumnDef::not_null(ORD_COL, SqlType::Int8),
                ColumnDef::new("Symbol", SqlType::Varchar),
                ColumnDef::not_null("id", SqlType::Int8),
            ],
        )
    }

    fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Eq, l, r)
    }

    #[test]
    fn nullable_equality_becomes_is_not_distinct_from() {
        let plan = RelNode::filter(
            table(),
            eq(ScalarExpr::col("Symbol", SqlType::Varchar), ScalarExpr::str("GOOG")),
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 1);
        match out {
            RelNode::Filter { predicate, .. } => {
                assert!(matches!(
                    predicate,
                    ScalarExpr::Binary { op: BinOp::IsNotDistinctFrom, .. }
                ));
            }
            other => panic!("expected filter, got {}", other.explain()),
        }
    }

    #[test]
    fn non_nullable_equality_is_left_alone() {
        let plan = RelNode::filter(
            table(),
            eq(ScalarExpr::col("id", SqlType::Int8), ScalarExpr::i64(1)),
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 0);
        match out {
            RelNode::Filter { predicate, .. } => {
                assert!(matches!(predicate, ScalarExpr::Binary { op: BinOp::Eq, .. }));
            }
            other => panic!("expected filter, got {}", other.explain()),
        }
    }

    #[test]
    fn inequality_becomes_negated_null_safe_equality() {
        let plan = RelNode::filter(
            table(),
            ScalarExpr::binary(
                BinOp::Neq,
                ScalarExpr::col("Symbol", SqlType::Varchar),
                ScalarExpr::str("GOOG"),
            ),
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 1);
        match out {
            RelNode::Filter { predicate, .. } => {
                assert!(matches!(predicate, ScalarExpr::Unary { op: UnOp::Not, .. }));
            }
            other => panic!("expected filter, got {}", other.explain()),
        }
    }

    #[test]
    fn join_conditions_are_rewritten() {
        let plan = RelNode::join(
            xtra::JoinKind::Inner,
            table(),
            RelNode::get("u", vec![ColumnDef::new("Symbol2", SqlType::Varchar)]),
            eq(
                ScalarExpr::col("Symbol", SqlType::Varchar),
                ScalarExpr::col("Symbol2", SqlType::Varchar),
            ),
        );
        let mut report = XformReport::default();
        apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 1);
    }

    #[test]
    fn null_constant_comparisons_are_rewritten() {
        let plan = RelNode::filter(
            table(),
            eq(
                ScalarExpr::col("id", SqlType::Int8),
                ScalarExpr::Const(Datum::Null(SqlType::Int8)),
            ),
        );
        let mut report = XformReport::default();
        apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 1, "NULL literal forces null-safe compare");
    }

    #[test]
    fn nested_equalities_in_case_are_rewritten() {
        let case = ScalarExpr::Case {
            branches: vec![(
                eq(ScalarExpr::col("Symbol", SqlType::Varchar), ScalarExpr::str("X")),
                ScalarExpr::i64(1),
            )],
            else_result: Some(Box::new(ScalarExpr::i64(0))),
        };
        let plan = RelNode::project(table(), vec![("flag".into(), case)]);
        let mut report = XformReport::default();
        apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 1);
    }

    #[test]
    fn comparisons_other_than_equality_untouched() {
        let plan = RelNode::filter(
            table(),
            ScalarExpr::binary(
                BinOp::Lt,
                ScalarExpr::col("Symbol", SqlType::Varchar),
                ScalarExpr::str("M"),
            ),
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.null_rewrites, 0);
        match out {
            RelNode::Filter { predicate, .. } => {
                assert!(matches!(predicate, ScalarExpr::Binary { op: BinOp::Lt, .. }));
            }
            other => panic!("expected filter, got {}", other.explain()),
        }
    }
}
