//! Transparency: ordering elision.
//!
//! Ordering is a first-class citizen in Q but not in SQL, so the binder
//! conservatively injects `ORDER BY ordcol` everywhere. This pass removes
//! the orderings that are *unobservable*, deciding from each operator's
//! kind whether its input's order can be seen through it (paper §3.3):
//! "consider a nested query in which the outer query performs a scalar
//! aggregation on the result of the inner query — the Xformer can remove
//! the ordering requirement on the inner query."
//!
//! A Sort is kept only where its order can be observed:
//! * at the root (the application sees rows in order),
//! * feeding an order-sensitive aggregate (`first`/`last`),
//! * feeding a Limit (take-n depends on order),
//! * feeding a Window with an empty ORDER BY (none in our binder).

use crate::XformReport;
use xtra::{AggFunc, Name, RelNode, ScalarExpr};

/// Apply ordering elision.
pub fn apply(plan: RelNode, report: &mut XformReport) -> RelNode {
    walk(plan, true, report)
}

/// Does any aggregate item depend on input order?
fn order_sensitive_aggs(aggs: &[(Name, ScalarExpr)]) -> bool {
    fn sensitive(e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Agg { func: AggFunc::First | AggFunc::Last, .. } => true,
            ScalarExpr::Agg { .. } | ScalarExpr::Column { .. } | ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => sensitive(lhs) || sensitive(rhs),
            ScalarExpr::Unary { arg, .. } | ScalarExpr::Cast { arg, .. } => sensitive(arg),
            ScalarExpr::Func { args, .. } => args.iter().any(sensitive),
            ScalarExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| sensitive(c) || sensitive(r))
                    || else_result.as_ref().map(|e| sensitive(e)).unwrap_or(false)
            }
            ScalarExpr::InList { needle, list, .. } => {
                sensitive(needle) || list.iter().any(sensitive)
            }
            ScalarExpr::IsNull { arg, .. } => sensitive(arg),
            ScalarExpr::InSubquery { needle, .. } => sensitive(needle),
            ScalarExpr::Window { .. } => false,
        }
    }
    aggs.iter().any(|(_, e)| sensitive(e))
}

/// Drop the sorts whose order nobody observes. `order_needed` says
/// whether this node's output order is observable. A sort passes its
/// input's columns through, so eliding one changes no node's properties.
fn walk(node: RelNode, order_needed: bool, report: &mut XformReport) -> RelNode {
    let node = match node {
        // Unobservable: elide the operator entirely.
        RelNode::Sort { input, .. } if !order_needed => {
            report.sorts_elided += 1;
            return walk(*input, false, report);
        }
        node => node,
    };
    let inputs_ordered = match &node {
        // This sort is observable; below it, order delivery is this
        // sort's job, so children need not maintain one.
        RelNode::Sort { .. } => false,
        RelNode::Aggregate { aggs, .. } => order_sensitive_aggs(aggs),
        // Which rows a limit keeps depends on order.
        RelNode::Limit { .. } => true,
        RelNode::Filter { .. } | RelNode::Project { .. } => order_needed,
        // Window functions carry their own ORDER BY clauses; joins do not
        // promise to preserve input order (any required order is
        // re-established above); set operations have none.
        RelNode::Window { .. } | RelNode::Join { .. } | RelNode::SetOp { .. } => false,
        RelNode::Get { .. } | RelNode::Values { .. } => return node,
    };
    node.map_inputs(|input| walk(input, inputs_ordered, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::{ColumnDef, ScalarExpr, SortKey, SqlType, ORD_COL};

    fn table() -> RelNode {
        RelNode::get(
            "t",
            vec![
                ColumnDef::not_null(ORD_COL, SqlType::Int8),
                ColumnDef::new("Price", SqlType::Float8),
            ],
        )
    }

    fn sorted(input: RelNode) -> RelNode {
        RelNode::sort(input, vec![SortKey::asc(ORD_COL, SqlType::Int8)])
    }

    fn max_agg(input: RelNode) -> RelNode {
        RelNode::aggregate(
            input,
            vec![],
            vec![(
                "mx".into(),
                ScalarExpr::Agg {
                    func: AggFunc::Max,
                    arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
                },
            )],
        )
    }

    #[test]
    fn root_sort_is_kept() {
        let plan = sorted(table());
        let mut report = XformReport::default();
        let out = apply(plan.clone(), &mut report);
        assert_eq!(out, plan);
        assert_eq!(report.sorts_elided, 0);
    }

    #[test]
    fn sort_under_scalar_aggregate_is_elided() {
        // The paper's exact example: scalar aggregation over an ordered
        // inner query — the inner ordering is unobservable.
        let plan = max_agg(sorted(table()));
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 1);
        assert!(!out.explain().contains("xtra_sort"), "{}", out.explain());
    }

    #[test]
    fn sort_under_first_aggregate_is_kept() {
        let plan = RelNode::aggregate(
            sorted(table()),
            vec![],
            vec![(
                "f".into(),
                ScalarExpr::Agg {
                    func: AggFunc::First,
                    arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
                },
            )],
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 0, "first() depends on order");
        assert!(out.explain().contains("xtra_sort"));
    }

    #[test]
    fn sort_under_limit_is_kept() {
        let plan = RelNode::limit(sorted(table()), Some(5), 0);
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 0);
        assert!(out.explain().contains("xtra_sort"));
    }

    #[test]
    fn redundant_stacked_sorts_collapse() {
        let plan = sorted(sorted(table()));
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 1);
        assert_eq!(out.explain().matches("xtra_sort").count(), 1);
    }

    #[test]
    fn join_inputs_lose_their_sorts() {
        let plan = sorted(RelNode::join(
            xtra::JoinKind::Inner,
            sorted(table()),
            sorted(RelNode::get("u", vec![ColumnDef::new("x", SqlType::Int8)])),
            ScalarExpr::Const(xtra::Datum::Bool(true)),
        ));
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 2);
        // Only the root sort remains.
        assert_eq!(out.explain().matches("xtra_sort").count(), 1);
    }

    #[test]
    fn grouped_aggregate_without_first_last_drops_input_sort() {
        let plan = RelNode::aggregate(
            sorted(table()),
            vec![("Price".into(), ScalarExpr::col("Price", SqlType::Float8))],
            vec![("n".into(), ScalarExpr::Agg { func: AggFunc::Count, arg: None })],
        );
        let mut report = XformReport::default();
        apply(plan, &mut report);
        assert_eq!(report.sorts_elided, 1);
    }
}
