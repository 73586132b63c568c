//! Performance: column pruning.
//!
//! Each XTRA node is annotated with all the columns it can produce, but
//! "the requested columns at each node may be however a small subset of
//! the available columns" (paper §3.3). Against the evaluation's
//! 500-column tables, serializing every available column would bloat the
//! SQL text by orders of magnitude and hurt backend performance. This
//! pass pushes the set of *required* columns down the tree and narrows
//! every operator to it.

use crate::XformReport;
use xtra::{ColumnDef, Name, NameSet, RelNode, RelProps, ScalarExpr};

/// Names of the columns a node must produce.
type Required<'a> = NameSet<'a>;

/// Apply column pruning: the root requires all of its output columns.
pub fn apply(plan: RelNode, report: &mut XformReport) -> RelNode {
    let props = plan.props().clone();
    prune(plan, &all_columns(&props), report)
}

fn all_columns(props: &RelProps) -> Required<'_> {
    props.output.iter().map(|c| c.name.as_str()).collect()
}

/// The names in `needed` that `plan` produces.
fn produced_by<'a>(plan: &RelNode, needed: &Required<'a>) -> Required<'a> {
    plan.props().output.iter().filter_map(|c| needed.get(c.name.as_str()).copied()).collect()
}

/// Add the columns `items` read to `out`.
fn read_by<'a>(items: &'a [(Name, ScalarExpr)], out: &mut Required<'a>) {
    for (_, e) in items {
        e.collect_columns(out);
    }
}

/// The items whose names are `required`; when none is, the first one if
/// a `witness` must stand in for an empty select list.
fn keep(
    mut items: Vec<(Name, ScalarExpr)>,
    required: &Required,
    witness: bool,
    report: &mut XformReport,
) -> Vec<(Name, ScalarExpr)> {
    let n = items.len();
    let first = items.first().cloned();
    items.retain(|(name, _)| required.contains(name.as_str()));
    if items.is_empty() && witness {
        items.extend(first);
    }
    report.columns_pruned += n - items.len();
    items
}

/// Prune the plans of nested `IN (SELECT ...)` subqueries; each subquery
/// requires all of its own output columns.
fn prune_scalar(e: ScalarExpr, report: &mut XformReport) -> ScalarExpr {
    e.map_bottom_up(&mut |node| match node {
        ScalarExpr::InSubquery { needle, plan, negated } => {
            let props = plan.props().clone();
            let plan = Box::new(prune(*plan, &all_columns(&props), report));
            ScalarExpr::InSubquery { needle, plan, negated }
        }
        other => other,
    })
}

fn prune(node: RelNode, required: &Required, report: &mut XformReport) -> RelNode {
    match node {
        RelNode::Get { table, props } => {
            let cols = &props.output;
            let mut kept: Vec<ColumnDef> =
                cols.iter().filter(|c| required.contains(c.name.as_str())).cloned().collect();
            if kept.len() == cols.len() {
                return RelNode::Get { table, props };
            }
            // A scan of zero columns is not valid SQL; keep the first
            // column as a witness.
            if kept.is_empty() {
                kept.extend(cols.first().cloned());
            }
            report.columns_pruned += cols.len() - kept.len();
            RelNode::get(table, kept)
        }
        RelNode::Values { rows, props } => {
            let schema = &props.output;
            let mut mask: Vec<bool> =
                schema.iter().map(|c| required.contains(c.name.as_str())).collect();
            if !mask.contains(&true) {
                mask[0] = true;
            }
            let cols: Vec<ColumnDef> =
                schema.iter().zip(&mask).filter(|(_, &k)| k).map(|(c, _)| c.clone()).collect();
            report.columns_pruned += schema.len() - cols.len();
            let rows = rows
                .into_iter()
                .map(|r| r.into_iter().zip(&mask).filter(|(_, &k)| k).map(|(d, _)| d).collect())
                .collect();
            RelNode::values(cols, rows)
        }
        RelNode::Project { input, items, .. } => {
            let items = keep(items, required, true, report);
            let mut child_req = Required::default();
            read_by(&items, &mut child_req);
            let input = prune(*input, &child_req, report);
            RelNode::project(input, items)
        }
        RelNode::Filter { input, predicate, .. } => {
            let mut child_req: Required = required.iter().copied().collect();
            predicate.collect_columns(&mut child_req);
            let input = prune(*input, &child_req, report);
            RelNode::filter(input, prune_scalar(predicate, report))
        }
        RelNode::Join { kind, left, right, on, .. } => {
            let mut needed: Required = required.iter().copied().collect();
            on.collect_columns(&mut needed);
            let (l_req, r_req) = (produced_by(&left, &needed), produced_by(&right, &needed));
            let left = prune(*left, &l_req, report);
            let right = prune(*right, &r_req, report);
            RelNode::join(kind, left, right, on)
        }
        RelNode::Aggregate { input, group_by, aggs, .. } => {
            // Grouping expressions are semantically load-bearing; keep
            // them all. Aggregates not referenced upstream are dropped.
            let aggs = keep(aggs, required, group_by.is_empty(), report);
            let mut child_req = Required::default();
            read_by(&group_by, &mut child_req);
            read_by(&aggs, &mut child_req);
            let input = prune(*input, &child_req, report);
            RelNode::aggregate(input, group_by, aggs)
        }
        RelNode::Window { input, items, .. } => {
            let mut child_req: Required = required
                .iter()
                .copied()
                .filter(|n| !items.iter().any(|(alias, _)| alias == n))
                .collect();
            let items = keep(items, required, false, report);
            read_by(&items, &mut child_req);
            let input = prune(*input, &child_req, report);
            RelNode::window(input, items)
        }
        RelNode::Sort { input, keys, .. } => {
            let mut child_req: Required = required.iter().copied().collect();
            for k in &keys {
                k.expr.collect_columns(&mut child_req);
            }
            let input = prune(*input, &child_req, report);
            RelNode::sort(input, keys)
        }
        RelNode::Limit { input, limit, offset, .. } => {
            RelNode::limit(prune(*input, required, report), limit, offset)
        }
        RelNode::SetOp { kind, left, right, .. } => {
            let left = prune(*left, required, report);
            RelNode::set_op(kind, left, prune(*right, required, report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::{BinOp, ColumnDef, SortKey, SqlType, ORD_COL};

    /// A wide table in the spirit of the paper's 500-column workload.
    fn wide(n: usize) -> RelNode {
        let mut cols = vec![ColumnDef::not_null(ORD_COL, SqlType::Int8)];
        for i in 0..n {
            cols.push(ColumnDef::new(format!("c{i}"), SqlType::Float8));
        }
        RelNode::get("wide", cols)
    }

    #[test]
    fn scan_narrows_to_projected_columns() {
        let plan = RelNode::project(
            wide(500),
            vec![
                (ORD_COL.into(), ScalarExpr::col(ORD_COL, SqlType::Int8)),
                ("c7".into(), ScalarExpr::col("c7", SqlType::Float8)),
            ],
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert_eq!(report.columns_pruned, 499, "499 of 501 scan columns dropped");
        match out {
            RelNode::Project { input, .. } => match *input {
                RelNode::Get { props, .. } => {
                    assert_eq!(props.output.len(), 2);
                }
                other => panic!("expected get, got {}", other.explain()),
            },
            other => panic!("expected project, got {}", other.explain()),
        }
    }

    #[test]
    fn filter_columns_are_retained() {
        let plan = RelNode::project(
            RelNode::filter(
                wide(10),
                ScalarExpr::binary(
                    BinOp::Gt,
                    ScalarExpr::col("c9", SqlType::Float8),
                    ScalarExpr::i64(0),
                ),
            ),
            vec![("c0".into(), ScalarExpr::col("c0", SqlType::Float8))],
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        let text = out.explain();
        // c9 survives because the filter needs it, even though the
        // projection doesn't.
        fn scan_cols(n: &RelNode) -> Vec<String> {
            match n {
                RelNode::Get { props, .. } => {
                    props.output.iter().map(|c| c.name.to_string()).collect()
                }
                _ => n.inputs().into_iter().flat_map(scan_cols).collect(),
            }
        }
        let cols = scan_cols(&out);
        assert!(cols.contains(&"c0".to_string()), "{text}");
        assert!(cols.contains(&"c9".to_string()), "{text}");
        assert_eq!(cols.len(), 2, "{text}");
    }

    #[test]
    fn sort_keys_are_retained() {
        let plan = RelNode::sort(
            RelNode::project(
                wide(5),
                vec![
                    ("c0".into(), ScalarExpr::col("c0", SqlType::Float8)),
                    (ORD_COL.into(), ScalarExpr::col(ORD_COL, SqlType::Int8)),
                ],
            ),
            vec![SortKey::asc(ORD_COL, SqlType::Int8)],
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert!(out.props().has_column(ORD_COL));
    }

    #[test]
    fn aggregate_inputs_narrow_to_args() {
        let plan = RelNode::aggregate(
            wide(100),
            vec![("c0".into(), ScalarExpr::col("c0", SqlType::Float8))],
            vec![(
                "s".into(),
                ScalarExpr::Agg {
                    func: xtra::AggFunc::Sum,
                    arg: Some(Box::new(ScalarExpr::col("c1", SqlType::Float8))),
                },
            )],
        );
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        match out {
            RelNode::Aggregate { input, .. } => match *input {
                RelNode::Get { props, .. } => assert_eq!(props.output.len(), 2),
                other => panic!("expected get, got {}", other.explain()),
            },
            other => panic!("expected aggregate, got {}", other.explain()),
        }
    }

    #[test]
    fn unreferenced_aggregates_are_dropped() {
        let agg = RelNode::aggregate(
            wide(10),
            vec![],
            vec![
                (
                    "keep".into(),
                    ScalarExpr::Agg {
                        func: xtra::AggFunc::Sum,
                        arg: Some(Box::new(ScalarExpr::col("c1", SqlType::Float8))),
                    },
                ),
                (
                    "drop".into(),
                    ScalarExpr::Agg {
                        func: xtra::AggFunc::Max,
                        arg: Some(Box::new(ScalarExpr::col("c2", SqlType::Float8))),
                    },
                ),
            ],
        );
        let plan =
            RelNode::project(agg, vec![("keep".into(), ScalarExpr::col("keep", SqlType::Float8))]);
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        assert!(report.columns_pruned > 0);
        assert!(!format!("{out:?}").contains("\"drop\""));
    }

    #[test]
    fn join_split_by_side() {
        let right = RelNode::project(
            wide(5),
            vec![
                ("r0".into(), ScalarExpr::col("c0", SqlType::Float8)),
                ("r1".into(), ScalarExpr::col("c1", SqlType::Float8)),
            ],
        );
        let join = RelNode::join(
            xtra::JoinKind::Inner,
            wide(5),
            right,
            ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("c0", SqlType::Float8),
                ScalarExpr::col("r0", SqlType::Float8),
            ),
        );
        let plan =
            RelNode::project(join, vec![("r1".into(), ScalarExpr::col("r1", SqlType::Float8))]);
        let mut report = XformReport::default();
        let out = apply(plan, &mut report);
        let props_ok = out.props().has_column("r1");
        assert!(props_ok);
        assert!(report.columns_pruned > 0);
    }

    #[test]
    fn pruning_is_idempotent() {
        let plan =
            RelNode::project(wide(50), vec![("c3".into(), ScalarExpr::col("c3", SqlType::Float8))]);
        let mut r1 = XformReport::default();
        let once = apply(plan, &mut r1);
        let mut r2 = XformReport::default();
        let twice = apply(once.clone(), &mut r2);
        assert_eq!(once, twice);
        assert_eq!(r2.columns_pruned, 0);
    }
}
