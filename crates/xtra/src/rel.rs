//! Relational operators of the XTRA algebra and their derived properties.
//!
//! Property derivation is the binder's workhorse (paper §3.2.2): after
//! binding each operator's inputs, the binder derives the operator's output
//! columns and implicit order column, then *checks* that the inputs are
//! valid for the operator. Every node carries its [`RelProps`], derived
//! once by the constructor that builds it ([`RelNode::project`],
//! [`RelNode::join`], ...): operators that change the schema compute it
//! from their inputs' stored properties, `Filter`/`Sort`/`Limit` share
//! their input's, and reading them back ([`RelNode::props`]) costs
//! nothing.

use crate::scalar::{ScalarExpr, SortDir};
use crate::types::{ColumnDef, Datum, Name, NameHasher, NameSet, SqlType};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Join variants supported by XTRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join — the shape Q's `aj` and `lj` bind to.
    LeftOuter,
    /// Cross join.
    Cross,
}

/// Set operation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    /// `UNION ALL` — Q's `uj`/`,` on tables keeps duplicates and order.
    UnionAll,
    /// `EXCEPT`
    Except,
    /// `INTERSECT`
    Intersect,
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression (usually a column reference).
    pub expr: ScalarExpr,
    /// Direction.
    pub dir: SortDir,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(name: impl Into<Name>, ty: SqlType) -> SortKey {
        SortKey { expr: ScalarExpr::col(name, ty), dir: SortDir::Asc }
    }

    /// Descending sort on a column.
    pub fn desc(name: impl Into<Name>, ty: SqlType) -> SortKey {
        SortKey { expr: ScalarExpr::col(name, ty), dir: SortDir::Desc }
    }
}

/// Derived relational properties (paper §3.2.2: "derived properties
/// include the output columns with their names and types"; §3.3 adds the
/// implicit order column). Cloning is a reference-count bump: the output
/// columns are shared, never copied, between a node, the nodes that pass
/// it through, and the binder's checks.
#[derive(Debug, Clone, PartialEq)]
pub struct RelProps {
    /// Output columns, in order.
    pub output: Arc<[ColumnDef]>,
    /// `Some(ORD_COL)` when the implicit order column is in the output.
    pub ord_col: Option<&'static str>,
}

impl RelProps {
    /// Properties of a relation whose columns are `output`: ordered when
    /// one of them is the implicit order column.
    fn of_columns(output: Arc<[ColumnDef]>) -> RelProps {
        let ord_col = output.iter().any(|c| c.name == crate::ORD_COL).then_some(crate::ORD_COL);
        RelProps { output, ord_col }
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.output.iter().find(|c| c.name == name)
    }

    /// Does the output contain the named column?
    pub fn has_column(&self, name: &str) -> bool {
        self.column(name).is_some()
    }
}

/// A relational XTRA operator. Build nodes with the constructors
/// ([`RelNode::get`], [`RelNode::filter`], ...), which derive `props`.
#[derive(Debug, Clone, PartialEq)]
pub enum RelNode {
    /// Base-table access: `xtra_get` in the paper's Figure 2. The scanned
    /// columns are `props.output`, from the metadata interface.
    Get {
        /// Backend table name.
        table: String,
        /// Derived properties.
        props: RelProps,
    },
    /// Projection / computed columns. Replaces the output with `items`.
    Project {
        /// Input operator.
        input: Box<RelNode>,
        /// `(alias, expression)` output items.
        items: Vec<(Name, ScalarExpr)>,
        /// Derived properties.
        props: RelProps,
    },
    /// Row filter.
    Filter {
        /// Input operator.
        input: Box<RelNode>,
        /// Boolean predicate.
        predicate: ScalarExpr,
        /// Derived properties (the input's).
        props: RelProps,
    },
    /// Binary join.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Left input.
        left: Box<RelNode>,
        /// Right input.
        right: Box<RelNode>,
        /// Join condition (`TRUE` for cross joins).
        on: ScalarExpr,
        /// Derived properties.
        props: RelProps,
    },
    /// Grouped or scalar aggregation. With empty `group_by` this is a
    /// scalar aggregate producing exactly one row.
    Aggregate {
        /// Input operator.
        input: Box<RelNode>,
        /// Grouping expressions with output aliases.
        group_by: Vec<(Name, ScalarExpr)>,
        /// Aggregate output items (alias, expression containing `Agg`).
        aggs: Vec<(Name, ScalarExpr)>,
        /// Derived properties.
        props: RelProps,
    },
    /// Window-function computation: passes all input columns through and
    /// appends one column per item.
    Window {
        /// Input operator.
        input: Box<RelNode>,
        /// `(alias, window expression)` appended columns.
        items: Vec<(Name, ScalarExpr)>,
        /// Derived properties.
        props: RelProps,
    },
    /// Explicit sort.
    Sort {
        /// Input operator.
        input: Box<RelNode>,
        /// Sort keys, outermost first.
        keys: Vec<SortKey>,
        /// Derived properties (the input's).
        props: RelProps,
    },
    /// Row-count limit/offset.
    Limit {
        /// Input operator.
        input: Box<RelNode>,
        /// Maximum rows to emit; `None` = unlimited.
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
        /// Derived properties (the input's).
        props: RelProps,
    },
    /// In-line constant relation. The schema of the rows is
    /// `props.output`.
    Values {
        /// Row data.
        rows: Vec<Vec<Datum>>,
        /// Derived properties.
        props: RelProps,
    },
    /// Set operation.
    SetOp {
        /// Variant.
        kind: SetOpKind,
        /// Left input.
        left: Box<RelNode>,
        /// Right input.
        right: Box<RelNode>,
        /// Derived properties (the left input's columns, unordered).
        props: RelProps,
    },
}

/// Are the names of `left` and `right` all different? Usually they are.
/// The right names go into a set and the left ones (the wider side in a
/// chain of joins) are looked up, unless no right name has their length:
/// lengths live in the names' pointers, so comparing them reads no string.
fn distinct_names(left: &[ColumnDef], right: &[ColumnDef]) -> bool {
    let mut names: NameSet = HashSet::with_capacity_and_hasher(right.len(), Default::default());
    let mut lengths = 0u64;
    right.iter().all(|c| {
        lengths |= 1 << c.name.len().min(63);
        names.insert(c.name.as_str())
    }) && !left.iter().any(|c| {
        lengths & 1 << c.name.len().min(63) != 0 && names.contains(c.name.as_str())
    })
}

/// The output column of an item, typed by its expression.
fn item_column((alias, e): &(Name, ScalarExpr)) -> ColumnDef {
    ColumnDef::new(alias.clone(), e.derived_type())
}

impl RelNode {
    /// Scan `cols` of `table`, ordered when the implicit order column is
    /// among them.
    pub fn get(table: impl Into<String>, cols: impl Into<Arc<[ColumnDef]>>) -> RelNode {
        RelNode::Get { table: table.into(), props: RelProps::of_columns(cols.into()) }
    }

    /// A constant relation of `rows` over `schema`.
    pub fn values(schema: impl Into<Arc<[ColumnDef]>>, rows: Vec<Vec<Datum>>) -> RelNode {
        RelNode::Values { rows, props: RelProps::of_columns(schema.into()) }
    }

    /// Replace the output with `items`. Projection preserves row order;
    /// the implicit order column survives only if projected through.
    pub fn project(input: RelNode, items: Vec<(Name, ScalarExpr)>) -> RelNode {
        let ord_col = input.props().ord_col.filter(|oc| {
            items.iter().any(|(alias, e)| {
                alias == oc && matches!(e, ScalarExpr::Column { name, .. } if name == oc)
            })
        });
        let props = RelProps { output: items.iter().map(item_column).collect(), ord_col };
        RelNode::Project { input: Box::new(input), items, props }
    }

    /// Keep the rows of `input` that satisfy `predicate`.
    pub fn filter(input: RelNode, predicate: ScalarExpr) -> RelNode {
        let props = input.props().clone();
        RelNode::Filter { input: Box::new(input), predicate, props }
    }

    /// Join `left` and `right` on `on`. The output is the left columns
    /// then the right ones; right columns become nullable under a left
    /// join, and a right name already taken gets the suffix `_r` (the way
    /// Hyper-Q's serializer disambiguates). The left input's implicit
    /// order column is the join's.
    pub fn join(kind: JoinKind, left: RelNode, right: RelNode, on: ScalarExpr) -> RelNode {
        let (lp, rp) = (left.props(), right.props());
        let right_columns = rp.output.iter().map(|c| ColumnDef {
            nullable: c.nullable || kind == JoinKind::LeftOuter,
            ..c.clone()
        });
        let output = if distinct_names(&lp.output, &rp.output) {
            lp.output.iter().cloned().chain(right_columns).collect()
        } else {
            let mut taken: HashSet<Cow<str>, BuildHasherDefault<NameHasher>> =
                lp.output.iter().map(|c| Cow::Borrowed(c.name.as_str())).collect();
            let renamed = rp.output.iter().zip(right_columns).map(|(rc, mut c)| {
                if !taken.insert(Cow::Borrowed(rc.name.as_str())) {
                    let name = format!("{}_r", rc.name);
                    c.name = Name::from(name.as_str());
                    taken.insert(Cow::Owned(name));
                }
                c
            });
            lp.output.iter().cloned().chain(renamed).collect()
        };
        let props = RelProps { output, ord_col: lp.ord_col };
        RelNode::Join { kind, left: Box::new(left), right: Box::new(right), on, props }
    }

    /// Group `input` by `group_by` and compute `aggs`: the grouping
    /// columns then the aggregates. Aggregation destroys input order.
    pub fn aggregate(
        input: RelNode,
        group_by: Vec<(Name, ScalarExpr)>,
        aggs: Vec<(Name, ScalarExpr)>,
    ) -> RelNode {
        let output = group_by.iter().chain(&aggs).map(item_column).collect();
        let props = RelProps { output, ord_col: None };
        RelNode::Aggregate { input: Box::new(input), group_by, aggs, props }
    }

    /// Append one window-function column per item to `input`'s columns.
    pub fn window(input: RelNode, items: Vec<(Name, ScalarExpr)>) -> RelNode {
        let ip = input.props();
        let output = ip.output.iter().cloned().chain(items.iter().map(item_column)).collect();
        let props = RelProps { output, ord_col: ip.ord_col };
        RelNode::Window { input: Box::new(input), items, props }
    }

    /// Sort `input` by `keys`.
    pub fn sort(input: RelNode, keys: Vec<SortKey>) -> RelNode {
        let props = input.props().clone();
        RelNode::Sort { input: Box::new(input), keys, props }
    }

    /// Skip `offset` rows of `input`, then emit at most `limit`.
    pub fn limit(input: RelNode, limit: Option<u64>, offset: u64) -> RelNode {
        let props = input.props().clone();
        RelNode::Limit { input: Box::new(input), limit, offset, props }
    }

    /// Combine `left` and `right` by `kind`; the columns are the left
    /// input's, and the result has no order.
    pub fn set_op(kind: SetOpKind, left: RelNode, right: RelNode) -> RelNode {
        let props = RelProps { output: left.props().output.clone(), ord_col: None };
        RelNode::SetOp { kind, left: Box::new(left), right: Box::new(right), props }
    }

    /// This operator's derived properties, as derived when it was built.
    pub fn props(&self) -> &RelProps {
        match self {
            RelNode::Get { props, .. }
            | RelNode::Project { props, .. }
            | RelNode::Filter { props, .. }
            | RelNode::Join { props, .. }
            | RelNode::Aggregate { props, .. }
            | RelNode::Window { props, .. }
            | RelNode::Sort { props, .. }
            | RelNode::Limit { props, .. }
            | RelNode::Values { props, .. }
            | RelNode::SetOp { props, .. } => props,
        }
    }

    /// Immediate children of this node.
    pub fn inputs(&self) -> Vec<&RelNode> {
        match self {
            RelNode::Get { .. } | RelNode::Values { .. } => vec![],
            RelNode::Project { input, .. }
            | RelNode::Filter { input, .. }
            | RelNode::Aggregate { input, .. }
            | RelNode::Window { input, .. }
            | RelNode::Sort { input, .. }
            | RelNode::Limit { input, .. } => vec![input],
            RelNode::Join { left, right, .. } | RelNode::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Rebuild this node with every input replaced by `f(input)`, keeping
    /// everything else — its properties included. Only for rewrites that
    /// leave every operator's output as it was (a null-safe predicate, an
    /// elided sort).
    pub fn map_inputs(self, mut f: impl FnMut(RelNode) -> RelNode) -> RelNode {
        let mut f = |b: Box<RelNode>| Box::new(f(*b));
        match self {
            RelNode::Get { .. } | RelNode::Values { .. } => self,
            RelNode::Project { input, items, props } => {
                RelNode::Project { input: f(input), items, props }
            }
            RelNode::Filter { input, predicate, props } => {
                RelNode::Filter { input: f(input), predicate, props }
            }
            RelNode::Join { kind, left, right, on, props } => {
                let left = f(left);
                RelNode::Join { kind, left, right: f(right), on, props }
            }
            RelNode::Aggregate { input, group_by, aggs, props } => {
                RelNode::Aggregate { input: f(input), group_by, aggs, props }
            }
            RelNode::Window { input, items, props } => {
                RelNode::Window { input: f(input), items, props }
            }
            RelNode::Sort { input, keys, props } => RelNode::Sort { input: f(input), keys, props },
            RelNode::Limit { input, limit, offset, props } => {
                RelNode::Limit { input: f(input), limit, offset, props }
            }
            RelNode::SetOp { kind, left, right, props } => {
                let left = f(left);
                RelNode::SetOp { kind, left, right: f(right), props }
            }
        }
    }

    /// Operator name for explain output.
    pub fn name(&self) -> &'static str {
        match self {
            RelNode::Get { .. } => "xtra_get",
            RelNode::Project { .. } => "xtra_project",
            RelNode::Filter { .. } => "xtra_filter",
            RelNode::Join { kind: JoinKind::Inner, .. } => "xtra_join_inner",
            RelNode::Join { kind: JoinKind::LeftOuter, .. } => "xtra_join_left",
            RelNode::Join { kind: JoinKind::Cross, .. } => "xtra_join_cross",
            RelNode::Aggregate { .. } => "xtra_aggregate",
            RelNode::Window { .. } => "xtra_window",
            RelNode::Sort { .. } => "xtra_sort",
            RelNode::Limit { .. } => "xtra_limit",
            RelNode::Values { .. } => "xtra_values",
            RelNode::SetOp { .. } => "xtra_setop",
        }
    }

    /// Pretty-print the tree, one operator per line, indented by depth.
    pub fn explain(&self) -> String {
        fn walk(node: &RelNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(node.name());
            match node {
                RelNode::Get { table, .. } => {
                    out.push_str(&format!("({table})"));
                }
                RelNode::Project { items, .. } => {
                    let names: Vec<&str> = items.iter().map(|(a, _)| a.as_str()).collect();
                    out.push_str(&format!("[{}]", names.join(", ")));
                }
                RelNode::Filter { predicate, .. } => {
                    out.push_str(&format!("[{predicate}]"));
                }
                RelNode::Aggregate { group_by, aggs, .. } => {
                    let g: Vec<&str> = group_by.iter().map(|(a, _)| a.as_str()).collect();
                    let a: Vec<&str> = aggs.iter().map(|(a, _)| a.as_str()).collect();
                    out.push_str(&format!("[by: {}; aggs: {}]", g.join(", "), a.join(", ")));
                }
                _ => {}
            }
            out.push('\n');
            for child in node.inputs() {
                walk(child, depth + 1, out);
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

impl fmt::Display for RelNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::BinOp;

    fn trades_get() -> RelNode {
        RelNode::get(
            "trades",
            vec![
                ColumnDef::not_null(crate::ORD_COL, SqlType::Int8),
                ColumnDef::new("Symbol", SqlType::Varchar),
                ColumnDef::new("Price", SqlType::Float8),
            ],
        )
    }

    #[test]
    fn get_exposes_ord_col_and_order() {
        let g = trades_get();
        let p = g.props();
        assert_eq!(p.ord_col, Some(crate::ORD_COL));
        assert_eq!(p.output.len(), 3);
    }

    #[test]
    fn get_without_ord_col() {
        let g = RelNode::get("ext", vec![ColumnDef::new("a", SqlType::Int8)]);
        assert!(g.props().ord_col.is_none());
    }

    #[test]
    fn filter_preserves_everything() {
        let f = RelNode::filter(
            trades_get(),
            ScalarExpr::binary(
                BinOp::Gt,
                ScalarExpr::col("Price", SqlType::Float8),
                ScalarExpr::i64(0),
            ),
        );
        let p = f.props();
        assert_eq!(p.output.len(), 3);
        assert_eq!(p.ord_col, Some(crate::ORD_COL));
    }

    #[test]
    fn project_keeps_ord_col_only_if_passed_through() {
        let keep = RelNode::project(
            trades_get(),
            vec![
                (crate::ORD_COL.into(), ScalarExpr::col(crate::ORD_COL, SqlType::Int8)),
                ("Price".into(), ScalarExpr::col("Price", SqlType::Float8)),
            ],
        );
        assert_eq!(keep.props().ord_col, Some(crate::ORD_COL));

        let drop = RelNode::project(
            trades_get(),
            vec![("Price".into(), ScalarExpr::col("Price", SqlType::Float8))],
        );
        assert!(drop.props().ord_col.is_none());
    }

    #[test]
    fn aggregate_destroys_order_and_sets_keys() {
        let agg = RelNode::aggregate(
            trades_get(),
            vec![("Symbol".into(), ScalarExpr::col("Symbol", SqlType::Varchar))],
            vec![(
                "mx".into(),
                ScalarExpr::Agg {
                    func: crate::AggFunc::Max,
                    arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
                },
            )],
        );
        let p = agg.props();
        assert!(p.ord_col.is_none());
        assert_eq!(p.output[0].name, "Symbol");
        assert_eq!(p.output.len(), 2);
        assert_eq!(p.output[1].ty, SqlType::Float8);
    }

    #[test]
    fn left_join_makes_right_nullable_and_disambiguates() {
        let quotes = RelNode::get(
            "quotes",
            vec![
                ColumnDef::new("Symbol", SqlType::Varchar),
                ColumnDef::not_null("Bid", SqlType::Float8),
            ],
        );
        let j = RelNode::join(
            JoinKind::LeftOuter,
            trades_get(),
            quotes,
            ScalarExpr::Const(Datum::Bool(true)),
        );
        let p = j.props();
        assert_eq!(p.output.len(), 5);
        let dup = p.output.iter().find(|c| c.name == "Symbol_r").unwrap();
        assert!(dup.nullable);
        let bid = p.output.iter().find(|c| c.name == "Bid").unwrap();
        assert!(bid.nullable, "left join right side must become nullable");
        assert_eq!(p.ord_col, Some(crate::ORD_COL));
    }

    #[test]
    fn join_suffixes_a_right_name_taken_by_an_earlier_right_column() {
        let left = RelNode::get("l", vec![ColumnDef::new("a", SqlType::Int8)]);
        let right = RelNode::get(
            "r",
            vec![
                ColumnDef::new("a", SqlType::Int8),
                ColumnDef::new("b", SqlType::Int8),
                ColumnDef::new("b", SqlType::Int8),
            ],
        );
        let j = RelNode::join(JoinKind::Inner, left, right, ScalarExpr::Const(Datum::Bool(true)));
        let names: Vec<&str> = j.props().output.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "a_r", "b", "b_r"]);
    }

    #[test]
    fn window_appends_columns() {
        let w = RelNode::window(
            trades_get(),
            vec![(
                "rn".into(),
                ScalarExpr::Window {
                    func: crate::WinFunc::RowNumber,
                    args: vec![],
                    partition_by: vec![],
                    order_by: vec![],
                },
            )],
        );
        let p = w.props();
        assert_eq!(p.output.len(), 4);
        assert_eq!(p.output[3].name, "rn");
        assert_eq!(p.output[3].ty, SqlType::Int8);
        assert_eq!(p.ord_col, Some(crate::ORD_COL));
    }

    /// `ej[`k; ej[`k; ...]; t5]` the way the binder builds it: each right
    /// side renamed, joined, projected back, sorted by the order column.
    fn five_way_ej(width: usize) -> RelNode {
        let table = |t: usize| {
            let mut cols = vec![
                ColumnDef::not_null(crate::ORD_COL, SqlType::Int8),
                ColumnDef::new("k", SqlType::Int8),
            ];
            cols.extend((0..width).map(|i| ColumnDef::new(format!("t{t}m{i}"), SqlType::Float8)));
            RelNode::get(format!("t{t}"), cols)
        };
        let mut plan = table(1);
        for t in 2..=5 {
            let right = table(t);
            let renamed = right
                .props()
                .output
                .iter()
                .map(|c| (format!("hq_r_{}", c.name).into(), ScalarExpr::col(c.name.clone(), c.ty)))
                .collect();
            let on = ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("k", SqlType::Int8),
                ScalarExpr::col("hq_r_k", SqlType::Int8),
            );
            let (lp, rp) = (plan.props().clone(), right.props().clone());
            let join = RelNode::join(JoinKind::Inner, plan, RelNode::project(right, renamed), on);
            let mut items: Vec<_> = lp
                .output
                .iter()
                .map(|c| (c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)))
                .collect();
            items.extend(rp.output[2..].iter().map(|c| {
                (c.name.clone(), ScalarExpr::col(format!("hq_r_{}", c.name), c.ty))
            }));
            plan = RelNode::sort(
                RelNode::project(join, items),
                vec![SortKey::asc(crate::ORD_COL, SqlType::Int8)],
            );
        }
        plan
    }

    #[test]
    fn props_are_derived_once_and_shared() {
        let plan = five_way_ej(500);
        // Reading the properties hands out the stored ones, every time.
        let (a, b) = (plan.props(), plan.props());
        assert!(Arc::ptr_eq(&a.output, &b.output));
        assert_eq!(a.output.len(), 2 + 5 * 500);
        assert_eq!(a.ord_col, Some(crate::ORD_COL));
        // A sort passes its input's columns through without a copy.
        let RelNode::Sort { input, .. } = &plan else { panic!("{}", plan.explain()) };
        assert!(Arc::ptr_eq(&plan.props().output, &input.props().output));
        // A clone of the plan shares every node's columns.
        let copy = plan.clone();
        assert!(Arc::ptr_eq(&copy.props().output, &plan.props().output));
    }

    #[test]
    fn explain_renders_tree() {
        let f = RelNode::filter(trades_get(), ScalarExpr::Const(Datum::Bool(true)));
        let text = f.explain();
        assert!(text.contains("xtra_filter"));
        assert!(text.contains("  xtra_get(trades)"));
    }
}
