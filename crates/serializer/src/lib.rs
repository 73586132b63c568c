//! # serializer — XTRA trees to PostgreSQL-compatible SQL text
//!
//! The last stage of Hyper-Q's Query Translator (paper §3.4): the
//! transformed XTRA expression is serialized into one or more SQL
//! statements for the PG-compatible backend. Serialization tries to
//! produce *compact* SQL: adjacent operators that fit the shape of a
//! single `SELECT` block (scan → filter → project → aggregate → sort →
//! limit) are merged, and only genuine shape breaks (an aggregate over an
//! aggregate, a projection over window output, joins) introduce derived
//! tables.
//!
//! Generated SQL matches the paper's visible conventions: identifiers are
//! double-quoted, symbol literals are cast (`'GOOG'::varchar`), and
//! materialization emits `CREATE TEMPORARY TABLE HQ_TEMP_n AS ...`.

use xtra::scalar::SortDir;
use xtra::{RelNode, ScalarExpr, SetOpKind, SortKey, UnOp};

/// Serialize a relational plan into a complete `SELECT` statement.
pub fn serialize(plan: &RelNode) -> String {
    let mut ser = Serializer::default();
    let q = ser.render(plan);
    q.to_sql()
}

/// Serialize a `CREATE TEMPORARY TABLE <name> AS <plan>` statement
/// (physical materialization, paper §4.3).
pub fn serialize_create_temp(name: &str, plan: &RelNode) -> String {
    format!("CREATE TEMPORARY TABLE {} AS {}", quote_ident(name), serialize(plan))
}

/// Serialize a standalone scalar expression as `SELECT <expr>`.
pub fn serialize_scalar_query(e: &ScalarExpr) -> String {
    format!("SELECT {}", scalar_sql(e))
}

/// Double-quote an identifier (Hyper-Q preserves Q's case-sensitive
/// column names this way).
pub fn quote_ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// One SELECT block under construction.
#[derive(Debug, Default, Clone)]
struct Query {
    select: Vec<String>,
    from: String,
    wheres: Vec<String>,
    group_by: Vec<String>,
    order_by: Vec<String>,
    limit: Option<u64>,
    offset: u64,
    /// Select items are exactly the source's columns (mergeable).
    select_is_passthrough: bool,
    /// A GROUP BY has been placed (further projections must wrap).
    grouped: bool,
    /// Window functions present in the select list.
    windowed: bool,
    /// This block is a set operation (UNION ALL ...), not a simple SELECT.
    is_setop: bool,
}

impl Query {
    fn to_sql(&self) -> String {
        if self.is_setop {
            return self.from.clone();
        }
        let mut s = String::with_capacity(128);
        s.push_str("SELECT ");
        if self.select.is_empty() {
            s.push('*');
        } else {
            s.push_str(&self.select.join(", "));
        }
        s.push_str(" FROM ");
        s.push_str(&self.from);
        if !self.wheres.is_empty() {
            s.push_str(" WHERE ");
            s.push_str(&self.wheres.join(" AND "));
        }
        if !self.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            s.push_str(&self.group_by.join(", "));
        }
        if !self.order_by.is_empty() {
            s.push_str(" ORDER BY ");
            s.push_str(&self.order_by.join(", "));
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        if self.offset > 0 {
            s.push_str(&format!(" OFFSET {}", self.offset));
        }
        s
    }
}

#[derive(Debug, Default)]
struct Serializer {
    alias_seq: usize,
}

impl Serializer {
    fn next_alias(&mut self) -> String {
        self.alias_seq += 1;
        format!("hq_sub{}", self.alias_seq)
    }

    /// Wrap a query into a derived table, producing a fresh mergeable
    /// block.
    fn wrap(&mut self, q: Query) -> Query {
        let alias = self.next_alias();
        Query {
            from: format!("({}) AS {}", q.to_sql(), alias),
            select_is_passthrough: true,
            ..Default::default()
        }
    }

    fn render(&mut self, node: &RelNode) -> Query {
        match node {
            RelNode::Get { table, props } => Query {
                select: props.output.iter().map(|c| quote_ident(&c.name)).collect(),
                from: quote_ident(table),
                select_is_passthrough: true,
                ..Default::default()
            },
            RelNode::Values { rows, props } => {
                let cols: Vec<String> =
                    props.output.iter().map(|c| quote_ident(&c.name)).collect();
                let alias = self.next_alias();
                let rows_sql: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> =
                            r.iter().map(|d| d.to_sql_literal()).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                Query {
                    select: cols.clone(),
                    from: format!(
                        "(VALUES {}) AS {}({})",
                        rows_sql.join(", "),
                        alias,
                        cols.join(", ")
                    ),
                    select_is_passthrough: true,
                    ..Default::default()
                }
            }
            RelNode::Filter { input, predicate, .. } => {
                let q = self.render(input);
                // A filter over grouped/limited/windowed output must wrap
                // (WHERE runs before GROUP BY / window evaluation), and so
                // must a filter over a projection: WHERE cannot see select
                // aliases.
                let mut q = if q.grouped
                    || q.limit.is_some()
                    || q.windowed
                    || q.is_setop
                    || !q.select_is_passthrough
                {
                    self.wrap(q)
                } else {
                    q
                };
                q.wheres.push(scalar_sql(predicate));
                q
            }
            RelNode::Project { input, items, .. } => {
                let q = self.render(input);
                let mut q = if q.select_is_passthrough && !q.is_setop {
                    q
                } else {
                    self.wrap(q)
                };
                q.select = items
                    .iter()
                    .map(|(alias, e)| project_item(alias, e))
                    .collect();
                q.select_is_passthrough = false;
                q.windowed = items.iter().any(|(_, e)| e.contains_window());
                q
            }
            RelNode::Aggregate { input, group_by, aggs, .. } => {
                let q = self.render(input);
                // Aggregation replaces the select list, so any existing
                // projection (e.g. a join's rename-back) must be wrapped
                // into a derived table first.
                let mut q = if q.grouped
                    || q.limit.is_some()
                    || q.windowed
                    || q.is_setop
                    || !q.select_is_passthrough
                {
                    self.wrap(q)
                } else {
                    q
                };
                let mut select = Vec::with_capacity(group_by.len() + aggs.len());
                for (alias, e) in group_by {
                    select.push(project_item(alias, e));
                    q.group_by.push(scalar_sql(e));
                }
                for (alias, e) in aggs {
                    select.push(project_item(alias, e));
                }
                q.select = select;
                q.select_is_passthrough = false;
                q.grouped = true;
                // Ordering below an aggregate is meaningless in SQL.
                q.order_by.clear();
                q
            }
            RelNode::Window { input, items, .. } => {
                let q = self.render(input);
                let mut q = if q.select_is_passthrough && !q.is_setop {
                    q
                } else {
                    self.wrap(q)
                };
                // Window node appends columns to the passthrough set.
                let mut select = if q.select.is_empty() {
                    vec!["*".to_string()]
                } else {
                    q.select.clone()
                };
                for (alias, e) in items {
                    select.push(project_item(alias, e));
                }
                q.select = select;
                q.select_is_passthrough = false;
                q.windowed = true;
                q
            }
            RelNode::Sort { input, keys, .. } => {
                let q = self.render(input);
                let mut q = if q.limit.is_some() || q.is_setop { self.wrap(q) } else { q };
                q.order_by = keys.iter().map(sort_key_sql).collect();
                q
            }
            RelNode::Limit { input, limit, offset, .. } => {
                let q = self.render(input);
                let mut q = if q.limit.is_some() || q.is_setop { self.wrap(q) } else { q };
                q.limit = *limit;
                q.offset = *offset;
                q
            }
            RelNode::Join { kind, left, right, on, .. } => {
                let lq = self.render(left);
                let rq = self.render(right);
                let la = self.next_alias();
                let ra = self.next_alias();
                let join_kw = match kind {
                    xtra::JoinKind::Inner => "INNER JOIN",
                    xtra::JoinKind::LeftOuter => "LEFT OUTER JOIN",
                    xtra::JoinKind::Cross => "CROSS JOIN",
                };
                let on_sql = scalar_sql(on);
                let from = if *kind == xtra::JoinKind::Cross {
                    format!("({}) AS {} {} ({}) AS {}", lq.to_sql(), la, join_kw, rq.to_sql(), ra)
                } else {
                    format!(
                        "({}) AS {} {} ({}) AS {} ON {}",
                        lq.to_sql(),
                        la,
                        join_kw,
                        rq.to_sql(),
                        ra,
                        on_sql
                    )
                };
                Query { from, select_is_passthrough: true, ..Default::default() }
            }
            RelNode::SetOp { kind, left, right, .. } => {
                let l = self.render(left).to_sql();
                let r = self.render(right).to_sql();
                let op = match kind {
                    SetOpKind::UnionAll => "UNION ALL",
                    SetOpKind::Except => "EXCEPT",
                    SetOpKind::Intersect => "INTERSECT",
                };
                Query {
                    from: format!("{l} {op} {r}"),
                    is_setop: true,
                    ..Default::default()
                }
            }
        }
    }
}

fn project_item(alias: &str, e: &ScalarExpr) -> String {
    let sql = scalar_sql(e);
    // Avoid noisy `"x" AS "x"`.
    if let ScalarExpr::Column { name, .. } = e {
        if name == alias {
            return quote_ident(name);
        }
    }
    format!("{} AS {}", sql, quote_ident(alias))
}

fn sort_key_sql(k: &SortKey) -> String {
    let dir = match k.dir {
        SortDir::Asc => "ASC",
        SortDir::Desc => "DESC",
    };
    format!("{} {}", scalar_sql(&k.expr), dir)
}

/// Render a scalar XTRA expression as SQL.
pub fn scalar_sql(e: &ScalarExpr) -> String {
    match e {
        ScalarExpr::Column { name, .. } => quote_ident(name),
        ScalarExpr::Const(d) => d.to_sql_literal(),
        ScalarExpr::Binary { op, lhs, rhs } => {
            format!("({} {} {})", scalar_sql(lhs), op.sql(), scalar_sql(rhs))
        }
        ScalarExpr::Unary { op, arg } => match op {
            UnOp::Neg => format!("(-{})", scalar_sql(arg)),
            UnOp::Not => format!("(NOT {})", scalar_sql(arg)),
            UnOp::Abs => format!("abs({})", scalar_sql(arg)),
        },
        ScalarExpr::Agg { func, arg } => {
            let inner = arg.as_ref().map(|a| scalar_sql(a)).unwrap_or_else(|| "*".to_string());
            match func {
                xtra::AggFunc::CountDistinct => format!("count(DISTINCT {inner})"),
                // Backend-toolbox aggregates for Q's order-sensitive
                // first/last (paper §5's "toolbox" of helpers).
                xtra::AggFunc::First => format!("hq_first({inner})"),
                xtra::AggFunc::Last => format!("hq_last({inner})"),
                other => format!("{}({inner})", other.sql()),
            }
        }
        ScalarExpr::Window { func, args, partition_by, order_by } => {
            let args_sql: Vec<String> = args.iter().map(scalar_sql).collect();
            let mut over = String::new();
            if !partition_by.is_empty() {
                over.push_str("PARTITION BY ");
                over.push_str(
                    &partition_by.iter().map(scalar_sql).collect::<Vec<_>>().join(", "),
                );
            }
            if !order_by.is_empty() {
                if !over.is_empty() {
                    over.push(' ');
                }
                over.push_str("ORDER BY ");
                let keys: Vec<String> = order_by
                    .iter()
                    .map(|(e, d)| {
                        format!(
                            "{} {}",
                            scalar_sql(e),
                            if *d == SortDir::Asc { "ASC" } else { "DESC" }
                        )
                    })
                    .collect();
                over.push_str(&keys.join(", "));
            }
            format!("{}({}) OVER ({over})", func.sql(), args_sql.join(", "))
        }
        ScalarExpr::Func { name, args, .. } => {
            let args_sql: Vec<String> = args.iter().map(scalar_sql).collect();
            format!("{name}({})", args_sql.join(", "))
        }
        ScalarExpr::Case { branches, else_result } => {
            let mut s = String::from("CASE");
            for (c, r) in branches {
                s.push_str(&format!(" WHEN {} THEN {}", scalar_sql(c), scalar_sql(r)));
            }
            if let Some(e) = else_result {
                s.push_str(&format!(" ELSE {}", scalar_sql(e)));
            }
            s.push_str(" END");
            s
        }
        ScalarExpr::Cast { arg, ty } => format!("({})::{}", scalar_sql(arg), ty.sql_name()),
        ScalarExpr::InList { needle, list, negated } => {
            let items: Vec<String> = list.iter().map(scalar_sql).collect();
            format!(
                "({} {}IN ({}))",
                scalar_sql(needle),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        ScalarExpr::IsNull { arg, negated } => {
            format!("({} IS {}NULL)", scalar_sql(arg), if *negated { "NOT " } else { "" })
        }
        ScalarExpr::InSubquery { needle, plan, negated } => {
            format!(
                "({} {}IN ({}))",
                scalar_sql(needle),
                if *negated { "NOT " } else { "" },
                serialize(plan)
            )
        }
    }
}

/// Count how many times `IS NOT DISTINCT FROM` appears (used by tests and
/// ablation reporting).
pub fn count_null_safe_predicates(sql: &str) -> usize {
    sql.matches("IS NOT DISTINCT FROM").count()
}

#[allow(unused_imports)]
use xtra::Datum as _DatumUsed;

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::BinOp;
    use xtra::{AggFunc, ColumnDef, Datum, JoinKind, SqlType, WinFunc, ORD_COL};

    fn trades() -> RelNode {
        RelNode::get(
            "trades",
            vec![
                ColumnDef::not_null(ORD_COL, SqlType::Int8),
                ColumnDef::new("Symbol", SqlType::Varchar),
                ColumnDef::new("Price", SqlType::Float8),
            ],
        )
    }

    #[test]
    fn get_serializes_to_plain_select() {
        let sql = serialize(&trades());
        assert_eq!(sql, r#"SELECT "ordcol", "Symbol", "Price" FROM "trades""#);
    }

    #[test]
    fn filter_merges_into_where() {
        let plan = RelNode::filter(
            trades(),
            ScalarExpr::Binary {
                op: BinOp::IsNotDistinctFrom,
                lhs: Box::new(ScalarExpr::col("Symbol", SqlType::Varchar)),
                rhs: Box::new(ScalarExpr::str("GOOG")),
            },
        );
        let sql = serialize(&plan);
        assert!(
            sql.contains(r#"WHERE ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar)"#),
            "{sql}"
        );
        assert!(!sql.contains("hq_sub"), "no subquery needed: {sql}");
    }

    #[test]
    fn paper_section_4_3_shape() {
        // CREATE TEMPORARY TABLE HQ_TEMP_1 AS SELECT ordcol, Price FROM
        // trades WHERE Symbol IS NOT DISTINCT FROM 'GOOG' ORDER BY ordcol.
        let plan = RelNode::sort(
            RelNode::project(
                RelNode::filter(
                    trades(),
                    ScalarExpr::Binary {
                        op: BinOp::IsNotDistinctFrom,
                        lhs: Box::new(ScalarExpr::col("Symbol", SqlType::Varchar)),
                        rhs: Box::new(ScalarExpr::str("GOOG")),
                    },
                ),
                vec![
                    (ORD_COL.into(), ScalarExpr::col(ORD_COL, SqlType::Int8)),
                    ("Price".into(), ScalarExpr::col("Price", SqlType::Float8)),
                ],
            ),
            vec![SortKey::asc(ORD_COL, SqlType::Int8)],
        );
        let sql = serialize_create_temp("HQ_TEMP_1", &plan);
        assert!(sql.starts_with(r#"CREATE TEMPORARY TABLE "HQ_TEMP_1" AS SELECT"#), "{sql}");
        assert!(sql.contains(r#"ORDER BY "ordcol" ASC"#), "{sql}");
        assert!(sql.contains("IS NOT DISTINCT FROM"), "{sql}");
    }

    #[test]
    fn aggregate_merges_group_by() {
        let plan = RelNode::aggregate(
            trades(),
            vec![("Symbol".into(), ScalarExpr::col("Symbol", SqlType::Varchar))],
            vec![(
                "mx".into(),
                ScalarExpr::Agg {
                    func: AggFunc::Max,
                    arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
                },
            )],
        );
        let sql = serialize(&plan);
        assert!(sql.contains(r#"GROUP BY "Symbol""#), "{sql}");
        assert!(sql.contains(r#"max("Price") AS "mx""#), "{sql}");
        assert!(!sql.contains("hq_sub"), "{sql}");
    }

    #[test]
    fn count_star() {
        let e = ScalarExpr::Agg { func: AggFunc::Count, arg: None };
        assert_eq!(scalar_sql(&e), "count(*)");
    }

    #[test]
    fn projection_over_aggregate_wraps() {
        let agg = RelNode::aggregate(
            trades(),
            vec![],
            vec![(
                "mx".into(),
                ScalarExpr::Agg {
                    func: AggFunc::Max,
                    arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
                },
            )],
        );
        let plan = RelNode::project(
            agg,
            vec![
                (
                    ORD_COL.into(),
                    ScalarExpr::Cast { arg: Box::new(ScalarExpr::i64(1)), ty: SqlType::Int4 },
                ),
                ("mx".into(), ScalarExpr::col("mx", SqlType::Float8)),
            ],
        );
        let sql = serialize(&plan);
        assert!(sql.contains("hq_sub"), "aggregate must wrap: {sql}");
        assert!(sql.contains("(1)::integer"), "{sql}");
    }

    #[test]
    fn window_function_syntax() {
        let e = ScalarExpr::Window {
            func: WinFunc::Lead,
            args: vec![ScalarExpr::col("Time", SqlType::Time)],
            partition_by: vec![ScalarExpr::col("Symbol", SqlType::Varchar)],
            order_by: vec![(ScalarExpr::col("Time", SqlType::Time), SortDir::Asc)],
        };
        assert_eq!(
            scalar_sql(&e),
            r#"lead("Time") OVER (PARTITION BY "Symbol" ORDER BY "Time" ASC)"#
        );
    }

    #[test]
    fn join_serializes_with_derived_tables() {
        let plan = RelNode::join(
            JoinKind::LeftOuter,
            trades(),
            RelNode::get("quotes", vec![ColumnDef::new("hq_r_Symbol", SqlType::Varchar)]),
            ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("Symbol", SqlType::Varchar),
                ScalarExpr::col("hq_r_Symbol", SqlType::Varchar),
            ),
        );
        let sql = serialize(&plan);
        assert!(sql.contains("LEFT OUTER JOIN"), "{sql}");
        assert!(sql.contains("ON (\"Symbol\" = \"hq_r_Symbol\")"), "{sql}");
    }

    #[test]
    fn values_render_inline() {
        let plan = RelNode::values(
            vec![
                ColumnDef::not_null(ORD_COL, SqlType::Int8),
                ColumnDef::new("s", SqlType::Varchar),
            ],
            vec![
                vec![Datum::I64(1), Datum::Str("a".into())],
                vec![Datum::I64(2), Datum::Str("b".into())],
            ],
        );
        let sql = serialize(&plan);
        assert!(sql.contains("VALUES (1, 'a'::varchar), (2, 'b'::varchar)"), "{sql}");
    }

    #[test]
    fn union_all() {
        let plan = RelNode::set_op(SetOpKind::UnionAll, trades(), trades());
        let sql = serialize(&plan);
        assert_eq!(sql.matches("UNION ALL").count(), 1, "{sql}");
    }

    #[test]
    fn case_expression() {
        let e = ScalarExpr::Case {
            branches: vec![(
                ScalarExpr::binary(
                    BinOp::Gt,
                    ScalarExpr::col("Price", SqlType::Float8),
                    ScalarExpr::i64(0),
                ),
                ScalarExpr::i64(1),
            )],
            else_result: Some(Box::new(ScalarExpr::i64(0))),
        };
        assert_eq!(scalar_sql(&e), r#"CASE WHEN ("Price" > 0) THEN 1 ELSE 0 END"#);
    }

    #[test]
    fn in_list_and_is_null() {
        let e = ScalarExpr::InList {
            needle: Box::new(ScalarExpr::col("Symbol", SqlType::Varchar)),
            list: vec![ScalarExpr::str("GOOG"), ScalarExpr::str("IBM")],
            negated: false,
        };
        assert_eq!(
            scalar_sql(&e),
            r#"("Symbol" IN ('GOOG'::varchar, 'IBM'::varchar))"#
        );
        let n = ScalarExpr::IsNull {
            arg: Box::new(ScalarExpr::col("x", SqlType::Int8)),
            negated: true,
        };
        assert_eq!(scalar_sql(&n), r#"("x" IS NOT NULL)"#);
    }

    #[test]
    fn limit_offset() {
        let plan = RelNode::limit(trades(), Some(10), 5);
        let sql = serialize(&plan);
        assert!(sql.ends_with("LIMIT 10 OFFSET 5"), "{sql}");
    }

    #[test]
    fn sort_then_limit_then_sort_wraps() {
        let inner = RelNode::limit(
            RelNode::sort(trades(), vec![SortKey::desc("Price", SqlType::Float8)]),
            Some(3),
            0,
        );
        let plan = RelNode::sort(inner, vec![SortKey::asc(ORD_COL, SqlType::Int8)]);
        let sql = serialize(&plan);
        assert!(sql.contains("hq_sub"), "limit then re-sort needs wrapping: {sql}");
        assert!(sql.trim_end().ends_with(r#"ORDER BY "ordcol" ASC"#), "{sql}");
    }

    #[test]
    fn identifier_quoting_escapes() {
        assert_eq!(quote_ident("weird\"name"), "\"weird\"\"name\"");
    }

    #[test]
    fn null_safe_counter() {
        assert_eq!(count_null_safe_predicates("a IS NOT DISTINCT FROM b"), 1);
        assert_eq!(count_null_safe_predicates("x = y"), 0);
    }
}
