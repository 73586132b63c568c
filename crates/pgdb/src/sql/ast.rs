//! SQL abstract syntax tree.

use crate::types::{Cell, PgType};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A query.
    Select(SelectStmt),
    /// `CREATE [TEMPORARY] TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, PgType)>,
        /// Session-scoped when true.
        temp: bool,
    },
    /// `CREATE [TEMPORARY] TABLE name AS <select>`.
    CreateTableAs {
        /// Table name.
        name: String,
        /// Defining query.
        query: SelectStmt,
        /// Session-scoped when true.
        temp: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Literal rows.
        rows: Vec<Vec<SqlExpr>>,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name.
        name: String,
        /// Suppress the error when missing.
        if_exists: bool,
    },
    /// `BEGIN` / `COMMIT` / `SET ...` — accepted and ignored (clients
    /// send these during start-up).
    NoOp(String),
}

/// Set operations between selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION ALL`
    UnionAll,
    /// `UNION` (dedup)
    Union,
    /// `EXCEPT`
    Except,
    /// `INTERSECT`
    Intersect,
}

/// One item in a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Output alias.
        alias: Option<String>,
    },
}

/// A SELECT statement (one block plus optional chained set ops).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM clause; `None` for `SELECT <exprs>`.
    pub from: Option<FromItem>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate.
    pub having: Option<SqlExpr>,
    /// ORDER BY keys with `desc` flags.
    pub order_by: Vec<(SqlExpr, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// OFFSET.
    pub offset: Option<u64>,
    /// Chained set operation, if any.
    pub set_op: Option<(SetOp, Box<SelectStmt>)>,
}

/// Join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// `INNER JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
    /// `CROSS JOIN`
    Cross,
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// Base table (possibly schema-qualified, e.g.
    /// `information_schema.columns`).
    Table {
        /// Table name (with schema prefix when given).
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// Derived table.
    Subquery {
        /// Inner query.
        query: Box<SelectStmt>,
        /// Mandatory alias.
        alias: String,
    },
    /// `VALUES (...), (...) AS alias(c1, c2)`.
    Values {
        /// Literal rows.
        rows: Vec<Vec<SqlExpr>>,
        /// Alias.
        alias: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// A join of two items.
    Join {
        /// Join type.
        kind: JoinType,
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// ON condition (`None` for cross joins).
        on: Option<SqlExpr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `IS NOT DISTINCT FROM`
    IsNotDistinctFrom,
    /// `IS DISTINCT FROM`
    IsDistinctFrom,
    /// `||`
    Concat,
    /// `LIKE`
    Like,
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified by table alias.
    Column {
        /// Qualifier (`t` in `t.c`).
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Cell),
    /// `*` inside `count(*)`.
    Star,
    /// Binary operation.
    Binary {
        /// Operator.
        op: SqlBinOp,
        /// Left operand.
        lhs: Box<SqlExpr>,
        /// Right operand.
        rhs: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `-expr`.
    Neg(Box<SqlExpr>),
    /// Function call (scalar or aggregate — resolved by the executor).
    Func {
        /// Lowercased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// `DISTINCT` inside an aggregate call.
        distinct: bool,
    },
    /// Window function: `func(args) OVER (PARTITION BY ... ORDER BY ...)`.
    WindowFunc {
        /// Lowercased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// PARTITION BY expressions.
        partition_by: Vec<SqlExpr>,
        /// ORDER BY keys with `desc` flags.
        order_by: Vec<(SqlExpr, bool)>,
    },
    /// `CASE WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Branches.
        branches: Vec<(SqlExpr, SqlExpr)>,
        /// ELSE.
        else_result: Option<Box<SqlExpr>>,
    },
    /// `expr::type` / `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Target type.
        ty: PgType,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Needle.
        expr: Box<SqlExpr>,
        /// Haystack.
        list: Vec<SqlExpr>,
        /// Negated?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<SqlExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — uncorrelated subquery, resolved to
    /// a literal list before row evaluation.
    InSubquery {
        /// Needle.
        expr: Box<SqlExpr>,
        /// Subquery; its first output column is the haystack.
        query: Box<SelectStmt>,
        /// Negated?
        negated: bool,
    },
}

impl SqlExpr {
    /// Does this expression contain an aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            SqlExpr::Func { name, .. } if is_aggregate_name(name) => true,
            SqlExpr::Func { args, .. } => args.iter().any(|a| a.contains_aggregate()),
            SqlExpr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            SqlExpr::Not(e) | SqlExpr::Neg(e) => e.contains_aggregate(),
            SqlExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_result.as_ref().map(|e| e.contains_aggregate()).unwrap_or(false)
            }
            SqlExpr::Cast { expr, .. } => expr.contains_aggregate(),
            SqlExpr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            SqlExpr::IsNull { expr, .. } => expr.contains_aggregate(),
            SqlExpr::InSubquery { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// Does this expression contain a window function?
    pub fn contains_window(&self) -> bool {
        match self {
            SqlExpr::WindowFunc { .. } => true,
            SqlExpr::Func { args, .. } => args.iter().any(|a| a.contains_window()),
            SqlExpr::Binary { lhs, rhs, .. } => lhs.contains_window() || rhs.contains_window(),
            SqlExpr::Not(e) | SqlExpr::Neg(e) => e.contains_window(),
            SqlExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| c.contains_window() || r.contains_window())
                    || else_result.as_ref().map(|e| e.contains_window()).unwrap_or(false)
            }
            SqlExpr::Cast { expr, .. } => expr.contains_window(),
            SqlExpr::InList { expr, list, .. } => {
                expr.contains_window() || list.iter().any(|e| e.contains_window())
            }
            SqlExpr::IsNull { expr, .. } => expr.contains_window(),
            SqlExpr::InSubquery { expr, .. } => expr.contains_window(),
            _ => false,
        }
    }
}

/// Aggregate function names known to the engine (including the Hyper-Q
/// toolbox: `hq_first`, `hq_last`, `median`).
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "stddev_samp"
            | "stddev"
            | "var_samp"
            | "stddev_pop"
            | "var_pop"
            | "variance"
            | "median"
            | "hq_first"
            | "hq_last"
            | "bool_and"
            | "bool_or"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = SqlExpr::Func {
            name: "max".into(),
            args: vec![SqlExpr::Column { qualifier: None, name: "p".into() }],
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let wrapped = SqlExpr::Binary {
            op: SqlBinOp::Add,
            lhs: Box::new(agg),
            rhs: Box::new(SqlExpr::Literal(Cell::Int(1))),
        };
        assert!(wrapped.contains_aggregate());
        let plain = SqlExpr::Func {
            name: "abs".into(),
            args: vec![SqlExpr::Literal(Cell::Int(-1))],
            distinct: false,
        };
        assert!(!plain.contains_aggregate());
    }

    #[test]
    fn toolbox_aggregates_recognised() {
        assert!(is_aggregate_name("hq_first"));
        assert!(is_aggregate_name("hq_last"));
        assert!(is_aggregate_name("median"));
        assert!(!is_aggregate_name("coalesce"));
    }
}
