//! Scalar expressions in the XTRA algebra.
//!
//! Scalar operators carry two derived properties the binder checks when
//! composing trees (paper §3.2.2): the **output type** and whether the
//! expression **has side effects** (side-effecting expressions force eager
//! materialization in the Cross Compiler, §4.3).

use crate::types::{ColumnDef, Datum, Name, SqlType};
use std::fmt;

/// Dyadic scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (Q spells division `%`)
    Div,
    /// `%` modulo
    Mod,
    /// `=` three-valued SQL equality.
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
    /// `IS NOT DISTINCT FROM` — null-safe equality. The Xformer's
    /// correctness pass rewrites Q equalities to this operator to impose
    /// Q's two-valued logic on the SQL backend (paper §3.3).
    IsNotDistinctFrom,
    /// `||` string concatenation.
    Concat,
    /// `LIKE` pattern match.
    Like,
}

impl BinOp {
    /// SQL spelling of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::IsNotDistinctFrom => "IS NOT DISTINCT FROM",
            BinOp::Concat => "||",
            BinOp::Like => "LIKE",
        }
    }

    /// Does this operator yield a boolean?
    pub fn is_predicate(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Neq
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
                | BinOp::IsNotDistinctFrom
                | BinOp::Like
        )
    }

    /// Is this a plain (three-valued) comparison that the null-logic
    /// transformation must consider rewriting?
    pub fn is_equality(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Neq)
    }
}

/// Monadic scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
    /// Absolute value.
    Abs,
}

impl UnOp {
    /// SQL spelling (function-style for `abs`).
    pub fn sql(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "NOT",
            UnOp::Abs => "abs",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(x)`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `STDDEV_SAMP` — Q's `sdev` (sample deviation).
    StdDev,
    /// `VAR_SAMP` — Q's `svar`.
    Variance,
    /// `STDDEV_POP` — Q's `dev` is the population statistic.
    StdDevPop,
    /// `VAR_POP` — Q's `var`.
    VariancePop,
    /// First value in order (Q `first`); serialized via an ordered window
    /// or `MIN` on the order column join-back depending on context.
    First,
    /// Last value in order (Q `last`).
    Last,
    /// `COUNT(DISTINCT x)`.
    CountDistinct,
}

impl AggFunc {
    /// SQL function name.
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count | AggFunc::CountDistinct => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::StdDev => "stddev_samp",
            AggFunc::Variance => "var_samp",
            AggFunc::StdDevPop => "stddev_pop",
            AggFunc::VariancePop => "var_pop",
            AggFunc::First => "first_value_agg",
            AggFunc::Last => "last_value_agg",
        }
    }
}

/// Window functions, used by the ordering/as-of-join machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinFunc {
    /// `ROW_NUMBER()` — generates implicit order columns (paper §3.3:
    /// "The Xformer may also generate implicit order columns by injecting
    /// window functions").
    RowNumber,
    /// `LEAD(x)` — upper bound of an as-of validity interval.
    Lead,
    /// `LAG(x)`.
    Lag,
    /// `FIRST_VALUE(x)`.
    FirstValue,
    /// `LAST_VALUE(x)`.
    LastValue,
    /// `RANK()`.
    Rank,
}

impl WinFunc {
    /// SQL function name.
    pub fn sql(&self) -> &'static str {
        match self {
            WinFunc::RowNumber => "row_number",
            WinFunc::Lead => "lead",
            WinFunc::Lag => "lag",
            WinFunc::FirstValue => "first_value",
            WinFunc::LastValue => "last_value",
            WinFunc::Rank => "rank",
        }
    }
}

/// A sort direction within an ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortDir {
    /// Ascending, nulls first (Q convention).
    Asc,
    /// Descending.
    Desc,
}

/// A scalar XTRA expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to a column of the operator's input.
    Column {
        /// Column name.
        name: Name,
        /// Result type (filled in by the binder).
        ty: SqlType,
    },
    /// A constant.
    Const(Datum),
    /// Dyadic operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// Monadic operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        arg: Box<ScalarExpr>,
    },
    /// Aggregate application. Only valid inside an `Aggregate` rel node.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<ScalarExpr>>,
    },
    /// Window function application. Only valid inside a `Window` rel node.
    Window {
        /// The window function.
        func: WinFunc,
        /// Function arguments.
        args: Vec<ScalarExpr>,
        /// PARTITION BY expressions.
        partition_by: Vec<ScalarExpr>,
        /// ORDER BY keys.
        order_by: Vec<(ScalarExpr, SortDir)>,
    },
    /// Generic function call (backend builtin or UDF from the PG
    /// "toolbox" the paper describes for non-mappable Q constructs).
    Func {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<ScalarExpr>,
        /// Result type.
        ty: SqlType,
        /// Whether the function is volatile (forces materialization).
        volatile: bool,
    },
    /// `CASE WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// `(condition, result)` branches.
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        /// ELSE result.
        else_result: Option<Box<ScalarExpr>>,
    },
    /// `expr::type` cast.
    Cast {
        /// Operand.
        arg: Box<ScalarExpr>,
        /// Target type.
        ty: SqlType,
    },
    /// `x IN (a, b, c)`.
    InList {
        /// Needle.
        needle: Box<ScalarExpr>,
        /// Haystack constants/expressions.
        list: Vec<ScalarExpr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `x IS [NOT] NULL`.
    IsNull {
        /// Operand.
        arg: Box<ScalarExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `x [NOT] IN (SELECT ...)` — an uncorrelated relational subquery
    /// (how `Symbol in exec Symbol from universe` binds).
    InSubquery {
        /// Needle.
        needle: Box<ScalarExpr>,
        /// The subquery plan; its first output column is the haystack.
        plan: Box<crate::rel::RelNode>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

impl ScalarExpr {
    /// Convenience: column reference.
    pub fn col(name: impl Into<Name>, ty: SqlType) -> ScalarExpr {
        ScalarExpr::Column { name: name.into(), ty }
    }

    /// Convenience: bigint constant.
    pub fn i64(v: i64) -> ScalarExpr {
        ScalarExpr::Const(Datum::I64(v))
    }

    /// Convenience: varchar constant.
    pub fn str(v: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Const(Datum::Str(v.into()))
    }

    /// Convenience: dyadic application.
    pub fn binary(op: BinOp, lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Conjunction of a list of predicates (`TRUE` for an empty list).
    pub fn conjunction(mut preds: Vec<ScalarExpr>) -> ScalarExpr {
        match preds.len() {
            0 => ScalarExpr::Const(Datum::Bool(true)),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, p| ScalarExpr::binary(BinOp::And, acc, p))
            }
        }
    }

    /// Derived property: result type.
    pub fn derived_type(&self) -> SqlType {
        match self {
            ScalarExpr::Column { ty, .. } => *ty,
            ScalarExpr::Const(d) => d.sql_type(),
            ScalarExpr::Binary { op, lhs, rhs } => {
                if op.is_predicate() {
                    SqlType::Bool
                } else if *op == BinOp::Concat {
                    SqlType::Text
                } else if *op == BinOp::Div {
                    // Q `%` is always float division.
                    SqlType::Float8
                } else {
                    let lt = lhs.derived_type();
                    let rt = rhs.derived_type();
                    // Temporal arithmetic: date/timestamp +- integer stays temporal.
                    if lt.is_temporal() && rt.is_numeric() {
                        lt
                    } else if rt.is_temporal() && lt.is_numeric() {
                        rt
                    } else if lt.is_temporal() && rt.is_temporal() {
                        SqlType::Int8
                    } else {
                        SqlType::promote(lt, rt)
                    }
                }
            }
            ScalarExpr::Unary { op, arg } => match op {
                UnOp::Not => SqlType::Bool,
                UnOp::Neg | UnOp::Abs => arg.derived_type(),
            },
            ScalarExpr::Agg { func, arg } => match func {
                AggFunc::Count | AggFunc::CountDistinct => SqlType::Int8,
                AggFunc::Avg
                | AggFunc::StdDev
                | AggFunc::Variance
                | AggFunc::StdDevPop
                | AggFunc::VariancePop => SqlType::Float8,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::First | AggFunc::Last => {
                    arg.as_ref().map(|a| a.derived_type()).unwrap_or(SqlType::Int8)
                }
            },
            ScalarExpr::Window { func, args, .. } => match func {
                WinFunc::RowNumber | WinFunc::Rank => SqlType::Int8,
                WinFunc::Lead | WinFunc::Lag | WinFunc::FirstValue | WinFunc::LastValue => {
                    args.first().map(|a| a.derived_type()).unwrap_or(SqlType::Int8)
                }
            },
            ScalarExpr::Func { ty, .. } => *ty,
            ScalarExpr::Case { branches, else_result } => branches
                .first()
                .map(|(_, r)| r.derived_type())
                .or_else(|| else_result.as_ref().map(|e| e.derived_type()))
                .unwrap_or(SqlType::Text),
            ScalarExpr::Cast { ty, .. } => *ty,
            ScalarExpr::InList { .. }
            | ScalarExpr::IsNull { .. }
            | ScalarExpr::InSubquery { .. } => SqlType::Bool,
        }
    }

    /// Derived property: does evaluating this expression have side effects?
    pub fn has_side_effects(&self) -> bool {
        match self {
            ScalarExpr::Column { .. } | ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => lhs.has_side_effects() || rhs.has_side_effects(),
            ScalarExpr::Unary { arg, .. } => arg.has_side_effects(),
            ScalarExpr::Agg { arg, .. } => {
                arg.as_ref().map(|a| a.has_side_effects()).unwrap_or(false)
            }
            ScalarExpr::Window { args, partition_by, order_by, .. } => {
                args.iter().any(|a| a.has_side_effects())
                    || partition_by.iter().any(|a| a.has_side_effects())
                    || order_by.iter().any(|(a, _)| a.has_side_effects())
            }
            ScalarExpr::Func { volatile, args, .. } => {
                *volatile || args.iter().any(|a| a.has_side_effects())
            }
            ScalarExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| c.has_side_effects() || r.has_side_effects())
                    || else_result.as_ref().map(|e| e.has_side_effects()).unwrap_or(false)
            }
            ScalarExpr::Cast { arg, .. } => arg.has_side_effects(),
            ScalarExpr::InList { needle, list, .. } => {
                needle.has_side_effects() || list.iter().any(|e| e.has_side_effects())
            }
            ScalarExpr::IsNull { arg, .. } => arg.has_side_effects(),
            ScalarExpr::InSubquery { needle, .. } => needle.has_side_effects(),
        }
    }

    /// Does this expression contain any aggregate application?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            ScalarExpr::Agg { .. } => true,
            ScalarExpr::Column { .. } | ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.contains_aggregate() || rhs.contains_aggregate()
            }
            ScalarExpr::Unary { arg, .. } => arg.contains_aggregate(),
            ScalarExpr::Window { args, .. } => args.iter().any(|a| a.contains_aggregate()),
            ScalarExpr::Func { args, .. } => args.iter().any(|a| a.contains_aggregate()),
            ScalarExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_result.as_ref().map(|e| e.contains_aggregate()).unwrap_or(false)
            }
            ScalarExpr::Cast { arg, .. } => arg.contains_aggregate(),
            ScalarExpr::InList { needle, list, .. } => {
                needle.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            ScalarExpr::IsNull { arg, .. } => arg.contains_aggregate(),
            ScalarExpr::InSubquery { needle, .. } => needle.contains_aggregate(),
        }
    }

    /// Does this expression contain any window function application?
    pub fn contains_window(&self) -> bool {
        match self {
            ScalarExpr::Window { .. } => true,
            ScalarExpr::Column { .. } | ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => lhs.contains_window() || rhs.contains_window(),
            ScalarExpr::Unary { arg, .. } => arg.contains_window(),
            ScalarExpr::Agg { arg, .. } => {
                arg.as_ref().map(|a| a.contains_window()).unwrap_or(false)
            }
            ScalarExpr::Func { args, .. } => args.iter().any(|a| a.contains_window()),
            ScalarExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| c.contains_window() || r.contains_window())
                    || else_result.as_ref().map(|e| e.contains_window()).unwrap_or(false)
            }
            ScalarExpr::Cast { arg, .. } => arg.contains_window(),
            ScalarExpr::InList { needle, list, .. } => {
                needle.contains_window() || list.iter().any(|e| e.contains_window())
            }
            ScalarExpr::IsNull { arg, .. } => arg.contains_window(),
            ScalarExpr::InSubquery { needle, .. } => needle.contains_window(),
        }
    }

    /// Collect the names of all referenced columns into `out`.
    pub fn collect_columns<'a>(&'a self, out: &mut impl Extend<&'a str>) {
        match self {
            ScalarExpr::Column { name, .. } => out.extend([name.as_str()]),
            ScalarExpr::Const(_) => {}
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            ScalarExpr::Unary { arg, .. } => arg.collect_columns(out),
            ScalarExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
            ScalarExpr::Window { args, partition_by, order_by, .. } => {
                args.iter().for_each(|a| a.collect_columns(out));
                partition_by.iter().for_each(|a| a.collect_columns(out));
                order_by.iter().for_each(|(a, _)| a.collect_columns(out));
            }
            ScalarExpr::Func { args, .. } => args.iter().for_each(|a| a.collect_columns(out)),
            ScalarExpr::Case { branches, else_result } => {
                for (c, r) in branches {
                    c.collect_columns(out);
                    r.collect_columns(out);
                }
                if let Some(e) = else_result {
                    e.collect_columns(out);
                }
            }
            ScalarExpr::Cast { arg, .. } => arg.collect_columns(out),
            ScalarExpr::InList { needle, list, .. } => {
                needle.collect_columns(out);
                list.iter().for_each(|e| e.collect_columns(out));
            }
            ScalarExpr::IsNull { arg, .. } => arg.collect_columns(out),
            // The subquery resolves its own columns internally; only the
            // needle references the enclosing scope.
            ScalarExpr::InSubquery { needle, .. } => needle.collect_columns(out),
        }
    }

    /// Rewrite every sub-expression bottom-up with `f`, consuming `self`
    /// (what `f` keeps is moved, not copied). A subquery's plan is moved
    /// along untouched.
    pub fn map_bottom_up(self, f: &mut impl FnMut(ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        let mut sub = |e: Box<ScalarExpr>| Box::new(e.map_bottom_up(f));
        let rebuilt = match self {
            ScalarExpr::Column { .. } | ScalarExpr::Const(_) => self,
            ScalarExpr::Binary { op, lhs, rhs } => {
                let lhs = sub(lhs);
                ScalarExpr::Binary { op, lhs, rhs: sub(rhs) }
            }
            ScalarExpr::Unary { op, arg } => ScalarExpr::Unary { op, arg: sub(arg) },
            ScalarExpr::Agg { func, arg } => ScalarExpr::Agg { func, arg: arg.map(sub) },
            ScalarExpr::Window { func, args, partition_by, order_by } => ScalarExpr::Window {
                func,
                args: args.into_iter().map(|a| a.map_bottom_up(f)).collect(),
                partition_by: partition_by.into_iter().map(|a| a.map_bottom_up(f)).collect(),
                order_by: order_by.into_iter().map(|(a, d)| (a.map_bottom_up(f), d)).collect(),
            },
            ScalarExpr::Func { name, args, ty, volatile } => ScalarExpr::Func {
                name,
                args: args.into_iter().map(|a| a.map_bottom_up(f)).collect(),
                ty,
                volatile,
            },
            ScalarExpr::Case { branches, else_result } => ScalarExpr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.map_bottom_up(f), r.map_bottom_up(f)))
                    .collect(),
                else_result: else_result.map(|e| Box::new(e.map_bottom_up(f))),
            },
            ScalarExpr::Cast { arg, ty } => ScalarExpr::Cast { arg: sub(arg), ty },
            ScalarExpr::InList { needle, list, negated } => ScalarExpr::InList {
                needle: sub(needle),
                list: list.into_iter().map(|e| e.map_bottom_up(f)).collect(),
                negated,
            },
            ScalarExpr::IsNull { arg, negated } => ScalarExpr::IsNull { arg: sub(arg), negated },
            ScalarExpr::InSubquery { needle, plan, negated } => {
                ScalarExpr::InSubquery { needle: sub(needle), plan, negated }
            }
        };
        f(rebuilt)
    }

    /// Resolve this expression's type against a schema, refreshing stale
    /// column types (used after transformations reshape inputs).
    pub fn retype(&self, schema: &[ColumnDef]) -> ScalarExpr {
        self.clone().map_bottom_up(&mut |e| match e {
            ScalarExpr::Column { name, ty } => {
                let ty = schema.iter().find(|c| c.name == name).map(|c| c.ty).unwrap_or(ty);
                ScalarExpr::Column { name, ty }
            }
            other => other,
        })
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column { name, .. } => write!(f, "{name}"),
            ScalarExpr::Const(d) => write!(f, "{}", d.to_sql_literal()),
            ScalarExpr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.sql()),
            ScalarExpr::Unary { op, arg } => write!(f, "{}({arg})", op.sql()),
            ScalarExpr::Agg { func, arg } => match arg {
                Some(a) => write!(f, "{}({a})", func.sql()),
                None => write!(f, "{}(*)", func.sql()),
            },
            ScalarExpr::Window { func, .. } => write!(f, "{}() OVER (...)", func.sql()),
            ScalarExpr::Func { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            ScalarExpr::Case { .. } => f.write_str("CASE ... END"),
            ScalarExpr::Cast { arg, ty } => write!(f, "({arg})::{}", ty.sql_name()),
            ScalarExpr::InList { needle, list, negated } => {
                write!(f, "{needle} {}IN ({} items)", if *negated { "NOT " } else { "" }, list.len())
            }
            ScalarExpr::IsNull { arg, negated } => {
                write!(f, "{arg} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::InSubquery { needle, negated, .. } => {
                write!(f, "{needle} {}IN (subquery)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_type_as_bool() {
        let e = ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::col("Symbol", SqlType::Varchar),
            ScalarExpr::str("GOOG"),
        );
        assert_eq!(e.derived_type(), SqlType::Bool);
    }

    #[test]
    fn arithmetic_promotes() {
        let e = ScalarExpr::binary(
            BinOp::Add,
            ScalarExpr::col("a", SqlType::Int4),
            ScalarExpr::col("b", SqlType::Float8),
        );
        assert_eq!(e.derived_type(), SqlType::Float8);
    }

    #[test]
    fn division_is_float() {
        let e = ScalarExpr::binary(BinOp::Div, ScalarExpr::i64(1), ScalarExpr::i64(2));
        assert_eq!(e.derived_type(), SqlType::Float8);
    }

    #[test]
    fn temporal_arithmetic() {
        let e = ScalarExpr::binary(
            BinOp::Add,
            ScalarExpr::col("d", SqlType::Date),
            ScalarExpr::i64(1),
        );
        assert_eq!(e.derived_type(), SqlType::Date);
        let diff = ScalarExpr::binary(
            BinOp::Sub,
            ScalarExpr::col("d1", SqlType::Date),
            ScalarExpr::col("d2", SqlType::Date),
        );
        assert_eq!(diff.derived_type(), SqlType::Int8);
    }

    #[test]
    fn volatile_functions_flag_side_effects() {
        let pure = ScalarExpr::Func {
            name: "length".into(),
            args: vec![ScalarExpr::str("x")],
            ty: SqlType::Int4,
            volatile: false,
        };
        assert!(!pure.has_side_effects());
        let vol = ScalarExpr::Func {
            name: "nextval".into(),
            args: vec![],
            ty: SqlType::Int8,
            volatile: true,
        };
        assert!(vol.has_side_effects());
        let nested = ScalarExpr::binary(BinOp::Add, ScalarExpr::i64(1), vol);
        assert!(nested.has_side_effects());
    }

    #[test]
    fn aggregate_detection() {
        let agg = ScalarExpr::Agg {
            func: AggFunc::Max,
            arg: Some(Box::new(ScalarExpr::col("Price", SqlType::Float8))),
        };
        assert!(agg.contains_aggregate());
        assert_eq!(agg.derived_type(), SqlType::Float8);
        let wrapped = ScalarExpr::binary(BinOp::Add, agg, ScalarExpr::i64(1));
        assert!(wrapped.contains_aggregate());
        assert!(!ScalarExpr::i64(1).contains_aggregate());
    }

    #[test]
    fn count_types_as_int8() {
        let c = ScalarExpr::Agg { func: AggFunc::Count, arg: None };
        assert_eq!(c.derived_type(), SqlType::Int8);
    }

    #[test]
    fn collect_columns_walks_everything() {
        let e = ScalarExpr::binary(
            BinOp::And,
            ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("a", SqlType::Int8),
                ScalarExpr::col("b", SqlType::Int8),
            ),
            ScalarExpr::InList {
                needle: Box::new(ScalarExpr::col("c", SqlType::Varchar)),
                list: vec![ScalarExpr::str("x")],
                negated: false,
            },
        );
        let mut cols: Vec<&str> = vec![];
        e.collect_columns(&mut cols);
        assert_eq!(cols, ["a", "b", "c"]);
    }

    #[test]
    fn conjunction_builds_and_chain() {
        let p = ScalarExpr::conjunction(vec![]);
        assert_eq!(p, ScalarExpr::Const(Datum::Bool(true)));
        let p = ScalarExpr::conjunction(vec![ScalarExpr::i64(1)]);
        assert_eq!(p, ScalarExpr::i64(1));
        let p = ScalarExpr::conjunction(vec![
            ScalarExpr::Const(Datum::Bool(true)),
            ScalarExpr::Const(Datum::Bool(false)),
        ]);
        assert!(matches!(p, ScalarExpr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn map_bottom_up_replaces_nodes_bottom_up() {
        let e = ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::col("x", SqlType::Int8),
            ScalarExpr::i64(1),
        );
        // Replace plain equality with null-safe equality — a miniature of
        // the Xformer's correctness pass.
        let rewritten = e.map_bottom_up(&mut |node| match node {
            ScalarExpr::Binary { op: BinOp::Eq, lhs, rhs } => {
                ScalarExpr::Binary { op: BinOp::IsNotDistinctFrom, lhs, rhs }
            }
            other => other,
        });
        assert!(matches!(rewritten, ScalarExpr::Binary { op: BinOp::IsNotDistinctFrom, .. }));
    }

    #[test]
    fn in_subquery_properties() {
        use crate::rel::RelNode;
        let plan = RelNode::get("u", vec![ColumnDef::new("s", SqlType::Varchar)]);
        let e = ScalarExpr::InSubquery {
            needle: Box::new(ScalarExpr::col("Symbol", SqlType::Varchar)),
            plan: Box::new(plan),
            negated: false,
        };
        assert_eq!(e.derived_type(), SqlType::Bool);
        assert!(!e.has_side_effects());
        assert!(!e.contains_aggregate());
        // Only the needle's columns belong to the enclosing scope.
        let mut cols: Vec<&str> = vec![];
        e.collect_columns(&mut cols);
        assert_eq!(cols, ["Symbol"]);
    }

    #[test]
    fn retype_refreshes_column_types() {
        let e = ScalarExpr::col("x", SqlType::Text);
        let schema = vec![ColumnDef::new("x", SqlType::Int8)];
        assert_eq!(e.retype(&schema).derived_type(), SqlType::Int8);
    }
}
