//! The binder: Q AST → XTRA trees.
//!
//! Binding is bottom-up (paper §3.2.2): for each operator the binder
//! processes the inputs, derives and checks their properties, and maps
//! the operator to its XTRA representation. The flagship mapping is the
//! as-of join of paper Figure 2: `aj` becomes a **left outer join over a
//! window function on the right input**, with a final ordering to conform
//! with Q's ordered-list model.

use crate::literal::{atom_to_datum, glob_to_like, value_to_datum, value_to_datums};
use crate::mdi::{Mdi, TableMeta};
use crate::scopes::{Scopes, VarDef};
use qlang::ast::{Expr, LambdaDef, SelectKind, TemplateExpr};
use qlang::value::{Atom, Value};
use qlang::{QError, QResult};
use xtra::scalar::SortDir;
use xtra::{
    AggFunc, BinOp, ColumnDef, Datum, JoinKind, Name, NameSet, RelNode, RelProps, ScalarExpr,
    SortKey, SqlType, UnOp, WinFunc, ORD_COL,
};

/// How variable assignments of table expressions are materialized in the
/// backend (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterializationPolicy {
    /// Logical: keep the defining XTRA tree in Hyper-Q's variable store
    /// and inline it at every reference (views / variable store).
    #[default]
    Logical,
    /// Physical: emit `CREATE TEMPORARY TABLE HQ_TEMP_n AS ...` and bind
    /// the variable to the temp table — necessary for correctness when
    /// definitions have side effects, and what the paper's §4.3 example
    /// shows.
    Physical,
}

/// A backend statement the binder needs executed *before* the main query
/// (eager materialization).
#[derive(Debug, Clone, PartialEq)]
pub enum SideStatement {
    /// Materialize `plan` as a temporary table called `name`.
    CreateTemp {
        /// Temp table name (`HQ_TEMP_n`).
        name: String,
        /// Defining plan.
        plan: RelNode,
    },
}

/// Shape of the result a Q application expects back, used when pivoting
/// row sets into QIPC values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultShape {
    /// A table (`select`).
    Table,
    /// A keyed table (`select ... by`); `key_cols` leading columns are keys.
    KeyedTable {
        /// Number of leading key columns.
        key_cols: usize,
    },
    /// A single column list (`exec col`).
    Column,
    /// A dictionary of columns (`exec c1, c2`).
    Dict,
    /// A dictionary keyed by group values (`exec agg by g`): the first
    /// output column holds keys, the second holds values.
    GroupDict,
    /// A scalar atom (`exec max x` / standalone scalar expression).
    Atom,
}

/// A bound statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// A relational query to run against the backend.
    Rel {
        /// The XTRA plan.
        plan: RelNode,
        /// Expected result shape for pivoting.
        shape: ResultShape,
    },
    /// A standalone scalar expression (`SELECT <expr>`).
    Scalar(ScalarExpr),
    /// Fully absorbed into Hyper-Q state (variable/function definition
    /// with no query to run).
    Absorbed,
}

/// Result of binding one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct BindOutput {
    /// The main bound form.
    pub bound: Bound,
    /// Statements to execute first (eager materialization).
    pub side_statements: Vec<SideStatement>,
}

/// Why a q-sql template bound its FROM clause to the names it reads or
/// to every column (`hyperq_translate_demand_total{demand, reason}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandReason {
    /// Explicit items: the scans under `ej`/`aj` bind only the names the
    /// items, `by` and `where` read.
    Items,
    /// `select from t` / `select by k from t`: every column is output.
    NoItems,
    /// `update` and `delete` output every column.
    UpdateDelete,
    /// An expression holds a lambda or an assignment, which the name
    /// walk does not see through.
    Opaque,
    /// Column pruning is off, so the wide plan is the SQL.
    PruningOff,
}

impl DemandReason {
    /// Every reason, in label order.
    pub const ALL: [DemandReason; 5] = [
        DemandReason::Items,
        DemandReason::NoItems,
        DemandReason::UpdateDelete,
        DemandReason::Opaque,
        DemandReason::PruningOff,
    ];

    /// The metric's `reason` label.
    pub fn label(self) -> &'static str {
        match self {
            DemandReason::Items => "items",
            DemandReason::NoItems => "no_items",
            DemandReason::UpdateDelete => "update_delete",
            DemandReason::Opaque => "opaque",
            DemandReason::PruningOff => "pruning_off",
        }
    }

    /// The metric's `demand` label: `names` when the scans narrow.
    pub fn demand(self) -> &'static str {
        match self {
            DemandReason::Items => "names",
            _ => "all",
        }
    }
}

/// The names a q-sql template reads, pushed down its FROM clause through
/// `ej`/`aj` into the scans of catalog tables.
#[derive(Debug, Clone)]
enum Demand<'a> {
    /// Every column, for a template whose output or reads its names do
    /// not bound.
    All,
    /// Only these names, plus the order column.
    Names(NameSet<'a>),
}

impl Demand<'_> {
    /// This demand and the join columns `cols` too.
    fn with<'c>(&'c self, cols: &'c [String]) -> Demand<'c> {
        match self {
            Demand::All => Demand::All,
            Demand::Names(names) => {
                let mut names = names.clone();
                names.extend(cols.iter().map(String::as_str));
                Demand::Names(names)
            }
        }
    }
}

/// The binder. One per translation request; scopes and the temp-table
/// sequence number live in the session and are passed in.
pub struct Binder<'a> {
    mdi: &'a dyn Mdi,
    scopes: &'a mut Scopes,
    policy: MaterializationPolicy,
    temp_seq: &'a mut usize,
    side: Vec<SideStatement>,
    /// Templates bind only the names they read; off, every template
    /// binds every column.
    narrow: bool,
    demands: Vec<DemandReason>,
}

impl<'a> Binder<'a> {
    /// Create a binder over the given metadata interface and scopes.
    pub fn new(
        mdi: &'a dyn Mdi,
        scopes: &'a mut Scopes,
        policy: MaterializationPolicy,
        temp_seq: &'a mut usize,
    ) -> Self {
        Binder {
            mdi,
            scopes,
            policy,
            temp_seq,
            side: Vec::new(),
            narrow: true,
            demands: Vec::new(),
        }
    }

    /// Bind each template's FROM clause to the names it reads (`true`,
    /// the default) or to every column (`false`: the plan column pruning
    /// starts from, kept for when pruning is off).
    #[must_use]
    pub fn narrowing(mut self, on: bool) -> Self {
        self.narrow = on;
        self
    }

    /// Bind one top-level statement.
    pub fn bind_statement(&mut self, e: &Expr) -> QResult<BindOutput> {
        let bound = self.bind_stmt_inner(e)?;
        Ok(BindOutput { bound, side_statements: std::mem::take(&mut self.side) })
    }

    /// How each q-sql template bound so far chose its FROM clause's
    /// columns, in binding order, failed bindings included.
    pub fn demands(&self) -> &[DemandReason] {
        &self.demands
    }

    fn bind_stmt_inner(&mut self, e: &Expr) -> QResult<Bound> {
        match e {
            Expr::Assign { name, global, value } => {
                let def = self.bind_assignment_value(value)?;
                if *global {
                    self.scopes.upsert_global(name.clone(), def);
                } else {
                    self.scopes.upsert(name.clone(), def);
                }
                Ok(Bound::Absorbed)
            }
            Expr::Lambda(_) | Expr::Empty => Ok(Bound::Absorbed),
            _ => {
                // Prefer a relational binding; fall back to scalar.
                match self.bind_rel_shaped(e) {
                    Ok((plan, shape)) => Ok(Bound::Rel { plan, shape }),
                    Err(rel_err) => match self.bind_scalar(e, &[], false) {
                        Ok(s) => Ok(Bound::Scalar(s)),
                        Err(_) => Err(rel_err),
                    },
                }
            }
        }
    }

    /// Bind the RHS of an assignment into a variable definition,
    /// applying the materialization policy for table expressions.
    fn bind_assignment_value(&mut self, value: &Expr) -> QResult<VarDef> {
        match value {
            Expr::Lambda(def) => Ok(VarDef::Function(def.clone())),
            Expr::Lit(v) => match v {
                Value::Atom(a) => Ok(VarDef::Scalar(atom_to_datum(a)?)),
                Value::Chars(s) => Ok(VarDef::Scalar(Datum::Str(s.clone()))),
                _ if v.len().is_some() => Ok(VarDef::List(value_to_datums(v)?)),
                _ => Err(QError::type_err("cannot bind literal")),
            },
            _ => {
                // Table expression?
                if let Ok((plan, _)) = self.bind_rel_shaped(value) {
                    return Ok(self.materialize(plan));
                }
                // Scalar expression that folds to a constant?
                let s = self.bind_scalar(value, &[], false)?;
                match fold_const(&s) {
                    Some(d) => Ok(VarDef::Scalar(d)),
                    None => Err(QError::type_err(
                        "scalar variable definitions must be constant-foldable at translation time",
                    )),
                }
            }
        }
    }

    /// Apply the materialization policy to a bound table expression.
    fn materialize(&mut self, plan: RelNode) -> VarDef {
        match self.policy {
            MaterializationPolicy::Logical => VarDef::View(plan),
            MaterializationPolicy::Physical => {
                *self.temp_seq += 1;
                let name = format!("HQ_TEMP_{}", *self.temp_seq);
                let meta = TableMeta::new(name.clone(), plan.props().output.clone());
                self.side.push(SideStatement::CreateTemp { name, plan });
                VarDef::TableRef(meta)
            }
        }
    }

    /// Bind a table expression, also deriving the Q result shape.
    pub fn bind_rel_shaped(&mut self, e: &Expr) -> QResult<(RelNode, ResultShape)> {
        match e {
            Expr::Template(t) => self.bind_template(t),
            // Calls to user functions propagate the shape of the body's
            // final statement (an `exec` inside returns a list/atom).
            Expr::Call { func, args } => {
                if let Expr::Var(name) = func.as_ref() {
                    if let Some(VarDef::Function(def)) = self.scopes.lookup(name).cloned() {
                        return self.unroll_function(&def, args);
                    }
                }
                Ok((self.bind_rel(e)?, ResultShape::Table))
            }
            _ => Ok((self.bind_rel(e)?, ResultShape::Table)),
        }
    }

    /// Bind a table expression to a relational plan.
    pub fn bind_rel(&mut self, e: &Expr) -> QResult<RelNode> {
        self.bind_rel_in(e, &Demand::All)
    }

    /// Bind a table expression of which only `demand` is read: a catalog
    /// table's scan and `ej`/`aj` take it, every other form binds whole.
    fn bind_rel_in(&mut self, e: &Expr, demand: &Demand) -> QResult<RelNode> {
        match e {
            Expr::Var(name) => self.bind_table_name(name, demand),
            Expr::Template(t) => Ok(self.bind_template(t)?.0),
            Expr::TableLit { keys, columns } => self.bind_table_literal(keys, columns),
            Expr::Call { func, args } => self.bind_rel_call(func, args, demand),
            Expr::Binary { op, lhs, rhs } => self.bind_rel_binary(op, lhs, rhs),
            Expr::Apply { func, arg } => {
                // Named monadic verbs over tables: `distinct t`, `count t`
                // is scalar — only a few make sense relationally.
                if let Expr::Var(name) = func.as_ref() {
                    if name == "select" || name == "value" || name == "ungroup" || name == "0!" {
                        return self.bind_rel(arg);
                    }
                }
                Err(QError::type_err("expression does not bind to a table"))
            }
            _ => Err(QError::type_err("expression does not bind to a table")),
        }
    }

    /// Resolve a table-valued name: scopes first (Figure 3), then the MDI,
    /// whose tables are scanned for `demand` only.
    fn bind_table_name(&mut self, name: &str, demand: &Demand) -> QResult<RelNode> {
        if let Some(def) = self.scopes.lookup(name) {
            return match def {
                VarDef::TableRef(meta) => Ok(RelNode::get(meta.name.clone(), meta.columns.clone())),
                VarDef::View(plan) => Ok(plan.clone()),
                VarDef::Scalar(_) | VarDef::List(_) => {
                    Err(QError::type_err(format!("{name} is not a table")))
                }
                VarDef::Function(_) => Err(QError::type_err(format!("{name} is a function"))),
            };
        }
        match self.mdi.table_meta(name) {
            Some(meta) => Ok(scan(meta, demand)),
            None => Err(QError::undefined(name)),
        }
    }

    /// Bind a table literal to a Values node, injecting the implicit
    /// order column.
    fn bind_table_literal(
        &mut self,
        keys: &[(String, Expr)],
        columns: &[(String, Expr)],
    ) -> QResult<RelNode> {
        let mut cols: Vec<(String, Vec<Datum>)> = Vec::new();
        for (name, e) in keys.iter().chain(columns) {
            let values = match e {
                Expr::Lit(v) => value_to_datums(v)?,
                _ => {
                    return Err(QError::type_err(
                        "table literals must have constant columns when translated",
                    ))
                }
            };
            cols.push((name.clone(), values));
        }
        let rows_n = cols.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut schema =
            vec![ColumnDef::not_null(ORD_COL, SqlType::Int8)];
        for (name, vals) in &cols {
            let ty = vals
                .iter()
                .find(|d| !d.is_null())
                .map(|d| d.sql_type())
                .unwrap_or(SqlType::Text);
            schema.push(ColumnDef::new(name.clone(), ty));
        }
        let mut rows = Vec::with_capacity(rows_n);
        for r in 0..rows_n {
            let mut row = vec![Datum::I64(r as i64 + 1)];
            for (_, vals) in &cols {
                // Atom columns broadcast.
                let d = if vals.len() == 1 { vals[0].clone() } else {
                    vals.get(r).cloned().unwrap_or(Datum::Null(SqlType::Text))
                };
                row.push(d);
            }
            rows.push(row);
        }
        Ok(RelNode::values(schema, rows))
    }

    /// Relational function calls: `aj[...]`, `ej[...]`, user functions.
    /// `aj` and `ej` read `demand` and their join columns of both inputs.
    fn bind_rel_call(
        &mut self,
        func: &Expr,
        args: &[Option<Expr>],
        demand: &Demand,
    ) -> QResult<RelNode> {
        let name = match func {
            Expr::Var(n) => n.clone(),
            _ => return Err(QError::type_err("cannot bind computed callee")),
        };
        // User-defined function? Unroll it.
        if let Some(VarDef::Function(def)) = self.scopes.lookup(&name).cloned() {
            return Ok(self.unroll_function(&def, args)?.0);
        }
        let args: Vec<&Expr> = args
            .iter()
            .map(|a| a.as_ref().ok_or_else(|| QError::rank("projection not supported")))
            .collect::<QResult<_>>()?;
        match (name.as_str(), args.len()) {
            ("aj", 3) => {
                let cols = expect_symbols(args[0])?;
                let demand = demand.with(&cols);
                let left = self.bind_rel_in(args[1], &demand)?;
                let right = self.bind_rel_in(args[2], &demand)?;
                self.bind_aj(&cols, left, right)
            }
            ("ej", 3) => {
                let cols = expect_symbols(args[0])?;
                let demand = demand.with(&cols);
                let left = self.bind_rel_in(args[1], &demand)?;
                let right = self.bind_rel_in(args[2], &demand)?;
                self.bind_equijoin(&cols, left, right, JoinKind::Inner)
            }
            (other, n) => Err(QError::rank(format!(
                "cannot bind call to {other} with {n} arguments"
            ))),
        }
    }

    /// Named infix verbs over tables.
    fn bind_rel_binary(&mut self, op: &str, lhs: &Expr, rhs: &Expr) -> QResult<RelNode> {
        match op {
            "xasc" | "xdesc" => {
                let cols = expect_symbols(lhs)?;
                let plan = self.bind_rel(rhs)?;
                let schema = &plan.props().output;
                let keys = cols
                    .iter()
                    .map(|c| {
                        let ty = schema
                            .iter()
                            .find(|col| col.name == *c)
                            .map(|col| col.ty)
                            .ok_or_else(|| QError::type_err(format!("sort: no column {c}")))?;
                        Ok(SortKey {
                            expr: ScalarExpr::col(c.clone(), ty),
                            dir: if op == "xasc" { SortDir::Asc } else { SortDir::Desc },
                        })
                    })
                    .collect::<QResult<Vec<_>>>()?;
                Ok(RelNode::sort(plan, keys))
            }
            "lj" | "ij" => {
                let left = self.bind_rel(lhs)?;
                let (right, key_cols) = self.bind_keyed_rel(rhs)?;
                let kind = if op == "lj" { JoinKind::LeftOuter } else { JoinKind::Inner };
                self.bind_lookup_join(&key_cols, left, right, kind)
            }
            "uj" => {
                let left = self.bind_rel(lhs)?;
                let right = self.bind_rel(rhs)?;
                self.bind_union(left, right)
            }
            "#" => {
                // `n#t` — take first n rows; `-n#t` — last n.
                let plan = self.bind_rel(rhs)?;
                if let Expr::Lit(Value::Atom(a)) = lhs {
                    if let Some(n) = a.as_i64() {
                        if n >= 0 {
                            return Ok(RelNode::limit(plan, Some(n as u64), 0));
                        }
                        // Last n: sort descending by ordcol, limit, re-sort.
                        if let Some(oc) = plan.props().ord_col {
                            let desc = RelNode::sort(plan, vec![SortKey::desc(oc, SqlType::Int8)]);
                            let lim = RelNode::limit(desc, Some((-n) as u64), 0);
                            return Ok(RelNode::sort(lim, vec![SortKey::asc(oc, SqlType::Int8)]));
                        }
                        return Err(QError::type_err("take-from-end requires ordered input"));
                    }
                }
                Err(QError::type_err("#: left operand must be an integer literal"))
            }
            "!" => {
                // `n!t` — keying; relationally the keyed table is the same
                // row set (keys are metadata); bind to the underlying plan.
                self.bind_rel(rhs)
            }
            _ => Err(QError::type_err(format!("operator {op} does not yield a table"))),
        }
    }

    /// Bind a right operand that must be "keyed": either `n!table` or a
    /// table whose metadata declares keys.
    fn bind_keyed_rel(&mut self, e: &Expr) -> QResult<(RelNode, Vec<String>)> {
        if let Expr::Binary { op, lhs, rhs } = e {
            if op == "!" {
                if let Expr::Lit(Value::Atom(a)) = lhs.as_ref() {
                    if let Some(n) = a.as_i64() {
                        let plan = self.bind_rel(rhs)?;
                        let cols: Vec<String> = plan
                            .props()
                            .output
                            .iter()
                            .filter(|c| c.name != ORD_COL)
                            .take(n as usize)
                            .map(|c| c.name.to_string())
                            .collect();
                        if cols.len() < n as usize {
                            return Err(QError::length("!: key count exceeds column count"));
                        }
                        return Ok((plan, cols));
                    }
                }
            }
        }
        if let Expr::Var(name) = e {
            if let Some(meta) = self.mdi.table_meta(name) {
                if let Some(keys) = meta.keys.first().cloned() {
                    return Ok((RelNode::get(meta.name, meta.columns), keys));
                }
            }
        }
        Err(QError::type_err("right operand of lj/ij must be a keyed table"))
    }

    /// Figure 2: `aj` → left outer join computing a window function on
    /// its right input, ordered at the end.
    fn bind_aj(&mut self, cols: &[String], left: RelNode, right: RelNode) -> QResult<RelNode> {
        if cols.is_empty() {
            return Err(QError::domain("aj: need at least one join column"));
        }
        let (eq_cols, asof_col) = cols.split_at(cols.len() - 1);
        let asof_col = &asof_col[0];

        // Property checks (paper §3.2.2): join columns must be present in
        // both inputs' output columns.
        let (lp, rp) = (left.props().clone(), right.props().clone());
        for c in cols {
            if !lp.has_column(c) {
                return Err(QError::type_err(format!("aj: left input lacks column {c}")));
            }
            if !rp.has_column(c) {
                return Err(QError::type_err(format!("aj: right input lacks column {c}")));
            }
        }

        // Window on the right input: the end of each quote's validity
        // interval is the next quote's time within the same key group.
        let asof_ty = rp.column(asof_col).unwrap().ty;
        let next_col = Name::from("hq_r_next");
        let renamed = prefixed(right);
        let renamed_props = renamed.props().clone();
        let windowed = RelNode::window(
            renamed,
            vec![(
                next_col.clone(),
                ScalarExpr::Window {
                    func: WinFunc::Lead,
                    args: vec![ScalarExpr::col(right_name(asof_col), asof_ty)],
                    partition_by: eq_cols
                        .iter()
                        .map(|c| {
                            let ty = rp.column(c).unwrap().ty;
                            ScalarExpr::col(right_name(c), ty)
                        })
                        .collect(),
                    order_by: vec![(
                        ScalarExpr::col(right_name(asof_col), asof_ty),
                        SortDir::Asc,
                    )],
                },
            )],
        );

        // Join condition: exact equality on the leading columns, interval
        // containment on the as-of column.
        let mut conds: Vec<ScalarExpr> = eq_cols
            .iter()
            .map(|c| {
                let lty = lp.column(c).unwrap().ty;
                let rty = rp.column(c).unwrap().ty;
                ScalarExpr::binary(
                    BinOp::Eq,
                    ScalarExpr::col(c.clone(), lty),
                    ScalarExpr::col(right_name(c), rty),
                )
            })
            .collect();
        let l_asof_ty = lp.column(asof_col).unwrap().ty;
        conds.push(ScalarExpr::binary(
            BinOp::Le,
            ScalarExpr::col(right_name(asof_col), asof_ty),
            ScalarExpr::col(asof_col.clone(), l_asof_ty),
        ));
        conds.push(ScalarExpr::binary(
            BinOp::Or,
            ScalarExpr::binary(
                BinOp::Lt,
                ScalarExpr::col(asof_col.clone(), l_asof_ty),
                ScalarExpr::col(next_col.clone(), asof_ty),
            ),
            ScalarExpr::IsNull {
                arg: Box::new(ScalarExpr::col(next_col.clone(), asof_ty)),
                negated: false,
            },
        ));

        let join =
            RelNode::join(JoinKind::LeftOuter, left, windowed, ScalarExpr::conjunction(conds));
        Ok(restore_names(join, &lp, &rp, &renamed_props, cols))
    }

    /// Plain equi-join on named columns (`ej`).
    fn bind_equijoin(
        &mut self,
        cols: &[String],
        left: RelNode,
        right: RelNode,
        kind: JoinKind,
    ) -> QResult<RelNode> {
        let (lp, rp) = (left.props().clone(), right.props().clone());
        for c in cols {
            if !lp.has_column(c) || !rp.has_column(c) {
                return Err(QError::type_err(format!("ej: both inputs need column {c}")));
            }
        }
        let conds: Vec<ScalarExpr> = cols
            .iter()
            .map(|c| {
                ScalarExpr::binary(
                    BinOp::Eq,
                    ScalarExpr::col(c.clone(), lp.column(c).unwrap().ty),
                    ScalarExpr::col(right_name(c), rp.column(c).unwrap().ty),
                )
            })
            .collect();
        let renamed = prefixed(right);
        let renamed_props = renamed.props().clone();
        let join = RelNode::join(kind, left, renamed, ScalarExpr::conjunction(conds));
        Ok(restore_names(join, &lp, &rp, &renamed_props, cols))
    }

    /// `lj`/`ij` against a keyed right side: deduplicate the right to its
    /// first row per key (kdb+ keyed-table lookup takes the first match),
    /// then equi-join.
    fn bind_lookup_join(
        &mut self,
        key_cols: &[String],
        left: RelNode,
        right: RelNode,
        kind: JoinKind,
    ) -> QResult<RelNode> {
        let rp = right.props().clone();
        // Dedup: row_number over key partitions, keep rn = 1.
        let rn_col = Name::from("hq_rn");
        let order_by = match rp.ord_col {
            Some(oc) => vec![(ScalarExpr::col(oc, SqlType::Int8), SortDir::Asc)],
            None => vec![],
        };
        let windowed = RelNode::window(
            right,
            vec![(
                rn_col.clone(),
                ScalarExpr::Window {
                    func: WinFunc::RowNumber,
                    args: vec![],
                    partition_by: key_cols
                        .iter()
                        .map(|c| {
                            let ty = rp.column(c).map(|col| col.ty).unwrap_or(SqlType::Text);
                            ScalarExpr::col(c.clone(), ty)
                        })
                        .collect(),
                    order_by,
                },
            )],
        );
        let deduped = RelNode::filter(
            windowed,
            ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col(rn_col, SqlType::Int8),
                ScalarExpr::i64(1),
            ),
        );
        // Project the helper row-number away so it cannot leak into the
        // join output.
        let restored = RelNode::project(
            deduped,
            rp.output
                .iter()
                .map(|c| (c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)))
                .collect(),
        );
        self.bind_equijoin(key_cols, left, restored, kind)
    }

    /// `uj` — UNION ALL with aligned columns (missing columns null).
    fn bind_union(&mut self, left: RelNode, right: RelNode) -> QResult<RelNode> {
        let (lp, rp) = (left.props().clone(), right.props().clone());
        let mut names: Vec<ColumnDef> = lp.output.to_vec();
        let mut seen: NameSet = lp.output.iter().map(|c| c.name.as_str()).collect();
        for c in rp.output.iter() {
            if seen.insert(&c.name) {
                names.push(c.clone());
            }
        }
        let align = |plan: RelNode, side: &RelProps| -> RelNode {
            let has: NameSet = side.output.iter().map(|c| c.name.as_str()).collect();
            let items = names
                .iter()
                .map(|c| {
                    let e = if has.contains(c.name.as_str()) {
                        ScalarExpr::col(c.name.clone(), c.ty)
                    } else {
                        ScalarExpr::Const(Datum::Null(c.ty))
                    };
                    (c.name.clone(), e)
                })
                .collect();
            RelNode::project(plan, items)
        };
        let l = align(left, &lp);
        let r = align(right, &rp);
        Ok(RelNode::set_op(xtra::SetOpKind::UnionAll, l, r))
    }

    /// Unroll a user-defined function at its call site (paper §5: "
    /// unrolling a large class of Q user-defined functions without the
    /// need to create user-defined functions in PG").
    fn unroll_function(
        &mut self,
        def: &LambdaDef,
        args: &[Option<Expr>],
    ) -> QResult<(RelNode, ResultShape)> {
        let params: Vec<String> = if def.params.is_empty() {
            ["x", "y", "z"].iter().take(args.len()).map(|s| s.to_string()).collect()
        } else {
            def.params.clone()
        };
        if args.len() > params.len() {
            return Err(QError::rank(format!(
                "function takes {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        // Bind arguments in the caller's scope.
        let mut arg_defs = Vec::with_capacity(args.len());
        for a in args {
            let a = a.as_ref().ok_or_else(|| QError::rank("projection not supported"))?;
            let def = self.bind_assignment_value(a)?;
            arg_defs.push(def);
        }
        self.scopes.push_frame();
        for (p, d) in params.iter().zip(arg_defs) {
            self.scopes.upsert(p.clone(), d);
        }
        let mut result: Option<(RelNode, ResultShape)> = None;
        for stmt in &def.body {
            let r = (|| -> QResult<Option<(RelNode, ResultShape)>> {
                match stmt {
                    Expr::Assign { name, global, value } => {
                        let d = self.bind_assignment_value(value)?;
                        if *global {
                            self.scopes.upsert_global(name.clone(), d);
                        } else {
                            self.scopes.upsert(name.clone(), d);
                        }
                        Ok(None)
                    }
                    Expr::Return(inner) => Ok(Some(self.bind_rel_shaped(inner)?)),
                    other => Ok(Some(self.bind_rel_shaped(other)?)),
                }
            })();
            match r {
                Ok(Some(plan)) => {
                    result = Some(plan);
                    if matches!(stmt, Expr::Return(_)) {
                        break;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    self.scopes.pop_frame();
                    return Err(e);
                }
            }
        }
        self.scopes.pop_frame();
        result.ok_or_else(|| QError::type_err("function body does not yield a table"))
    }

    /// Bind a q-sql template (the core of §3.2.2). Its FROM clause is
    /// bound for the template's demand.
    fn bind_template(&mut self, t: &TemplateExpr) -> QResult<(RelNode, ResultShape)> {
        let (demand, reason) = self.demand_of(t);
        self.demands.push(reason);
        let base = self.bind_rel_in(&t.from, &demand)?;
        match t.kind {
            SelectKind::Select | SelectKind::Exec => self.bind_select(t, base),
            SelectKind::Update => self.bind_update(t, base),
            SelectKind::Delete => self.bind_delete(t, base),
        }
    }

    /// The names `t` reads, or every column and why. The walk
    /// over-approximates — a function name or a variable in the set only
    /// keeps a column of that name — and stops at what it cannot see
    /// through.
    fn demand_of<'e>(&self, t: &'e TemplateExpr) -> (Demand<'e>, DemandReason) {
        if !self.narrow {
            return (Demand::All, DemandReason::PruningOff);
        }
        if matches!(t.kind, SelectKind::Update | SelectKind::Delete) {
            return (Demand::All, DemandReason::UpdateDelete);
        }
        if t.columns.is_empty() {
            return (Demand::All, DemandReason::NoItems);
        }
        let mut names = NameSet::default();
        let exprs = t.columns.iter().chain(&t.by).map(|(_, e)| e).chain(&t.predicates);
        for e in exprs {
            if !free_names(e, &mut names) {
                return (Demand::All, DemandReason::Opaque);
            }
        }
        (Demand::Names(names), DemandReason::Items)
    }

    fn bind_predicates(&mut self, preds: &[Expr], schema: &[ColumnDef]) -> QResult<Vec<ScalarExpr>> {
        preds.iter().map(|p| self.bind_scalar(p, schema, false)).collect()
    }

    fn bind_select(&mut self, t: &TemplateExpr, base: RelNode) -> QResult<(RelNode, ResultShape)> {
        let RelProps { output: schema, ord_col } = base.props().clone();

        // Sequential where clauses: pure predicates compose as stacked
        // filters (equivalent to one conjunction, but kept separate to
        // mirror q-sql semantics in the plan shape).
        let mut plan = base;
        for p in self.bind_predicates(&t.predicates, &schema)? {
            plan = RelNode::filter(plan, p);
        }

        let exec_mode = t.kind == SelectKind::Exec;

        // Grouped select.
        if !t.by.is_empty() {
            let mut group_by = Vec::with_capacity(t.by.len());
            for (name, e) in &t.by {
                let s = self.bind_scalar(e, &schema, false)?;
                group_by.push((alias(name, e), s));
            }
            let mut aggs = Vec::new();
            if t.columns.is_empty() {
                // `select by k from t`: last row per group.
                for c in schema.iter() {
                    if c.name == ORD_COL || group_by.iter().any(|(n, _)| *n == c.name) {
                        continue;
                    }
                    aggs.push((
                        c.name.clone(),
                        ScalarExpr::Agg {
                            func: AggFunc::Last,
                            arg: Some(Box::new(ScalarExpr::col(c.name.clone(), c.ty))),
                        },
                    ));
                }
            } else {
                for (name, e) in &t.columns {
                    let s = self.bind_scalar(e, &schema, true)?;
                    if !is_aggregate_like(&s) {
                        return Err(QError::type_err(
                            "non-aggregate select columns under `by` are not supported",
                        ));
                    }
                    aggs.push((alias(name, e), s));
                }
            }
            let key_count = group_by.len();
            // kdb+ sorts grouped output by key ascending.
            let keys = group_by
                .iter()
                .map(|(n, e)| SortKey { expr: ScalarExpr::col(n.clone(), e.derived_type()), dir: SortDir::Asc })
                .collect();
            let sorted = RelNode::sort(RelNode::aggregate(plan, group_by, aggs), keys);
            let shape = if exec_mode {
                ResultShape::GroupDict
            } else {
                ResultShape::KeyedTable { key_cols: key_count }
            };
            return Ok((sorted, shape));
        }

        // Ungrouped. Every item is bound once, aggregates allowed; one
        // aggregate-valued item makes the select a scalar aggregation.
        let bound: Vec<QResult<ScalarExpr>> =
            t.columns.iter().map(|(_, e)| self.bind_scalar(e, &schema, true)).collect();

        if bound.iter().any(|s| matches!(s, Ok(s) if is_aggregate_like(s))) {
            // Scalar aggregation: paper §4.3 shows the generated shape
            // `SELECT 1::int AS ordcol, MAX(Price) ... ORDER BY ordcol`.
            let aggs = t
                .columns
                .iter()
                .zip(bound)
                .map(|((name, e), s)| Ok((alias(name, e), s?)))
                .collect::<QResult<Vec<_>>>()?;
            let agg_node = RelNode::aggregate(plan, vec![], aggs);
            let mut items = vec![(
                ORD_COL.into(),
                ScalarExpr::Cast { arg: Box::new(ScalarExpr::i64(1)), ty: SqlType::Int4 },
            )];
            for c in agg_node.props().output.iter() {
                items.push((c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)));
            }
            let projected = RelNode::project(agg_node, items);
            let sorted = RelNode::sort(projected, vec![SortKey::asc(ORD_COL, SqlType::Int4)]);
            let shape = if exec_mode && t.columns.len() == 1 {
                ResultShape::Atom
            } else {
                ResultShape::Table
            };
            return Ok((sorted, shape));
        }

        // Plain projection: pass the order column through and order by it
        // (the Xformer may elide this later).
        let mut items: Vec<(Name, ScalarExpr)> = Vec::new();
        if let Some(oc) = ord_col {
            items.push((oc.into(), ScalarExpr::col(oc, SqlType::Int8)));
        }
        if t.columns.is_empty() {
            for c in schema.iter() {
                if Some(c.name.as_str()) == ord_col {
                    continue;
                }
                items.push((c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)));
            }
        } else {
            for ((name, e), s) in t.columns.iter().zip(bound) {
                // No item is aggregate-valued, so each bound as it would
                // without aggregates allowed; an item that failed reports
                // the error it gets as a projection item.
                let s = match s {
                    Ok(s) => s,
                    Err(_) => self.bind_scalar(e, &schema, false)?,
                };
                items.push((alias(name, e), s));
            }
        }
        let projected = RelNode::project(plan, items);
        let finished = match ord_col {
            Some(oc) => RelNode::sort(projected, vec![SortKey::asc(oc, SqlType::Int8)]),
            None => projected,
        };
        let shape = if exec_mode {
            if t.columns.len() == 1 {
                ResultShape::Column
            } else {
                ResultShape::Dict
            }
        } else {
            ResultShape::Table
        };
        Ok((finished, shape))
    }

    /// `update`: replace/add columns in the output only. Filtered updates
    /// become CASE expressions; the base row set is never filtered.
    fn bind_update(&mut self, t: &TemplateExpr, base: RelNode) -> QResult<(RelNode, ResultShape)> {
        let RelProps { output: schema, ord_col } = base.props().clone();
        let preds = self.bind_predicates(&t.predicates, &schema)?;
        let condition = if preds.is_empty() {
            None
        } else {
            Some(ScalarExpr::conjunction(preds))
        };

        let mut updates: Vec<(Name, ScalarExpr)> = Vec::new();
        for (name, e) in &t.columns {
            let s = self.bind_scalar(e, &schema, false)?;
            updates.push((alias(name, e), s));
        }

        let mut items: Vec<(Name, ScalarExpr)> = Vec::new();
        for c in schema.iter() {
            let updated = updates.iter().find(|(n, _)| *n == c.name);
            let expr = match (updated, &condition) {
                (Some((_, new)), None) => new.clone(),
                (Some((_, new)), Some(cond)) => ScalarExpr::Case {
                    branches: vec![(cond.clone(), new.clone())],
                    else_result: Some(Box::new(ScalarExpr::col(c.name.clone(), c.ty))),
                },
                (None, _) => ScalarExpr::col(c.name.clone(), c.ty),
            };
            items.push((c.name.clone(), expr));
        }
        // Entirely new columns.
        for (name, new) in &updates {
            if schema.iter().any(|c| c.name == *name) {
                continue;
            }
            let expr = match &condition {
                None => new.clone(),
                Some(cond) => ScalarExpr::Case {
                    branches: vec![(cond.clone(), new.clone())],
                    else_result: Some(Box::new(ScalarExpr::Const(Datum::Null(new.derived_type())))),
                },
            };
            items.push((name.clone(), expr));
        }

        let projected = RelNode::project(base, items);
        let finished = match ord_col {
            Some(oc) => RelNode::sort(projected, vec![SortKey::asc(oc, SqlType::Int8)]),
            None => projected,
        };
        Ok((finished, ResultShape::Table))
    }

    /// `delete`: drop rows (negated filter) or columns (projection).
    fn bind_delete(&mut self, t: &TemplateExpr, base: RelNode) -> QResult<(RelNode, ResultShape)> {
        let RelProps { output: schema, ord_col } = base.props().clone();
        if !t.columns.is_empty() {
            let mut doomed = Vec::new();
            for (_, e) in &t.columns {
                match e {
                    Expr::Var(n) => doomed.push(n.clone()),
                    _ => return Err(QError::type_err("delete: column clause must be a name")),
                }
            }
            let items = schema
                .iter()
                .filter(|c| !doomed.iter().any(|d| c.name == *d))
                .map(|c| (c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)))
                .collect();
            return Ok((RelNode::project(base, items), ResultShape::Table));
        }
        let preds = self.bind_predicates(&t.predicates, &schema)?;
        let keep = ScalarExpr::Unary {
            op: UnOp::Not,
            arg: Box::new(ScalarExpr::conjunction(preds)),
        };
        let filtered = RelNode::filter(base, keep);
        let finished = match ord_col {
            Some(oc) => RelNode::sort(filtered, vec![SortKey::asc(oc, SqlType::Int8)]),
            None => filtered,
        };
        Ok((finished, ResultShape::Table))
    }

    /// Bind a row-context scalar expression against a schema. `agg_ok`
    /// permits aggregate functions.
    pub fn bind_scalar(
        &mut self,
        e: &Expr,
        schema: &[ColumnDef],
        agg_ok: bool,
    ) -> QResult<ScalarExpr> {
        match e {
            Expr::Lit(v) => Ok(ScalarExpr::Const(value_to_datum(v)?)),
            Expr::Var(name) => {
                // Columns shadow variables inside q-sql clauses.
                if let Some(c) = schema.iter().find(|c| c.name == *name) {
                    return Ok(ScalarExpr::col(c.name.clone(), c.ty));
                }
                // The virtual row-index column maps onto the implicit
                // order column (0-based vs 1-based is fixed up here).
                if name == "i" {
                    if let Some(c) = schema.iter().find(|c| c.name == ORD_COL) {
                        return Ok(ScalarExpr::binary(
                            BinOp::Sub,
                            ScalarExpr::col(c.name.clone(), c.ty),
                            ScalarExpr::i64(1),
                        ));
                    }
                }
                match self.scopes.lookup(name) {
                    Some(VarDef::Scalar(d)) => Ok(ScalarExpr::Const(d.clone())),
                    Some(VarDef::List(_)) => Err(QError::type_err(format!(
                        "list variable {name} used in scalar context (only `in` supported)"
                    ))),
                    Some(_) => Err(QError::type_err(format!("{name} is not scalar"))),
                    None => Err(QError::undefined(name)),
                }
            }
            Expr::Binary { op, lhs, rhs } => self.bind_scalar_binary(op, lhs, rhs, schema, agg_ok),
            Expr::Unary { op, arg } => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                match op.as_str() {
                    "-" => Ok(ScalarExpr::Unary { op: UnOp::Neg, arg: Box::new(a) }),
                    "#" => Ok(ScalarExpr::Agg { func: AggFunc::Count, arg: None }),
                    other => Err(QError::type_err(format!("monadic {other} not bindable"))),
                }
            }
            Expr::Apply { func, arg } => {
                let fname = match func.as_ref() {
                    Expr::Var(n) => n.clone(),
                    _ => return Err(QError::type_err("cannot bind computed scalar callee")),
                };
                self.bind_scalar_apply(&fname, arg, schema, agg_ok)
            }
            Expr::Call { func, args } => {
                // f[x] sugar for apply.
                if args.len() == 1 {
                    if let (Expr::Var(n), Some(a)) = (func.as_ref(), &args[0]) {
                        let n = n.clone();
                        return self.bind_scalar_apply(&n, a, schema, agg_ok);
                    }
                }
                Err(QError::type_err("cannot bind call in scalar context"))
            }
            Expr::Cond(items) if items.len() >= 3 => {
                let mut branches = Vec::new();
                let mut i = 0;
                while i + 1 < items.len() {
                    let c = self.bind_scalar(&items[i], schema, agg_ok)?;
                    let r = self.bind_scalar(&items[i + 1], schema, agg_ok)?;
                    branches.push((c, r));
                    i += 2;
                }
                let else_result = if i < items.len() {
                    Some(Box::new(self.bind_scalar(&items[i], schema, agg_ok)?))
                } else {
                    None
                };
                Ok(ScalarExpr::Case { branches, else_result })
            }
            _ => Err(QError::type_err("expression does not bind to a scalar")),
        }
    }

    fn bind_scalar_binary(
        &mut self,
        op: &str,
        lhs: &Expr,
        rhs: &Expr,
        schema: &[ColumnDef],
        agg_ok: bool,
    ) -> QResult<ScalarExpr> {
        // Membership: right side must be a constant list.
        if op == "in" {
            let needle = self.bind_scalar(lhs, schema, agg_ok)?;
            // Constant list first; otherwise a relational right side binds
            // as an uncorrelated subquery (`Sym in exec Sym from u`).
            match self.bind_const_list(rhs) {
                Ok(list) => {
                    return Ok(ScalarExpr::InList {
                        needle: Box::new(needle),
                        list: list.into_iter().map(ScalarExpr::Const).collect(),
                        negated: false,
                    })
                }
                Err(const_err) => {
                    if let Ok(plan) = self.bind_rel(rhs) {
                        // The haystack is a single column: project away
                        // the implicit order column (IN ignores order).
                        let hay = plan
                            .props()
                            .output
                            .iter()
                            .find(|c| c.name != ORD_COL)
                            .map(|c| (c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)))
                            .ok_or_else(|| {
                                QError::type_err("in: subquery has no value column")
                            })?;
                        let projected = RelNode::project(plan, vec![hay]);
                        return Ok(ScalarExpr::InSubquery {
                            needle: Box::new(needle),
                            plan: Box::new(projected),
                            negated: false,
                        });
                    }
                    return Err(const_err);
                }
            }
        }
        if op == "within" {
            let x = self.bind_scalar(lhs, schema, agg_ok)?;
            let bounds = self.bind_const_list(rhs)?;
            if bounds.len() != 2 {
                return Err(QError::length("within: need (lo;hi)"));
            }
            return Ok(ScalarExpr::binary(
                BinOp::And,
                ScalarExpr::binary(BinOp::Ge, x.clone(), ScalarExpr::Const(bounds[0].clone())),
                ScalarExpr::binary(BinOp::Le, x, ScalarExpr::Const(bounds[1].clone())),
            ));
        }
        if op == "like" {
            let x = self.bind_scalar(lhs, schema, agg_ok)?;
            let pat = match rhs {
                Expr::Lit(Value::Chars(s)) => s.clone(),
                Expr::Lit(Value::Atom(Atom::Symbol(s))) => s.clone(),
                _ => return Err(QError::type_err("like: pattern must be a literal")),
            };
            return Ok(ScalarExpr::binary(
                BinOp::Like,
                x,
                ScalarExpr::Const(Datum::Str(glob_to_like(&pat))),
            ));
        }

        let l = self.bind_scalar(lhs, schema, agg_ok)?;
        let r = self.bind_scalar(rhs, schema, agg_ok)?;
        // Q orders every typed null below every value (`0N < x` is 1b),
        // while SQL comparisons against NULL yield NULL; translate the
        // four ordering operators with the null ranking made explicit.
        if let Some(bop) =
            match op {
                "<" => Some(BinOp::Lt),
                "<=" => Some(BinOp::Le),
                ">" => Some(BinOp::Gt),
                ">=" => Some(BinOp::Ge),
                _ => None,
            }
        {
            return Ok(q_ordered_cmp(bop, l, r));
        }
        let bop = match op {
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            // Q division.
            "%" => BinOp::Div,
            "=" => BinOp::Eq,
            "<>" => BinOp::Neq,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "mod" => BinOp::Mod,
            "&" => {
                // On booleans & is AND; on numerics it is min.
                if l.derived_type() == SqlType::Bool {
                    BinOp::And
                } else {
                    return Ok(ScalarExpr::Func {
                        name: "least".into(),
                        ty: SqlType::promote(l.derived_type(), r.derived_type()),
                        args: vec![l, r],
                        volatile: false,
                    });
                }
            }
            "|" => {
                if l.derived_type() == SqlType::Bool {
                    BinOp::Or
                } else {
                    return Ok(ScalarExpr::Func {
                        name: "greatest".into(),
                        ty: SqlType::promote(l.derived_type(), r.derived_type()),
                        args: vec![l, r],
                        volatile: false,
                    });
                }
            }
            "^" => {
                // Fill: a^b — replace nulls in b with a.
                return Ok(ScalarExpr::Func {
                    name: "coalesce".into(),
                    ty: r.derived_type(),
                    args: vec![r, l],
                    volatile: false,
                });
            }
            "div" => {
                return Ok(ScalarExpr::Func {
                    name: "div".into(),
                    ty: SqlType::Int8,
                    args: vec![l, r],
                    volatile: false,
                });
            }
            "xbar" => {
                // `n xbar x` → x - (x % n): time/price bucketing.
                let ty = r.derived_type();
                return Ok(ScalarExpr::Binary {
                    op: BinOp::Sub,
                    lhs: Box::new(r.clone()),
                    rhs: Box::new(ScalarExpr::Cast {
                        arg: Box::new(ScalarExpr::binary(BinOp::Mod, r, l)),
                        ty,
                    }),
                });
            }
            other => return Err(QError::type_err(format!("operator {other} not bindable"))),
        };
        Ok(ScalarExpr::binary(bop, l, r))
    }

    /// Monadic named functions in scalar/aggregate contexts.
    fn bind_scalar_apply(
        &mut self,
        name: &str,
        arg: &Expr,
        schema: &[ColumnDef],
        agg_ok: bool,
    ) -> QResult<ScalarExpr> {
        let agg = |f: AggFunc, me: &mut Self| -> QResult<ScalarExpr> {
            if !agg_ok {
                return Err(QError::type_err(format!("aggregate {name} not allowed here")));
            }
            // Q `count` is length: it counts nulls too, so every
            // argument — the virtual row index `i` or a column — maps to
            // COUNT(*). SQL's COUNT(col) would silently skip NULLs.
            if f == AggFunc::Count {
                if !matches!(arg, Expr::Var(v) if v == "i") {
                    // Still bind the argument so bad names error.
                    let bound = me.bind_scalar(arg, schema, false)?;
                    // Test-only fault injection (crate::testhooks): emit
                    // the pre-PR-3 null-skipping COUNT(col) on demand so
                    // the fuzz harness can demonstrate detect→shrink.
                    if crate::testhooks::reintroduce_count_col_bug() {
                        return Ok(ScalarExpr::Agg {
                            func: AggFunc::Count,
                            arg: Some(Box::new(bound)),
                        });
                    }
                }
                return Ok(ScalarExpr::Agg { func: AggFunc::Count, arg: None });
            }
            let a = me.bind_scalar(arg, schema, false)?;
            Ok(ScalarExpr::Agg { func: f, arg: Some(Box::new(a)) })
        };
        match name {
            "count" => agg(AggFunc::Count, self),
            "sum" => {
                // Q: sum over an empty list is 0; SQL SUM is NULL.
                let s = agg(AggFunc::Sum, self)?;
                let ty = s.derived_type();
                let zero = if ty.is_numeric() && matches!(ty, SqlType::Float4 | SqlType::Float8) {
                    Datum::F64(0.0)
                } else {
                    Datum::I64(0)
                };
                Ok(ScalarExpr::Func {
                    name: "coalesce".into(),
                    ty,
                    args: vec![s, ScalarExpr::Const(zero)],
                    volatile: false,
                })
            }
            "avg" => agg(AggFunc::Avg, self),
            "min" => agg(AggFunc::Min, self),
            "max" => agg(AggFunc::Max, self),
            "dev" => agg(AggFunc::StdDevPop, self),
            "var" => agg(AggFunc::VariancePop, self),
            "sdev" => agg(AggFunc::StdDev, self),
            "svar" => agg(AggFunc::Variance, self),
            "first" => agg(AggFunc::First, self),
            "last" => agg(AggFunc::Last, self),
            "med" => {
                if !agg_ok {
                    return Err(QError::type_err("aggregate med not allowed here"));
                }
                // Backend-toolbox aggregate (paper §5: a "toolbox" of
                // helper functions for Q constructs PG lacks).
                let a = self.bind_scalar(arg, schema, false)?;
                Ok(ScalarExpr::Func {
                    name: "median".into(),
                    ty: SqlType::Float8,
                    args: vec![a],
                    volatile: false,
                })
            }
            "not" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::Unary { op: UnOp::Not, arg: Box::new(a) })
            }
            "null" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::IsNull { arg: Box::new(a), negated: false })
            }
            "abs" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::Unary { op: UnOp::Abs, arg: Box::new(a) })
            }
            "neg" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::Unary { op: UnOp::Neg, arg: Box::new(a) })
            }
            "sqrt" | "exp" | "log" | "floor" | "ceiling" | "signum" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                let (fname, ty) = match name {
                    "sqrt" => ("sqrt", SqlType::Float8),
                    "exp" => ("exp", SqlType::Float8),
                    "log" => ("ln", SqlType::Float8),
                    "floor" => ("floor", SqlType::Int8),
                    "ceiling" => ("ceil", SqlType::Int8),
                    _ => ("sign", SqlType::Int8),
                };
                Ok(ScalarExpr::Func { name: fname.into(), args: vec![a], ty, volatile: false })
            }
            "string" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::Cast { arg: Box::new(a), ty: SqlType::Text })
            }
            "upper" | "lower" => {
                let a = self.bind_scalar(arg, schema, agg_ok)?;
                Ok(ScalarExpr::Func {
                    name: name.into(),
                    args: vec![a],
                    ty: SqlType::Varchar,
                    volatile: false,
                })
            }
            "deltas" => {
                // deltas x → x - prev x, ordered by the implicit order
                // column. Only the FIRST row keeps its value; rows whose
                // predecessor is a genuine null must stay null (q: x-0N is
                // 0N), so the row-1 test is on row_number(), not on
                // lag() IS NULL — COALESCE(x - lag(x), x) can't tell the
                // two apart.
                let a = self.bind_scalar(arg, schema, false)?;
                let oc = schema
                    .iter()
                    .find(|c| c.name == ORD_COL)
                    .ok_or_else(|| QError::type_err("deltas requires ordered input"))?;
                let order_by = vec![(ScalarExpr::col(oc.name.clone(), oc.ty), SortDir::Asc)];
                let lagged = ScalarExpr::Window {
                    func: WinFunc::Lag,
                    args: vec![a.clone()],
                    partition_by: vec![],
                    order_by: order_by.clone(),
                };
                let row_number = ScalarExpr::Window {
                    func: WinFunc::RowNumber,
                    args: vec![],
                    partition_by: vec![],
                    order_by,
                };
                Ok(ScalarExpr::Case {
                    branches: vec![(
                        ScalarExpr::binary(BinOp::Eq, row_number, ScalarExpr::i64(1)),
                        a.clone(),
                    )],
                    else_result: Some(Box::new(ScalarExpr::binary(BinOp::Sub, a, lagged))),
                })
            }
            "prev" | "next" => {
                // Windowed shift ordered by the implicit order column.
                let a = self.bind_scalar(arg, schema, false)?;
                let oc = schema
                    .iter()
                    .find(|c| c.name == ORD_COL)
                    .ok_or_else(|| QError::type_err(format!("{name} requires ordered input")))?;
                let ty = a.derived_type();
                Ok(ScalarExpr::Window {
                    func: if name == "prev" { WinFunc::Lag } else { WinFunc::Lead },
                    args: vec![a],
                    partition_by: vec![],
                    order_by: vec![(ScalarExpr::col(oc.name.clone(), oc.ty), SortDir::Asc)],
                }
                .with_type(ty))
            }
            other => Err(QError::type_err(format!("function {other} not bindable to SQL"))),
        }
    }

    /// Bind an expression that must be a constant list (RHS of `in`).
    fn bind_const_list(&mut self, e: &Expr) -> QResult<Vec<Datum>> {
        match e {
            Expr::Lit(v) => value_to_datums(v),
            Expr::Var(name) => match self.scopes.lookup(name) {
                Some(VarDef::List(items)) => Ok(items.clone()),
                Some(VarDef::Scalar(d)) => Ok(vec![d.clone()]),
                _ => Err(QError::type_err(format!(
                    "{name} is not a constant list known to Hyper-Q's variable store"
                ))),
            },
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for it in items {
                    let s = self.bind_scalar(it, &[], false)?;
                    match fold_const(&s) {
                        Some(d) => out.push(d),
                        None => return Err(QError::type_err("in: list elements must be constant")),
                    }
                }
                Ok(out)
            }
            _ => Err(QError::type_err("in: right operand must be a constant list")),
        }
    }
}

/// Small helper extensions used by the binder.
trait ScalarExt {
    fn with_type(self, ty: SqlType) -> ScalarExpr;
}

impl ScalarExt for ScalarExpr {
    /// Window functions infer their type from args; nothing to change,
    /// provided for readability at call sites.
    fn with_type(self, _ty: SqlType) -> ScalarExpr {
        self
    }
}


/// A scan of `meta` for `demand`: the demanded columns the table has, its
/// order column and its first column (the witness pruning keeps when a
/// scan is read for nothing), in schema order. Found through the
/// table's name index, so the cost is the demand's, not the width's.
fn scan(meta: TableMeta, demand: &Demand) -> RelNode {
    let Demand::Names(names) = demand else {
        return RelNode::get(meta.name, meta.columns);
    };
    let mut at: Vec<usize> = std::iter::once(ORD_COL)
        .chain(names.iter().copied())
        .filter_map(|n| meta.position(n))
        .collect();
    at.push(0);
    at.sort_unstable();
    at.dedup();
    if at.len() >= meta.columns.len() {
        return RelNode::get(meta.name, meta.columns);
    }
    let cols: Vec<ColumnDef> = at.iter().map(|&i| meta.columns[i].clone()).collect();
    RelNode::get(meta.name, cols)
}

/// Add the free names of `e` to `out`; false when `e` holds a lambda, an
/// assignment or a return, whose names the walk does not follow.
fn free_names<'e>(e: &'e Expr, out: &mut NameSet<'e>) -> bool {
    match e {
        Expr::Lit(_) | Expr::Empty => true,
        Expr::Var(name) => {
            out.insert(name);
            true
        }
        Expr::List(items) | Expr::Cond(items) => items.iter().all(|x| free_names(x, out)),
        Expr::Unary { arg, .. } => free_names(arg, out),
        Expr::Binary { lhs, rhs, .. } => free_names(lhs, out) && free_names(rhs, out),
        Expr::Call { func, args } => {
            free_names(func, out) && args.iter().flatten().all(|a| free_names(a, out))
        }
        Expr::Apply { func, arg } => free_names(func, out) && free_names(arg, out),
        Expr::AdverbApply { verb, .. } => free_names(verb, out),
        Expr::Template(t) => {
            let exprs = t.columns.iter().chain(&t.by).map(|(_, x)| x).chain(&t.predicates);
            exprs.chain(std::iter::once(&*t.from)).all(|x| free_names(x, out))
        }
        Expr::TableLit { keys, columns } => {
            keys.iter().chain(columns).all(|(_, x)| free_names(x, out))
        }
        Expr::Lambda(_) | Expr::Assign { .. } | Expr::IndexAssign { .. } | Expr::Return(_) => {
            false
        }
    }
}

/// `name` with the translation-private prefix of a join's right input.
fn right_name(name: &str) -> Name {
    Name::prefixed("hq_r_", name)
}

/// Every column of `plan` renamed with a translation-private prefix, so
/// the serialized SQL of a join never has ambiguous references.
fn prefixed(plan: RelNode) -> RelNode {
    let items = plan
        .props()
        .output
        .iter()
        .map(|c| (right_name(&c.name), ScalarExpr::col(c.name.clone(), c.ty)))
        .collect();
    RelNode::project(plan, items)
}

/// The result of an `aj`/`ej` join: the left columns as they are, then
/// the right payload columns — not a join column, not a name the left
/// has, not the order column — restored to their own names from
/// `renamed`, the [`prefixed`] right input's. "The results need to be
/// ordered at the end to conform with Q ordered lists model."
fn restore_names(
    join: RelNode,
    lp: &RelProps,
    rp: &RelProps,
    renamed: &RelProps,
    cols: &[String],
) -> RelNode {
    // One pass over the left columns, the wider side in a chain of joins:
    // each becomes an item and is looked up among the right names.
    let right_names: NameSet = rp.output.iter().map(|c| c.name.as_str()).collect();
    let mut shared = NameSet::default();
    let mut items = Vec::with_capacity(lp.output.len() + rp.output.len());
    for c in lp.output.iter() {
        shared.extend(right_names.get(c.name.as_str()));
        items.push((c.name.clone(), ScalarExpr::col(c.name.clone(), c.ty)));
    }
    let payload = rp.output.iter().zip(renamed.output.iter()).filter(|(c, _)| {
        !(cols.iter().any(|k| c.name == *k)
            || shared.contains(c.name.as_str())
            || c.name == ORD_COL)
    });
    items.extend(payload.map(|(c, r)| (c.name.clone(), ScalarExpr::col(r.name.clone(), c.ty))));
    let projected = RelNode::project(join, items);
    match lp.ord_col {
        Some(oc) => RelNode::sort(projected, vec![SortKey::asc(oc, SqlType::Int8)]),
        None => projected,
    }
}

/// Is this bound expression aggregate-valued? Covers both native `Agg`
/// nodes and backend-toolbox aggregate functions (`median`) that bind as
/// plain function calls.
pub fn is_aggregate_like(e: &ScalarExpr) -> bool {
    fn toolbox_agg(e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Func { name, .. } if name == "median" => true,
            ScalarExpr::Func { args, .. } => args.iter().any(toolbox_agg),
            ScalarExpr::Binary { lhs, rhs, .. } => toolbox_agg(lhs) || toolbox_agg(rhs),
            ScalarExpr::Unary { arg, .. } | ScalarExpr::Cast { arg, .. } => toolbox_agg(arg),
            ScalarExpr::Case { branches, else_result } => {
                branches.iter().any(|(c, r)| toolbox_agg(c) || toolbox_agg(r))
                    || else_result.as_ref().map(|x| toolbox_agg(x)).unwrap_or(false)
            }
            _ => false,
        }
    }
    e.contains_aggregate() || toolbox_agg(e)
}

/// The output name of a q-sql item: its own, or the default.
fn alias(name: &Option<String>, e: &Expr) -> Name {
    match name {
        Some(n) => n.into(),
        None => default_name(e).into(),
    }
}

/// Default q-sql output column name: named after the underlying column.
fn default_name(e: &Expr) -> String {
    match e {
        Expr::Var(n) => n.clone(),
        Expr::Apply { arg, .. } | Expr::Unary { arg, .. } => default_name(arg),
        Expr::Binary { lhs, .. } => default_name(lhs),
        Expr::Call { args, .. } => args
            .iter()
            .flatten()
            .last()
            .map(default_name)
            .unwrap_or_else(|| "x".to_string()),
        _ => "x".to_string(),
    }
}

/// Extract a symbol list literal.
fn expect_symbols(e: &Expr) -> QResult<Vec<String>> {
    match e {
        Expr::Lit(Value::Atom(Atom::Symbol(s))) => Ok(vec![s.clone()]),
        Expr::Lit(Value::Symbols(ss)) => Ok(ss.clone()),
        _ => Err(QError::type_err("expected a symbol list literal")),
    }
}

/// Constant-fold a bound scalar expression, if it is constant.
pub fn fold_const(e: &ScalarExpr) -> Option<Datum> {
    match e {
        ScalarExpr::Const(d) => Some(d.clone()),
        ScalarExpr::Unary { op: UnOp::Neg, arg } => match fold_const(arg)? {
            Datum::I64(v) => Some(Datum::I64(-v)),
            Datum::I32(v) => Some(Datum::I32(-v)),
            Datum::F64(v) => Some(Datum::F64(-v)),
            _ => None,
        },
        ScalarExpr::Binary { op, lhs, rhs } => {
            let l = fold_const(lhs)?;
            let r = fold_const(rhs)?;
            fold_binary(*op, &l, &r)
        }
        ScalarExpr::Cast { arg, ty } => {
            let v = fold_const(arg)?;
            match (v, ty) {
                (Datum::I64(x), SqlType::Float8) => Some(Datum::F64(x as f64)),
                (Datum::F64(x), SqlType::Int8) => Some(Datum::I64(x as i64)),
                (v, _) if v.sql_type() == *ty => Some(v),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Bind a Q ordering comparison with the null ranking made explicit.
/// Q treats a typed null as smaller than every value of its type
/// (`0N < x` is 1b for non-null x, `x <= 0N` only when x is null, two
/// nulls rank equal), while in SQL any comparison against NULL is NULL.
/// The raw operator keeps its SQL meaning for non-null operands; a
/// disjunct encodes the null-as-minus-infinity cases, and the outer
/// COALESCE pins the remaining NULL outcomes to q's `false` so the
/// expression is exact in projection context too, not just in filters.
fn q_ordered_cmp(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
    let is_null =
        |e: &ScalarExpr| ScalarExpr::IsNull { arg: Box::new(e.clone()), negated: false };
    let not_null =
        |e: &ScalarExpr| ScalarExpr::IsNull { arg: Box::new(e.clone()), negated: true };
    let null_wins = match op {
        BinOp::Lt => ScalarExpr::binary(BinOp::And, is_null(&l), not_null(&r)),
        BinOp::Le => is_null(&l),
        BinOp::Gt => ScalarExpr::binary(BinOp::And, is_null(&r), not_null(&l)),
        BinOp::Ge => is_null(&r),
        _ => unreachable!("q_ordered_cmp only handles ordering operators"),
    };
    ScalarExpr::Func {
        name: "coalesce".into(),
        ty: SqlType::Bool,
        args: vec![
            ScalarExpr::binary(BinOp::Or, ScalarExpr::binary(op, l, r), null_wins),
            ScalarExpr::Const(Datum::Bool(false)),
        ],
        volatile: false,
    }
}

fn fold_binary(op: BinOp, l: &Datum, r: &Datum) -> Option<Datum> {
    let as_f = |d: &Datum| -> Option<f64> {
        match d {
            Datum::I16(v) => Some(*v as f64),
            Datum::I32(v) => Some(*v as f64),
            Datum::I64(v) => Some(*v as f64),
            Datum::F32(v) => Some(*v as f64),
            Datum::F64(v) => Some(*v),
            _ => None,
        }
    };
    let both_int = matches!(l, Datum::I16(_) | Datum::I32(_) | Datum::I64(_))
        && matches!(r, Datum::I16(_) | Datum::I32(_) | Datum::I64(_));
    let (x, y) = (as_f(l)?, as_f(r)?);
    let num = |v: f64| -> Datum {
        if both_int && v.fract() == 0.0 && op != BinOp::Div {
            Datum::I64(v as i64)
        } else {
            Datum::F64(v)
        }
    };
    Some(match op {
        BinOp::Add => num(x + y),
        BinOp::Sub => num(x - y),
        BinOp::Mul => num(x * y),
        BinOp::Div => Datum::F64(x / y),
        BinOp::Mod => num(x.rem_euclid(y)),
        BinOp::Eq => Datum::Bool(x == y),
        BinOp::Neq => Datum::Bool(x != y),
        BinOp::Lt => Datum::Bool(x < y),
        BinOp::Le => Datum::Bool(x <= y),
        BinOp::Gt => Datum::Bool(x > y),
        BinOp::Ge => Datum::Bool(x >= y),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdi::StaticMdi;

    fn catalog() -> StaticMdi {
        let ord = || ColumnDef::not_null(ORD_COL, SqlType::Int8);
        StaticMdi::new()
            .with(TableMeta::new(
                "trades",
                vec![
                    ord(),
                    ColumnDef::new("Date", SqlType::Date),
                    ColumnDef::new("Symbol", SqlType::Varchar),
                    ColumnDef::new("Time", SqlType::Time),
                    ColumnDef::new("Price", SqlType::Float8),
                    ColumnDef::new("Size", SqlType::Int8),
                ],
            ))
            .with(TableMeta::new(
                "quotes",
                vec![
                    ord(),
                    ColumnDef::new("Date", SqlType::Date),
                    ColumnDef::new("Symbol", SqlType::Varchar),
                    ColumnDef::new("Time", SqlType::Time),
                    ColumnDef::new("Bid", SqlType::Float8),
                    ColumnDef::new("Ask", SqlType::Float8),
                ],
            ))
    }

    fn bind_one(src: &str) -> BindOutput {
        let mdi = catalog();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let mut binder =
            Binder::new(&mdi, &mut scopes, MaterializationPolicy::Logical, &mut seq);
        let stmts = qlang::parse(src).unwrap();
        let mut out = None;
        for s in &stmts {
            out = Some(binder.bind_statement(s).unwrap_or_else(|e| panic!("bind {src:?}: {e}")));
        }
        out.unwrap()
    }

    fn plan_of(out: &BindOutput) -> &RelNode {
        match &out.bound {
            Bound::Rel { plan, .. } => plan,
            other => panic!("expected rel, got {other:?}"),
        }
    }

    #[test]
    fn select_binds_to_project_over_filter_over_get() {
        let out = bind_one("select Price from trades where Symbol=`GOOG");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_sort"), "{text}");
        assert!(text.contains("xtra_project"), "{text}");
        assert!(text.contains("xtra_filter"), "{text}");
        assert!(text.contains("xtra_get(trades)"), "{text}");
    }

    #[test]
    fn select_projects_ord_col_through() {
        let out = bind_one("select Price from trades");
        let props = plan_of(&out).props();
        assert!(props.has_column(ORD_COL), "ordcol travels with the projection");
        assert!(props.has_column("Price"));
        assert_eq!(props.output.len(), 2, "column pruning keeps only what's needed");
    }

    #[test]
    fn sequential_wheres_stack_filters() {
        let out = bind_one(
            "select Price from trades where Date=2016.06.26, Symbol in `GOOG`IBM",
        );
        let text = plan_of(&out).explain();
        assert_eq!(text.matches("xtra_filter").count(), 2, "{text}");
        assert!(text.contains("IN (2 items)"), "{text}");
    }

    #[test]
    fn scalar_aggregate_gets_const_ord_col() {
        // The paper's §4.3 generated SQL: SELECT 1::int AS ordcol, MAX(Price)...
        let out = bind_one("select max Price from trades");
        let props = plan_of(&out).props();
        assert_eq!(props.output[0].name, ORD_COL);
        assert_eq!(props.output[1].name, "Price");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_aggregate"), "{text}");
    }

    #[test]
    fn group_by_binds_aggregate_with_keys() {
        let out = bind_one("select mx: max Price by Symbol from trades");
        match &out.bound {
            Bound::Rel { shape, .. } => {
                assert_eq!(*shape, ResultShape::KeyedTable { key_cols: 1 });
            }
            other => panic!("unexpected {other:?}"),
        }
        let props = plan_of(&out).props();
        assert_eq!(props.output[0].name, "Symbol");
        assert_eq!(props.output[1].name, "mx");
    }

    #[test]
    fn exec_shapes() {
        let out = bind_one("exec Price from trades");
        assert!(matches!(out.bound, Bound::Rel { shape: ResultShape::Column, .. }));
        let out = bind_one("exec Price, Size from trades");
        assert!(matches!(out.bound, Bound::Rel { shape: ResultShape::Dict, .. }));
        let out = bind_one("exec max Price from trades");
        assert!(matches!(out.bound, Bound::Rel { shape: ResultShape::Atom, .. }));
    }

    #[test]
    fn aj_binds_to_left_join_with_window() {
        // Figure 2's exact shape.
        let out = bind_one("aj[`Symbol`Time; trades; quotes]");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_join_left"), "{text}");
        assert!(text.contains("xtra_window"), "{text}");
        assert!(text.starts_with("xtra_sort"), "ordered at the end: {text}");
        let props = plan_of(&out).props();
        assert!(props.has_column("Bid"));
        assert!(props.has_column("Ask"));
        assert!(props.has_column("Price"));
    }

    #[test]
    fn aj_checks_join_columns() {
        let mdi = catalog();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let mut binder =
            Binder::new(&mdi, &mut scopes, MaterializationPolicy::Logical, &mut seq);
        let stmt = qlang::parse_one("aj[`NoSuchCol`Time; trades; quotes]").unwrap();
        let err = binder.bind_statement(&stmt).unwrap_err();
        assert!(err.to_string().contains("NoSuchCol"));
    }

    #[test]
    fn update_binds_to_case_projection() {
        let out = bind_one("update Price: 0.0 from trades where Symbol=`IBM");
        let props = plan_of(&out).props();
        // All original columns survive.
        assert!(props.has_column("Price"));
        assert!(props.has_column("Size"));
        let text = plan_of(&out).explain();
        assert!(!text.contains("xtra_filter"), "update must not filter rows: {text}");
    }

    #[test]
    fn delete_rows_negates_predicate() {
        let out = bind_one("delete from trades where Price<0");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_filter"), "{text}");
        assert!(text.contains("NOT"), "{text}");
    }

    #[test]
    fn delete_columns_projects_them_away() {
        let out = bind_one("delete Size from trades");
        let props = plan_of(&out).props();
        assert!(!props.has_column("Size"));
        assert!(props.has_column("Price"));
    }

    #[test]
    fn variable_assignment_logical_is_inlined() {
        let out = bind_one("dt: select Price from trades where Symbol=`GOOG; select max Price from dt");
        assert!(out.side_statements.is_empty(), "logical policy: no temp tables");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_get(trades)"), "view inlined: {text}");
    }

    #[test]
    fn variable_assignment_physical_creates_temp() {
        let mdi = catalog();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let mut binder =
            Binder::new(&mdi, &mut scopes, MaterializationPolicy::Physical, &mut seq);
        let stmts = qlang::parse(
            "dt: select Price from trades where Symbol=`GOOG; select max Price from dt",
        )
        .unwrap();
        let first = binder.bind_statement(&stmts[0]).unwrap();
        assert_eq!(first.side_statements.len(), 1);
        match &first.side_statements[0] {
            SideStatement::CreateTemp { name, .. } => assert_eq!(name, "HQ_TEMP_1"),
        }
        let second = binder.bind_statement(&stmts[1]).unwrap();
        let text = plan_of(&second).explain();
        assert!(text.contains("xtra_get(HQ_TEMP_1)"), "{text}");
    }

    #[test]
    fn function_unrolling_paper_example_3() {
        let out = bind_one(concat!(
            "f: {[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt}; ",
            "f[`GOOG]"
        ));
        let text = plan_of(&out).explain();
        // Unrolled: the final plan reads the base table directly and the
        // parameter became a constant filter.
        assert!(text.contains("xtra_get(trades)"), "{text}");
        assert!(text.contains("xtra_aggregate"), "{text}");
        assert!(text.contains("GOOG"), "{text}");
    }

    #[test]
    fn scalar_variables_fold_to_constants() {
        let out = bind_one("lim: 100+1; select Price from trades where Size>lim");
        let text = plan_of(&out).explain();
        assert!(text.contains("101"), "{text}");
    }

    #[test]
    fn list_variables_serve_in_lists() {
        let out = bind_one("SYMLIST: `GOOG`IBM; select Price from trades where Symbol in SYMLIST");
        let text = plan_of(&out).explain();
        assert!(text.contains("IN (2 items)"), "{text}");
    }

    #[test]
    fn lj_binds_keyed_join() {
        let out = bind_one("trades lj 1!select Symbol, Bid from quotes");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_join_left"), "{text}");
        assert!(text.contains("xtra_window"), "dedup via row_number: {text}");
        let props = plan_of(&out).props();
        assert!(props.has_column("Bid"));
    }

    #[test]
    fn xasc_binds_sort() {
        let out = bind_one("`Price xasc trades");
        assert!(plan_of(&out).explain().starts_with("xtra_sort"));
    }

    #[test]
    fn take_binds_limit() {
        let out = bind_one("5#trades");
        let text = plan_of(&out).explain();
        assert!(text.contains("xtra_limit"), "{text}");
    }

    #[test]
    fn standalone_scalar_binds() {
        let out = bind_one("1+2");
        match out.bound {
            Bound::Scalar(s) => assert_eq!(fold_const(&s), Some(Datum::I64(3))),
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn table_literal_binds_values_with_ord_col() {
        let out = bind_one("([] s:`a`b; p:1 2)");
        match plan_of(&out) {
            RelNode::Values { rows, props } => {
                assert_eq!(props.output[0].name, ORD_COL);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Datum::I64(1));
                assert_eq!(rows[1][0], Datum::I64(2));
            }
            other => panic!("expected values, got {}", other.explain()),
        }
    }

    #[test]
    fn undefined_table_is_a_value_error() {
        let mdi = catalog();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let mut binder =
            Binder::new(&mdi, &mut scopes, MaterializationPolicy::Logical, &mut seq);
        let stmt = qlang::parse_one("select from nosuch").unwrap();
        let err = binder.bind_statement(&stmt).unwrap_err();
        assert_eq!(err.kind, qlang::error::QErrorKind::Value);
    }

    #[test]
    fn const_folding() {
        assert_eq!(
            fold_binary(BinOp::Add, &Datum::I64(2), &Datum::I64(3)),
            Some(Datum::I64(5))
        );
        assert_eq!(
            fold_binary(BinOp::Div, &Datum::I64(1), &Datum::I64(2)),
            Some(Datum::F64(0.5))
        );
        assert_eq!(
            fold_binary(BinOp::Lt, &Datum::I64(1), &Datum::I64(2)),
            Some(Datum::Bool(true))
        );
    }
}
