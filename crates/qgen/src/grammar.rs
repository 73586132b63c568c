//! Grammar-driven Q program generation.
//!
//! Statements are generated as *structured* values ([`GenStmt`]) rather
//! than strings: the structure is what makes expression-level shrinking
//! possible — the delta debugger removes projections, `where` conjuncts
//! and `by` keys, or replaces a join by one of its inputs, and re-renders.
//!
//! The grammar deliberately stays inside the translated surface proven
//! by the hand-written differential oracle (selects, aggregations, `by`
//! with `xbar`, `aj`/`lj`/`ij`/`uj`, null comparisons, ordcol
//! functions, sorts, variable assignment + reuse), but composes those
//! forms randomly over randomized schemas — the scenarios are generated
//! instead of enumerated.

use crate::schema::{Dataset, NumKind, TableSpec};
use rand::rngs::StdRng;
use rand::Rng;

/// The q-sql template keyword of a [`Select`] statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectKind {
    /// `select ... from ...`
    Select,
    /// `exec ... from ...` (single column, no `by`)
    Exec,
    /// `update ... from ...` (output-only column rewrite)
    Update,
}

/// One projection: optional alias plus a rendered expression.
#[derive(Debug, Clone)]
pub struct Proj {
    /// `alias: expr`; `None` renders the bare expression.
    pub alias: Option<String>,
    /// Rendered Q expression (column, arithmetic, aggregate, ordcol fn).
    pub expr: String,
}

impl Proj {
    fn render(&self) -> String {
        match &self.alias {
            Some(a) => format!("{a}: {}", self.expr),
            None => self.expr.clone(),
        }
    }
}

/// A q-sql select/exec/update statement over a plain source.
#[derive(Debug, Clone)]
pub struct Select {
    /// Which template.
    pub kind: SelectKind,
    /// Projections; empty renders `select from ...`.
    pub projections: Vec<Proj>,
    /// Grouping key expressions (no aliases, oracle style).
    pub bys: Vec<String>,
    /// Sequentially applied `where` conjuncts.
    pub wheres: Vec<String>,
    /// Source: a table name, a variable name, or a rendered lookup join.
    pub source: String,
}

impl Select {
    fn render(&self) -> String {
        let kw = match self.kind {
            SelectKind::Select => "select",
            SelectKind::Exec => "exec",
            SelectKind::Update => "update",
        };
        let mut s = kw.to_string();
        if !self.projections.is_empty() {
            s.push(' ');
            s.push_str(
                &self.projections.iter().map(Proj::render).collect::<Vec<_>>().join(", "),
            );
        }
        if !self.bys.is_empty() {
            s.push_str(" by ");
            s.push_str(&self.bys.join(", "));
        }
        s.push_str(" from ");
        s.push_str(&self.source);
        if !self.wheres.is_empty() {
            s.push_str(" where ");
            s.push_str(&self.wheres.join(", "));
        }
        s
    }

    /// One-part-removed variants, most aggressive first.
    fn shrink(&self) -> Vec<Select> {
        let mut out = Vec::new();
        for i in 0..self.wheres.len() {
            let mut c = self.clone();
            c.wheres.remove(i);
            out.push(c);
        }
        if self.projections.len() > 1 {
            for i in 0..self.projections.len() {
                let mut c = self.clone();
                c.projections.remove(i);
                out.push(c);
            }
        }
        if self.bys.len() > 1 {
            for i in 0..self.bys.len() {
                let mut c = self.clone();
                c.bys.remove(i);
                out.push(c);
            }
        }
        out
    }
}

/// A generated statement.
#[derive(Debug, Clone)]
pub enum GenStmt {
    /// A q-sql statement.
    Sel(Select),
    /// `` `C1`C2 xasc <select> `` (or `xdesc`).
    Sorted {
        /// Sort key columns.
        cols: Vec<String>,
        /// Descending?
        desc: bool,
        /// The sorted select.
        inner: Select,
    },
    /// `aj[`S`T; <left select>; <right select>]`.
    AsOf {
        /// Join columns.
        cols: Vec<String>,
        /// Left (probe) side.
        left: Select,
        /// Right (quote) side.
        right: Select,
    },
    /// `(<left>) uj <right>`.
    Union {
        /// First operand.
        left: Select,
        /// Second operand.
        right: Select,
    },
    /// `name: <rhs>` — assignment, exercising the materialization path.
    Assign {
        /// Variable name.
        var: String,
        /// Right-hand side statement.
        rhs: Box<GenStmt>,
    },
    /// An opaque statement (symbol-list variable definitions, corpus
    /// lines). Not structurally shrinkable.
    Raw(String),
}

impl GenStmt {
    /// Render to Q text.
    pub fn render(&self) -> String {
        match self {
            GenStmt::Sel(s) => s.render(),
            GenStmt::Sorted { cols, desc, inner } => {
                let verb = if *desc { "xdesc" } else { "xasc" };
                format!("{} {verb} {}", sym_list(cols), inner.render())
            }
            GenStmt::AsOf { cols, left, right } => {
                format!("aj[{}; {}; {}]", sym_list(cols), left.render(), right.render())
            }
            GenStmt::Union { left, right } => {
                format!("({}) uj {}", left.render(), right.render())
            }
            GenStmt::Assign { var, rhs } => format!("{var}: {}", rhs.render()),
            GenStmt::Raw(s) => s.clone(),
        }
    }

    /// Expression-level shrink candidates: structurally smaller
    /// statements that might still reproduce a divergence.
    pub fn shrink_candidates(&self) -> Vec<GenStmt> {
        match self {
            GenStmt::Sel(s) => s.shrink().into_iter().map(GenStmt::Sel).collect(),
            GenStmt::Sorted { cols, desc, inner } => {
                let mut out = vec![GenStmt::Sel(inner.clone())];
                if cols.len() > 1 {
                    for i in 0..cols.len() {
                        let mut c = cols.clone();
                        c.remove(i);
                        out.push(GenStmt::Sorted { cols: c, desc: *desc, inner: inner.clone() });
                    }
                }
                out.extend(inner.shrink().into_iter().map(|s| GenStmt::Sorted {
                    cols: cols.clone(),
                    desc: *desc,
                    inner: s,
                }));
                out
            }
            GenStmt::AsOf { cols, left, right } => {
                let mut out =
                    vec![GenStmt::Sel(left.clone()), GenStmt::Sel(right.clone())];
                for l in left.shrink() {
                    out.push(GenStmt::AsOf { cols: cols.clone(), left: l, right: right.clone() });
                }
                for r in right.shrink() {
                    out.push(GenStmt::AsOf { cols: cols.clone(), left: left.clone(), right: r });
                }
                out
            }
            GenStmt::Union { left, right } => {
                let mut out =
                    vec![GenStmt::Sel(left.clone()), GenStmt::Sel(right.clone())];
                for l in left.shrink() {
                    out.push(GenStmt::Union { left: l, right: right.clone() });
                }
                for r in right.shrink() {
                    out.push(GenStmt::Union { left: left.clone(), right: r });
                }
                out
            }
            GenStmt::Assign { var, rhs } => rhs
                .shrink_candidates()
                .into_iter()
                .map(|r| GenStmt::Assign { var: var.clone(), rhs: Box::new(r) })
                .collect(),
            GenStmt::Raw(_) => Vec::new(),
        }
    }
}

/// Coverage counters over a generated program set: the fuzz test pins
/// every statement family to non-zero so grammar regressions are loud.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// Plain selects/execs.
    pub selects: usize,
    /// Aggregations without `by`.
    pub aggregations: usize,
    /// `by` aggregations.
    pub by_aggs: usize,
    /// As-of joins.
    pub aj: usize,
    /// As-of joins with a two-column equality prefix.
    pub aj_two_keys: usize,
    /// As-of joins over repeated as-of values.
    pub aj_duplicates: usize,
    /// As-of joins over typed-null as-of values.
    pub aj_nulls: usize,
    /// Selects with items over an `ej` or an `aj`, whose scans bind only
    /// the columns the items read.
    pub join_selects: usize,
    /// Left lookup joins.
    pub lj: usize,
    /// Inner lookup joins.
    pub ij: usize,
    /// Union joins.
    pub uj: usize,
    /// Statements with a null-literal comparison (`=0N`).
    pub null_logic: usize,
    /// Ordcol-sensitive statements (prev/next/deltas/first/last/sorts).
    pub ordcol: usize,
    /// `update` statements.
    pub updates: usize,
    /// Variable assignments (materialization path).
    pub assigns: usize,
}

impl Coverage {
    /// Every family the acceptance criteria demand, with its count.
    pub fn families(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("selects", self.selects),
            ("aggregations", self.aggregations),
            ("by_aggs", self.by_aggs),
            ("aj", self.aj),
            ("aj_two_keys", self.aj_two_keys),
            ("aj_duplicates", self.aj_duplicates),
            ("aj_nulls", self.aj_nulls),
            ("join_selects", self.join_selects),
            ("lj", self.lj),
            ("ij", self.ij),
            ("uj", self.uj),
            ("null_logic", self.null_logic),
            ("ordcol", self.ordcol),
            ("updates", self.updates),
            ("assigns", self.assigns),
        ]
    }
}

/// A generated program: an ordered statement list over one dataset.
#[derive(Debug, Clone)]
pub struct Program {
    /// The statements, in execution order.
    pub stmts: Vec<GenStmt>,
}

impl Program {
    /// Render every statement.
    pub fn render(&self) -> Vec<String> {
        self.stmts.iter().map(GenStmt::render).collect()
    }
}

fn sym_list(cols: &[String]) -> String {
    cols.iter().map(|c| format!("`{c}")).collect::<String>()
}

/// The program generator: owns naming counters so variables are unique
/// across every program produced from one generator.
pub struct ProgramGen {
    var_seq: usize,
}

impl Default for ProgramGen {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramGen {
    /// Fresh generator.
    pub fn new() -> Self {
        ProgramGen { var_seq: 0 }
    }

    /// Generate one program of 1..=5 top-level constructs against `ds`,
    /// tallying grammar coverage into `cov`.
    pub fn gen_program(&mut self, rng: &mut StdRng, ds: &Dataset, cov: &mut Coverage) -> Program {
        let n = rng.gen_range(1..=5u32);
        let mut stmts = Vec::new();
        for _ in 0..n {
            self.gen_construct(rng, ds, &mut stmts, cov);
        }
        Program { stmts }
    }

    fn fresh_var(&mut self) -> String {
        self.var_seq += 1;
        format!("v{}", self.var_seq)
    }

    /// Push one construct (possibly several statements, e.g. an
    /// assignment and a follow-up read of the variable).
    fn gen_construct(
        &mut self,
        rng: &mut StdRng,
        ds: &Dataset,
        stmts: &mut Vec<GenStmt>,
        cov: &mut Coverage,
    ) {
        match rng.gen_range(0..16u32) {
            0..=2 => {
                cov.selects += 1;
                let mut s = self.plain_select(rng, &ds.main, None);
                if has_null_literal(&s.wheres) {
                    cov.null_logic += 1;
                }
                if rng.gen_range(0..4u32) == 0 {
                    s.kind = SelectKind::Exec;
                    s.bys.clear();
                    s.projections.truncate(1);
                    if s.projections.is_empty() {
                        s.projections.push(Proj {
                            alias: None,
                            expr: ds.main.num_cols[0].0.clone(),
                        });
                    }
                    // exec of a bare column list, oracle style.
                    for p in &mut s.projections {
                        p.alias = None;
                    }
                }
                stmts.push(GenStmt::Sel(s));
            }
            3 | 4 => {
                cov.aggregations += 1;
                stmts.push(GenStmt::Sel(self.agg_select(rng, &ds.main, false, cov)));
            }
            5..=7 => {
                cov.by_aggs += 1;
                let s = if rng.gen_range(0..3u32) == 0 {
                    // first/last by — the open/close idiom, ordcol-sensitive.
                    cov.ordcol += 1;
                    self.first_last_by(rng, &ds.main)
                } else {
                    self.agg_select(rng, &ds.main, true, cov)
                };
                stmts.push(GenStmt::Sel(s));
            }
            8 => {
                cov.ordcol += 1;
                stmts.push(GenStmt::Sel(self.ordcol_select(rng, &ds.main)));
            }
            9 => {
                cov.ordcol += 1;
                let inner = self.plain_select(rng, &ds.main, None);
                let mut cols = vec![ds.main.sym_col.clone()];
                if rng.gen_range(0..2u32) == 0 {
                    cols.push(ds.main.time_col.clone());
                }
                if rng.gen_range(0..2u32) == 0 {
                    // Sort by a projected value column instead.
                    cols = vec![ds.main.num_cols[0].0.clone()];
                }
                stmts.push(GenStmt::Sorted { cols, desc: rng.gen_range(0..2u32) == 1, inner });
            }
            10 => stmts.push(self.asof_join(rng, ds, cov)),
            11 => {
                let ij = rng.gen_range(0..2u32) == 0;
                if ij {
                    cov.ij += 1;
                } else {
                    cov.lj += 1;
                }
                stmts.push(self.lookup_join(rng, ds, ij, cov));
            }
            12 => {
                cov.uj += 1;
                stmts.push(self.union_join(rng, ds));
            }
            13 => {
                cov.updates += 1;
                stmts.push(GenStmt::Sel(self.update_stmt(rng, &ds.main, cov)));
            }
            14 => {
                // Assignment + reuse: materialization path.
                cov.assigns += 1;
                let var = self.fresh_var();
                let mut rhs = self.plain_select(rng, &ds.main, None);
                // The variable must be a plain table with known columns:
                // project explicit columns, no by.
                rhs.kind = SelectKind::Select;
                rhs.bys.clear();
                if rhs.projections.is_empty() {
                    rhs.projections = ds
                        .main
                        .all_cols()
                        .into_iter()
                        .map(|c| Proj { alias: None, expr: c })
                        .collect();
                }
                // Aliased/computed projections would need type tracking;
                // keep the variable's schema = raw columns.
                let cols: Vec<String> = rhs
                    .projections
                    .iter()
                    .filter(|p| p.alias.is_none())
                    .map(|p| p.expr.clone())
                    .collect();
                let cols = if cols.is_empty() { ds.main.all_cols() } else { cols };
                rhs.projections =
                    cols.iter().map(|c| Proj { alias: None, expr: c.clone() }).collect();
                stmts.push(GenStmt::Assign {
                    var: var.clone(),
                    rhs: Box::new(GenStmt::Sel(rhs)),
                });
                // Follow-up read over the variable.
                cov.aggregations += 1;
                let num: Vec<&String> = cols
                    .iter()
                    .filter(|c| ds.main.num_cols.iter().any(|(n, _)| &n == c))
                    .collect();
                let agg_col = num
                    .first()
                    .map(|c| (*c).clone())
                    .unwrap_or_else(|| "i".to_string());
                let expr = if agg_col == "i" {
                    "count i".to_string()
                } else {
                    format!("{} {agg_col}", ["max", "min", "sum", "count"][rng.gen_range(0..4usize)])
                };
                stmts.push(GenStmt::Sel(Select {
                    kind: SelectKind::Select,
                    projections: vec![Proj { alias: Some("r".into()), expr }],
                    bys: Vec::new(),
                    wheres: Vec::new(),
                    source: var,
                }));
            }
            _ => {
                // Symbol-list variable + membership filter over it.
                cov.assigns += 1;
                cov.selects += 1;
                let var = self.fresh_var();
                let k = rng.gen_range(1..=ds.main.universe.len());
                let syms: String =
                    ds.main.universe[..k].iter().map(|s| format!("`{s}")).collect();
                stmts.push(GenStmt::Raw(format!("{var}: {syms}")));
                let mut s = self.plain_select(rng, &ds.main, None);
                s.wheres.insert(0, format!("{} in {var}", ds.main.sym_col));
                stmts.push(GenStmt::Sel(s));
            }
        }
    }

    /// A non-aggregating select over `spec` (or an explicit source name).
    fn plain_select(
        &mut self,
        rng: &mut StdRng,
        spec: &TableSpec,
        source: Option<String>,
    ) -> Select {
        let mut projections = Vec::new();
        match rng.gen_range(0..3u32) {
            // select from t — all columns.
            0 => {}
            // explicit column subset.
            1 => {
                let cols = spec.all_cols();
                let keep = rng.gen_range(1..=cols.len());
                projections = cols[..keep]
                    .iter()
                    .map(|c| Proj { alias: None, expr: c.clone() })
                    .collect();
            }
            // computed column on top of the key columns.
            _ => {
                projections.push(Proj { alias: None, expr: spec.sym_col.clone() });
                projections.push(Proj {
                    alias: Some("calc".into()),
                    expr: self.arith_expr(rng, spec),
                });
            }
        }
        let nw = rng.gen_range(0..=2u32) as usize;
        Select {
            kind: SelectKind::Select,
            projections,
            bys: Vec::new(),
            wheres: self.wheres(rng, spec, nw),
            source: source.unwrap_or_else(|| spec.name.clone()),
        }
    }

    /// An aggregation select, optionally grouped.
    fn agg_select(
        &mut self,
        rng: &mut StdRng,
        spec: &TableSpec,
        by: bool,
        cov: &mut Coverage,
    ) -> Select {
        let mut projections = Vec::new();
        let n = rng.gen_range(1..=2u32);
        for i in 0..n {
            projections.push(Proj {
                alias: Some(format!("a{i}")),
                expr: self.agg_expr(rng, spec),
            });
        }
        let mut bys = Vec::new();
        if by {
            bys.push(match rng.gen_range(0..5u32) {
                0 => spec.date_col.clone(),
                1 => {
                    // xbar bucketing over a long column.
                    let longs = spec.nums_of(NumKind::Long);
                    match longs.first() {
                        Some(l) => format!("100 xbar {l}"),
                        None => spec.sym_col.clone(),
                    }
                }
                _ => spec.sym_col.clone(),
            });
            if rng.gen_range(0..3u32) == 0 {
                let extra = if bys[0] == spec.sym_col {
                    spec.date_col.clone()
                } else {
                    spec.sym_col.clone()
                };
                if !bys.contains(&extra) {
                    bys.push(extra);
                }
            }
        }
        let nw = rng.gen_range(0..=1u32) as usize;
        let wheres = self.wheres(rng, spec, nw);
        if has_null_literal(&wheres) {
            cov.null_logic += 1;
        }
        Select { kind: SelectKind::Select, projections, bys, wheres, source: spec.name.clone() }
    }

    /// A select with ordcol-sensitive projections.
    fn ordcol_select(&mut self, rng: &mut StdRng, spec: &TableSpec) -> Select {
        let (col, _) = &spec.num_cols[rng.gen_range(0..spec.num_cols.len())];
        let f = ["prev", "next", "deltas"][rng.gen_range(0..3usize)];
        let projections = vec![
            Proj { alias: None, expr: col.clone() },
            Proj { alias: Some("o".into()), expr: format!("{f} {col}") },
        ];
        let nw = rng.gen_range(0..=1u32) as usize;
        Select {
            kind: SelectKind::Select,
            projections,
            bys: Vec::new(),
            wheres: self.wheres(rng, spec, nw),
            source: spec.name.clone(),
        }
    }

    /// `first/last by` — the open/close idiom.
    fn first_last_by(&mut self, rng: &mut StdRng, spec: &TableSpec) -> Select {
        let (col, _) = &spec.num_cols[rng.gen_range(0..spec.num_cols.len())];
        Select {
            kind: SelectKind::Select,
            projections: vec![
                Proj { alias: Some("open".into()), expr: format!("first {col}") },
                Proj { alias: Some("close".into()), expr: format!("last {col}") },
            ],
            bys: vec![spec.sym_col.clone()],
            wheres: Vec::new(),
            source: spec.name.clone(),
        }
    }

    /// `aj` over the main and auxiliary tables. One draw decides the
    /// variant: both sides pinned to one date (the paper's Example 1), a
    /// `Date` key in front of the symbol (two-column equality prefix),
    /// and, per side, as-of values made to repeat or to go missing by
    /// reading the side through an `update` over part of its rows. Its
    /// three high bits make a quarter of the joins a select with items
    /// over `aj`, and a quarter one over `ej` against the lookup table,
    /// the sides read whole. The low six bits are the draw's value modulo
    /// 64, so the other joins, and every later draw, are as they were
    /// before the high bits existed.
    fn asof_join(&mut self, rng: &mut StdRng, ds: &Dataset, cov: &mut Coverage) -> GenStmt {
        let variant = rng.gen_range(0..512u32);
        let flag = |bit: u32| variant >> bit & 1 == 1;
        let (pin_date, date_key) = (!flag(0), flag(5));
        let (dup, null) = ([flag(1), flag(2)], [flag(3), flag(4)]);
        let (wrapped, equi, grouped) = (flag(6), flag(6) && flag(7), flag(8));
        if !equi {
            cov.aj += 1;
            cov.aj_two_keys += usize::from(date_key);
            cov.aj_duplicates += usize::from(dup[0] || dup[1]);
            cov.aj_nulls += usize::from(null[0] || null[1]);
        }

        let mut cols = vec![ds.main.sym_col.clone(), ds.main.time_col.clone()];
        if date_key {
            cols.insert(0, ds.main.date_col.clone());
        }
        let side = |spec: &TableSpec, values: Vec<String>, right: usize| {
            // Thresholds on the side's first numeric column: the upper
            // part of its rows share one as-of value, the lower part
            // loses it. A missing as-of value on the right takes the
            // row's values with it: q's binary search can land on such a
            // row where the translation's validity intervals match none,
            // and a row of nulls reads the same either way.
            let (by, kind) = &spec.num_cols[0];
            let (low, high) = match kind {
                NumKind::Float => ("40.0", "150.0"),
                NumKind::Long => ("150", "600"),
            };
            let time = &spec.time_col;
            let mut source = spec.name.clone();
            if dup[right] {
                source = format!("(update {time}: 12:00:00.000 from {source} where {by}>{high})");
            }
            if null[right] {
                let mut nulled = vec![format!("{time}: 0Nt")];
                if right == 1 {
                    nulled.extend(spec.num_cols.iter().map(|(n, kind)| match kind {
                        NumKind::Float => format!("{n}: 0n"),
                        NumKind::Long => format!("{n}: 0N"),
                    }));
                }
                source = format!("(update {} from {source} where {by}<{low})", nulled.join(", "));
            }
            let wheres = match pin_date {
                true => vec![format!(
                    "{}={}",
                    spec.date_col,
                    crate::corpus::date_literal(ds.main.dates[0])
                )],
                false => Vec::new(),
            };
            Select {
                kind: SelectKind::Select,
                projections: cols
                    .iter()
                    .cloned()
                    .chain(values)
                    .map(|c| Proj { alias: None, expr: c })
                    .collect(),
                bys: Vec::new(),
                wheres,
                source,
            }
        };
        let left = side(&ds.main, vec![ds.main.num_cols[0].0.clone()], 0);
        let right = side(&ds.aux, ds.aux.num_cols.iter().map(|(n, _)| n.clone()).collect(), 1);
        if !wrapped {
            return GenStmt::AsOf { cols, left, right };
        }
        cov.join_selects += 1;
        let (main, aux, refdata) = (&ds.main, &ds.aux, &ds.refdata);
        let source = match equi {
            true => format!("ej[`{}; {}; {}]", main.sym_col, left.source, refdata.name),
            false => format!("aj[{}; {}; {}]", sym_list(&cols), left.source, right.source),
        };
        let plain = |expr: &String| Proj { alias: None, expr: expr.clone() };
        let named = |alias: &str, expr: String| Proj { alias: Some(alias.into()), expr };
        let (projections, bys) = match (equi, grouped) {
            (false, false) => {
                let mut items = vec![plain(&main.time_col), plain(&main.num_cols[0].0)];
                items.extend(aux.num_cols.iter().map(|(n, _)| plain(n)));
                (items, Vec::new())
            }
            (false, true) => (
                vec![
                    named("n", "count i".into()),
                    named("s", format!("sum {}", aux.num_cols[0].0)),
                ],
                vec![main.sym_col.clone()],
            ),
            (true, false) => (
                [&main.sym_col, &main.num_cols[0].0, &refdata.sym_val_col, &refdata.long_val_col]
                    .into_iter()
                    .map(plain)
                    .collect(),
                Vec::new(),
            ),
            (true, true) => (
                vec![
                    named("n", "count i".into()),
                    named("s", format!("sum {}", refdata.long_val_col)),
                ],
                vec![refdata.sym_val_col.clone()],
            ),
        };
        GenStmt::Sel(Select {
            kind: SelectKind::Select,
            projections,
            bys,
            wheres: left.wheres,
            source,
        })
    }

    fn lookup_join(
        &mut self,
        rng: &mut StdRng,
        ds: &Dataset,
        ij: bool,
        cov: &mut Coverage,
    ) -> GenStmt {
        let join = format!(
            "{} {} 1!{}",
            ds.main.name,
            if ij { "ij" } else { "lj" },
            ds.refdata.name
        );
        if rng.gen_range(0..2u32) == 0 {
            // Aggregate over the joined attribute, oracle style.
            cov.by_aggs += 1;
            GenStmt::Sel(Select {
                kind: SelectKind::Select,
                projections: vec![Proj {
                    alias: Some("mx".into()),
                    expr: format!("max {}", ds.main.num_cols[0].0),
                }],
                bys: vec![ds.refdata.sym_val_col.clone()],
                wheres: Vec::new(),
                source: join,
            })
        } else {
            GenStmt::Raw(join)
        }
    }

    fn union_join(&mut self, rng: &mut StdRng, ds: &Dataset) -> GenStmt {
        let spec = &ds.main;
        let longs = spec.nums_of(NumKind::Long);
        let (lo, hi) = (rng.gen_range(0..400i64), rng.gen_range(500..1000i64));
        let split = longs.first().map(|l| l.to_string());
        let mk = |projcols: Vec<String>, w: Vec<String>| Select {
            kind: SelectKind::Select,
            projections: projcols.into_iter().map(|c| Proj { alias: None, expr: c }).collect(),
            bys: Vec::new(),
            wheres: w,
            source: spec.name.clone(),
        };
        let base = vec![spec.sym_col.clone(), spec.num_cols[0].0.clone()];
        let mut wider = base.clone();
        if let Some(l) = &split {
            wider.push(l.clone());
        }
        let (lw, rw) = match &split {
            Some(l) => (vec![format!("{l}>{hi}")], vec![format!("{l}<{lo}")]),
            None => (Vec::new(), Vec::new()),
        };
        // Oracle style: the two sides may have differing column sets.
        let same_shape = rng.gen_range(0..2u32) == 0;
        let left = mk(base.clone(), lw);
        let right = mk(if same_shape { base } else { wider }, rw);
        GenStmt::Union { left, right }
    }

    fn update_stmt(&mut self, rng: &mut StdRng, spec: &TableSpec, cov: &mut Coverage) -> Select {
        let (col, kind) = &spec.num_cols[rng.gen_range(0..spec.num_cols.len())];
        let val = match (kind, rng.gen_range(0..3u32)) {
            (_, 0) => {
                cov.null_logic += 1;
                match kind {
                    NumKind::Float => "0n".to_string(),
                    NumKind::Long => "0N".to_string(),
                }
            }
            (NumKind::Float, _) => format!("{:.1}", rng.gen_range(1.0..100.0)),
            (NumKind::Long, _) => rng.gen_range(0i64..500).to_string(),
        };
        Select {
            kind: SelectKind::Update,
            projections: vec![Proj { alias: Some(col.clone()), expr: val }],
            bys: Vec::new(),
            wheres: self.wheres(rng, spec, 1),
            source: spec.name.clone(),
        }
    }

    /// Random aggregate expression over `spec`'s columns.
    fn agg_expr(&mut self, rng: &mut StdRng, spec: &TableSpec) -> String {
        let floats = spec.nums_of(NumKind::Float);
        let longs = spec.nums_of(NumKind::Long);
        match rng.gen_range(0..8u32) {
            0 => "count i".to_string(),
            1 => {
                // Q count of a column is length (counts nulls) — the
                // PR-3 bug family.
                let all: Vec<&str> =
                    floats.iter().chain(longs.iter()).copied().collect();
                format!("count {}", all[rng.gen_range(0..all.len())])
            }
            2 if !floats.is_empty() && !longs.is_empty() => {
                // vwap: (sum F*L) % sum L
                format!("(sum {f}*{l}) % sum {l}", f = floats[0], l = longs[0])
            }
            n => {
                let agg = ["max", "min", "sum", "avg", "first", "last"]
                    [(n as usize + rng.gen_range(0..6usize)) % 6];
                let all: Vec<&str> =
                    floats.iter().chain(longs.iter()).copied().collect();
                format!("{agg} {}", all[rng.gen_range(0..all.len())])
            }
        }
    }

    /// Random arithmetic projection expression.
    fn arith_expr(&mut self, rng: &mut StdRng, spec: &TableSpec) -> String {
        let floats = spec.nums_of(NumKind::Float);
        let longs = spec.nums_of(NumKind::Long);
        let all: Vec<&str> = floats.iter().chain(longs.iter()).copied().collect();
        let a = all[rng.gen_range(0..all.len())];
        let b = all[rng.gen_range(0..all.len())];
        let op = ["*", "+", "-"][rng.gen_range(0..3usize)];
        format!("{a}{op}{b}")
    }

    /// `n` random well-typed where-conjuncts over `spec`.
    fn wheres(&mut self, rng: &mut StdRng, spec: &TableSpec, n: usize) -> Vec<String> {
        let mut out = Vec::new();
        let floats = spec.nums_of(NumKind::Float);
        let longs = spec.nums_of(NumKind::Long);
        for _ in 0..n {
            out.push(match rng.gen_range(0..8u32) {
                0 => {
                    // Symbol equality — sometimes a symbol outside the
                    // universe (empty result path).
                    let s = if rng.gen_range(0..5u32) == 0 {
                        "ZZZ".to_string()
                    } else {
                        spec.universe[rng.gen_range(0..spec.universe.len())].clone()
                    };
                    format!("{}=`{s}", spec.sym_col)
                }
                1 => {
                    let k = rng.gen_range(1..=spec.universe.len());
                    let syms: String =
                        spec.universe[..k].iter().map(|s| format!("`{s}")).collect();
                    format!("{} in {syms}", spec.sym_col)
                }
                2 => {
                    let d = spec.dates[rng.gen_range(0..spec.dates.len())];
                    format!("{}={}", spec.date_col, crate::corpus::date_literal(d))
                }
                3 if !floats.is_empty() => {
                    let f = floats[rng.gen_range(0..floats.len())];
                    let (lo, hi) =
                        (rng.gen_range(0.0..100.0), rng.gen_range(100.0..260.0));
                    format!("{f} within {lo:.1} {hi:.1}")
                }
                4 if !longs.is_empty() => {
                    // Null comparison: two-valued logic on typed nulls.
                    format!("{}=0N", longs[rng.gen_range(0..longs.len())])
                }
                5 if floats.len() >= 2 => {
                    format!("{}>{}", floats[0], floats[1])
                }
                _ => {
                    // Numeric threshold.
                    if !longs.is_empty() && rng.gen_range(0..2u32) == 0 {
                        let l = longs[rng.gen_range(0..longs.len())];
                        let op = [">", "<", ">=", "<="][rng.gen_range(0..4usize)];
                        format!("{l}{op}{}", rng.gen_range(0i64..1000))
                    } else if !floats.is_empty() {
                        let f = floats[rng.gen_range(0..floats.len())];
                        let op = [">", "<"][rng.gen_range(0..2usize)];
                        format!("{f}{op}{:.2}", rng.gen_range(0.0..250.0))
                    } else {
                        format!("{}=`{}", spec.sym_col, spec.universe[0])
                    }
                }
            });
        }
        out
    }
}

fn has_null_literal(wheres: &[String]) -> bool {
    wheres.iter().any(|w| w.contains("=0N"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::gen_dataset;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn programs_are_deterministic_per_seed() {
        let render = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = gen_dataset(&mut rng);
            let mut g = ProgramGen::new();
            let mut cov = Coverage::default();
            (0..10).flat_map(|_| g.gen_program(&mut rng, &ds, &mut cov).render()).collect::<Vec<_>>()
        };
        assert_eq!(render(11), render(11));
        assert_ne!(render(11), render(12), "different seeds must differ");
    }

    #[test]
    fn coverage_spans_all_families_over_many_programs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = ProgramGen::new();
        let mut cov = Coverage::default();
        for _ in 0..40 {
            let ds = gen_dataset(&mut rng);
            for _ in 0..5 {
                g.gen_program(&mut rng, &ds, &mut cov);
            }
        }
        for (family, count) in cov.families() {
            assert!(count > 0, "family {family} never generated");
        }
    }

    #[test]
    fn generated_statements_parse() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = ProgramGen::new();
        let mut cov = Coverage::default();
        for _ in 0..30 {
            let ds = gen_dataset(&mut rng);
            let p = g.gen_program(&mut rng, &ds, &mut cov);
            for s in p.render() {
                qlang::parse(&s).unwrap_or_else(|e| panic!("generated {s:?} fails to parse: {e}"));
            }
        }
    }

    #[test]
    fn shrink_candidates_are_structurally_smaller_or_equal() {
        let mut rng = StdRng::seed_from_u64(9);
        let ds = gen_dataset(&mut rng);
        let mut g = ProgramGen::new();
        let mut cov = Coverage::default();
        let p = g.gen_program(&mut rng, &ds, &mut cov);
        for s in &p.stmts {
            let len = s.render().len();
            for c in s.shrink_candidates() {
                assert!(c.render().len() <= len + 8, "{} -> {}", s.render(), c.render());
            }
        }
    }

    #[test]
    fn first_last_by_renders_the_open_close_idiom() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = gen_dataset(&mut rng);
        let mut g = ProgramGen::new();
        let s = g.first_last_by(&mut rng, &ds.main);
        let r = s.render();
        assert!(r.contains("first") && r.contains("last") && r.contains(" by "), "{r}");
    }
}
