//! The shard planner: a pure function from (parsed statement, placement
//! catalog, knobs) to a typed [`ShardPlan`].
//!
//! Everything the router decides is decided *here*, with no access to
//! the cluster: the planner consumes a catalog snapshot and emits a plan
//! carrying a machine-readable `reason` string. Plans are inspectable
//! three ways — `EXPLAIN SHARD <stmt>` renders them as rows
//! ([`explain_statement`]), every routed select increments
//! `shard_plan_total{kind,reason}` ([`record_plan`]), and the pure
//! surface is unit-tested statement family by statement family
//! (`tests/shard_planner.rs`).
//!
//! [`plan_select`] is one rule. A statement naming a table outside the
//! shard catalog (temp table, CTAS product, unknown name) runs where
//! that table lives, on the coordinator (`Local`); one over replicated
//! tables only reads any copy (`Broadcast`). Every other statement is
//! over shard-managed inputs with at least one partitioned: it is
//! either *decomposed* into per-shard statements plus a merge
//! (`Scatter`, `ShardLocal`, `TwoPhaseAgg`), or, when a decomposition
//! obligation fails, *gathered* (`Gather`), with the failed obligation
//! as its reason. Both are exact; neither runs on the coordinator's copy.
//!
//! Join planning proves *co-location* along the outer FROM's left
//! spine: the leftmost leaf must be a partitioned base table (or a
//! plain scan of one), every broadcast right leg is identical per shard,
//! and a partitioned right leg is admitted only when a top-level ON
//! conjunct equates its partition key with an already-established
//! partition key of the same type family (`=` or `IS NOT DISTINCT
//! FROM`; NULL keys co-locate on shard 0 by construction). Float keys
//! never establish co-location: NaN payloads and ±0.0 hash by
//! representation but compare by value. Proven keys chain, so
//! `a JOIN b ON a.k = b.k JOIN c ON b.k = c.k` plans shard-local.
//!
//! A gather ships only what the statement can observe of each input
//! ([`GatherTable`]): the catalog columns some expression names (all of
//! them under a `SELECT *`), and — when every occurrence of the table
//! is a select's whole FROM under a WHERE whose conjuncts name only its
//! columns and cannot raise (pgdb's `exec::infallible`) — only the rows
//! one of those WHEREs keeps. A conjunct that can raise is evaluated
//! for every row on a single node and its error may name the first row
//! that raised it; each shard would name its own first row, so a WHERE
//! holding one never moves.
//!
//! Placement follows what the router routes ([`decide_placement`]): a
//! table stays broadcast while it is small, or while it has routed fewer
//! distinct partition keys than there are shards (hash-partitioning such
//! a table would leave shards empty while still paying the fan-out); it
//! hash-partitions otherwise.

use super::{Mode, ShardOpts, TableMeta, ORD, PARTIALS, RESERVED};
use super::merge::{AggSpec, ScanSpec};
use pgdb::exec::expr::{derive_type, BoundCol};
use pgdb::sql::ast::{
    is_aggregate_name, FromItem, JoinType, SelectItem, SelectStmt, SqlBinOp, SqlExpr, Stmt,
};
use pgdb::sql::render;
use pgdb::{Batch, Cell, Column, PgType};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Plan taxonomy
// ---------------------------------------------------------------------------

/// A typed routing decision. Every variant carries a stable,
/// machine-readable reason string (surfaced via `EXPLAIN SHARD` and the
/// `shard_plan_total{kind,reason}` metric).
#[derive(Debug, Clone)]
pub enum ShardPlan {
    /// A table the statement names lives on the coordinator alone
    /// (temp table, CTAS product, unknown name), or it names no table:
    /// run on the coordinator.
    Local {
        /// Why the statement is coordinator-local.
        reason: &'static str,
    },
    /// Only broadcast/undecided tables involved: every node holds the
    /// full inputs, so the coordinator's answer is the cluster's answer.
    Broadcast {
        /// Why broadcast execution is exact.
        reason: &'static str,
    },
    /// Provably shard-safe scatter over one partitioned table (plus
    /// broadcast legs): same SQL per shard, k-way ordered merge.
    Scatter {
        /// The merge specification.
        spec: ScanSpec,
        /// Why the scatter is exact.
        reason: &'static str,
    },
    /// A join between partitioned tables proven co-located on the
    /// partition key: executes exactly like a scatter, but the proof is
    /// the interesting part.
    ShardLocal {
        /// The merge specification.
        spec: ScanSpec,
        /// Which proof admitted the join.
        reason: &'static str,
    },
    /// Distributive aggregation: per-shard partials re-folded on a
    /// scratch engine instance.
    TwoPhaseAgg {
        /// The partial/merge specification.
        spec: Box<AggSpec>,
        /// Why the re-fold is exact.
        reason: &'static str,
    },
    /// A statement over shard-managed inputs that no decomposition
    /// proves (windows, set ops, subquery predicates, OFFSET, unproven
    /// joins, float or non-distributive aggregates, ...): scan each input
    /// on the shards for the rows and columns the statement can observe,
    /// rebuild them in single-node scan order (ordinal merge), and
    /// evaluate the whole statement over them on a scratch engine — the
    /// MPP "gather motion". Exact for any statement.
    Gather {
        /// Every table to gather, with its reconstruction recipe.
        tables: Vec<GatherTable>,
        /// The first decomposition obligation that failed.
        reason: &'static str,
    },
}

/// One input table of a [`ShardPlan::Gather`]: enough catalog knowledge
/// to rebuild every row and column of the table the statement can
/// observe, in single-node scan order, from shard fragments.
#[derive(Debug, Clone)]
pub struct GatherTable {
    /// Table name.
    pub name: String,
    /// The columns the statement can reference, in catalog order (the
    /// hidden ordinal is not part of this).
    pub cols: Vec<(String, PgType)>,
    /// Partitioned tables are scattered and ordinal-merged; replicated
    /// ones are read off a single shard.
    pub partitioned: bool,
    /// Rows outside it are invisible to every occurrence of the table:
    /// the OR of their WHEREs, qualifiers stripped. `None` ships every
    /// row.
    pub filter: Option<SqlExpr>,
    /// Why `filter` is or is not set (`GF_*`).
    pub filter_outcome: &'static str,
}

impl ShardPlan {
    /// Stable plan-kind label (`shard_plan_total{kind=...}`).
    pub fn kind(&self) -> &'static str {
        match self {
            ShardPlan::Local { .. } => "local",
            ShardPlan::Broadcast { .. } => "broadcast",
            ShardPlan::Scatter { .. } => "scatter",
            ShardPlan::ShardLocal { .. } => "shard_local",
            ShardPlan::TwoPhaseAgg { .. } => "two_phase_agg",
            ShardPlan::Gather { .. } => "gather",
        }
    }

    /// The plan's reason string.
    pub fn reason(&self) -> &'static str {
        match self {
            ShardPlan::Local { reason }
            | ShardPlan::Broadcast { reason }
            | ShardPlan::Scatter { reason, .. }
            | ShardPlan::ShardLocal { reason, .. }
            | ShardPlan::TwoPhaseAgg { reason, .. }
            | ShardPlan::Gather { reason, .. } => reason,
        }
    }
}

// Decomposition failures: the first obligation a statement over
// shard-managed inputs could not meet, and so the reason it gathers.
// Stable strings: tests and dashboards key on them.
/// A SELECT names a column or alias in the router-internal `__hq_`
/// namespace, which the per-shard rewrite would collide with.
pub const FB_RESERVED: &str = "reserved_identifier";
/// UNION/INTERSECT/EXCEPT chains are not decomposed.
pub const FB_SET_OP: &str = "set_operation";
/// Window functions see cross-shard frames.
pub const FB_WINDOW: &str = "window_function";
/// IN (SELECT ...) predicates would need a cross-shard build side.
pub const FB_SUBQUERY: &str = "subquery_predicate";
/// DISTINCT aggregates do not decompose into partials.
pub const FB_DISTINCT_AGG: &str = "distinct_aggregate";
/// OFFSET counts rows globally; shards cannot skip locally.
pub const FB_OFFSET: &str = "offset_scan";
/// `SELECT *` over a shape the planner cannot expand from the catalog.
pub const FB_WILDCARD: &str = "wildcard_shape";
/// An ORDER BY expression could capture an output alias.
pub const FB_ORDER_ALIAS: &str = "order_by_alias_capture";
/// A partitioned right join leg without a provable co-location conjunct
/// (missing/mismatched keys, float keys, cross join, keyless table).
pub const FB_JOIN_KEYS: &str = "join_keys_mismatch";
/// A right join leg that is neither a base table nor broadcast-safe.
pub const FB_JOIN_SHAPE: &str = "join_shape";
/// A partitioned table in a position the spine cannot prove (nested
/// subquery, VALUES leaf, not on the outer FROM's left spine).
pub const FB_LEAF_SHAPE: &str = "partitioned_leaf_shape";
/// An aggregate expression shape that does not decompose.
pub const FB_AGG_SHAPE: &str = "aggregate_shape";
/// Aggregation over a FROM shape whose leg columns cannot be enumerated.
pub const FB_AGG_JOIN: &str = "aggregate_join_shape";
/// An aggregate inside GROUP BY.
pub const FB_AGG_GROUP_KEY: &str = "aggregate_group_key";
/// Float sum/avg/min/max without `HQ_SHARD_FLOAT_AGG=1`.
pub const FB_FLOAT_AGG: &str = "float_aggregate";
/// An unqualified column resolvable against more than one join leg.
pub const FB_AMBIGUOUS: &str = "ambiguous_column";
/// An aggregate with no distributive decomposition (median, hq_first...).
pub const FB_NONDISTRIBUTIVE: &str = "nondistributive_aggregate";

// Gather filter outcomes (`shard_gather_filter_total{outcome}`), one per
// gathered table. Stable strings.
/// Every occurrence's WHERE is pushed into the shard scans.
pub const GF_PUSHED: &str = "pushed";
/// Some occurrence is a join leg, or its select has no WHERE.
pub const GF_UNFILTERED: &str = "unfiltered_occurrence";
/// Some occurrence's WHERE has a conjunct that can raise: it must see
/// every row.
pub const GF_FALLIBLE: &str = "fallible_conjunct";
/// Some occurrence's WHERE names a column the table does not have, or
/// qualifies one by another name.
pub const GF_FOREIGN: &str = "foreign_column";

// Positive-plan reasons.
/// The statement names no table.
pub const OK_LOCAL: &str = "no_shard_tables";
/// A table the statement names is outside the shard catalog, so only
/// the coordinator holds it (temp table, CTAS product, unknown name).
pub const OK_COORD_TABLE: &str = "coordinator_table";
/// Every referenced table is replicated (broadcast/undecided).
pub const OK_REPLICATED: &str = "replicated_tables";
/// Single-table scatter over the partitioned table.
pub const OK_SCAN: &str = "partitioned_scan";
/// Partitioned probe side joined only against broadcast legs.
pub const OK_BROADCAST_JOIN: &str = "broadcast_join";
/// Partitioned legs proven co-located on their partition keys.
pub const OK_CO_PART: &str = "co_partitioned_join";
/// Distributive aggregate over a single partitioned leaf.
pub const OK_AGG: &str = "distributive_aggregate";
/// Distributive aggregate over a proven shard-local join.
pub const OK_AGG_JOIN: &str = "distributive_aggregate_join";

/// Record a planning decision in `shard_plan_total{kind,reason}`.
pub fn record_plan(kind: &str, reason: &str) {
    obs::global_registry()
        .counter(&format!("shard_plan_total{{kind=\"{kind}\",reason=\"{reason}\"}}"))
        .inc();
}

// ---------------------------------------------------------------------------
// Placement policy
// ---------------------------------------------------------------------------

/// A broadcast-vs-partitioned placement decision with its reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The chosen layout.
    pub mode: Mode,
    /// Why (`small_table`, `low_key_cardinality`, `over_threshold`).
    pub reason: &'static str,
}

/// Decide placement from the rows and partition keys the router has
/// routed. Small tables broadcast (joins against them stay shard-local
/// for free). Past the row threshold, a table whose partition key has
/// fewer distinct values than there are shards *stays* broadcast while
/// it remains moderately sized (hash-partitioning it would leave most
/// shards empty yet still pay the fan-out). Everything else
/// hash-partitions. `key_distinct` is `None` for a keyless table.
pub fn decide_placement(
    rows: u64,
    key_distinct: Option<u64>,
    nshards: usize,
    opts: &ShardOpts,
) -> Placement {
    if rows <= opts.broadcast_threshold {
        return Placement { mode: Mode::Broadcast, reason: "small_table" };
    }
    if let Some(d) = key_distinct {
        if d < nshards as u64 && rows <= opts.broadcast_threshold.saturating_mul(4) {
            return Placement { mode: Mode::Broadcast, reason: "low_key_cardinality" };
        }
    }
    Placement { mode: Mode::Partitioned, reason: "over_threshold" }
}

// ---------------------------------------------------------------------------
// Statement analysis
// ---------------------------------------------------------------------------

/// What a select tree contains, gathered in one walk.
#[derive(Default)]
struct SelectScan<'s> {
    tables: Vec<String>,
    set_op: bool,
    windows: bool,
    subqueries: bool,
    distinct_agg: bool,
    /// Some column name, qualifier or alias starts with `__hq_`.
    reserved: bool,
    /// Every column name an expression mentions, whatever its qualifier.
    names: HashSet<&'s str>,
    /// Tables that are a FROM leaf (through joins) of a `SELECT *`.
    starred: HashSet<&'s str>,
    /// Each table that is a FROM leaf (through joins) of a select, with
    /// that select, in walk order.
    occurrences: Vec<(&'s str, &'s SelectStmt)>,
}

impl SelectScan<'_> {
    /// Note a name the statement uses: the router-internal prefix is
    /// reserved.
    fn reserve(&mut self, name: Option<&str>) {
        self.reserved |= name.is_some_and(|n| n.starts_with(RESERVED));
    }
}

fn scan_select<'s>(s: &'s SelectStmt, out: &mut SelectScan<'s>) {
    let mut star = false;
    for item in &s.items {
        match item {
            SelectItem::Wildcard => star = true,
            SelectItem::Expr { expr, alias } => {
                out.reserve(alias.as_deref());
                scan_expr(expr, out);
            }
        }
    }
    if let Some(f) = &s.from {
        scan_from(f, out);
        let mut leaves = Vec::new();
        from_leaves(f, &mut leaves);
        for t in leaves {
            if star {
                out.starred.insert(t);
            }
            out.occurrences.push((t, s));
        }
    }
    for e in s
        .where_clause
        .iter()
        .chain(s.group_by.iter())
        .chain(s.having.iter())
        .chain(s.order_by.iter().map(|(e, _)| e))
    {
        scan_expr(e, out);
    }
    if let Some((_, rest)) = &s.set_op {
        out.set_op = true;
        scan_select(rest, out);
    }
}

/// The base tables a FROM item reads directly: through joins, not into
/// subqueries.
fn from_leaves<'s>(f: &'s FromItem, out: &mut Vec<&'s str>) {
    match f {
        FromItem::Table { name, .. } => out.push(name),
        FromItem::Join { left, right, .. } => {
            from_leaves(left, out);
            from_leaves(right, out);
        }
        FromItem::Subquery { .. } | FromItem::Values { .. } => {}
    }
}

fn scan_from<'s>(f: &'s FromItem, out: &mut SelectScan<'s>) {
    match f {
        FromItem::Table { name, alias } => {
            out.reserve(alias.as_deref());
            out.tables.push(name.clone());
        }
        FromItem::Subquery { query, alias } => {
            out.reserve(Some(alias));
            scan_select(query, out);
        }
        FromItem::Values { rows, alias, columns } => {
            out.reserve(Some(alias));
            for c in columns {
                out.reserve(Some(c));
            }
            for row in rows {
                for e in row {
                    scan_expr(e, out);
                }
            }
        }
        FromItem::Join { left, right, on, .. } => {
            scan_from(left, out);
            scan_from(right, out);
            if let Some(e) = on {
                scan_expr(e, out);
            }
        }
    }
}

fn scan_expr<'s>(e: &'s SqlExpr, out: &mut SelectScan<'s>) {
    match e {
        SqlExpr::Column { qualifier, name } => {
            out.reserve(qualifier.as_deref());
            out.reserve(Some(name));
            out.names.insert(name);
        }
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Binary { lhs, rhs, .. } => {
            scan_expr(lhs, out);
            scan_expr(rhs, out);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => scan_expr(x, out),
        SqlExpr::Func { name, args, distinct } => {
            if *distinct && is_aggregate_name(name) {
                out.distinct_agg = true;
            }
            for a in args {
                scan_expr(a, out);
            }
        }
        SqlExpr::WindowFunc { args, partition_by, order_by, .. } => {
            out.windows = true;
            for a in args.iter().chain(partition_by.iter()) {
                scan_expr(a, out);
            }
            for (a, _) in order_by {
                scan_expr(a, out);
            }
        }
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                scan_expr(c, out);
                scan_expr(r, out);
            }
            if let Some(x) = else_result {
                scan_expr(x, out);
            }
        }
        SqlExpr::Cast { expr, .. } => scan_expr(expr, out),
        SqlExpr::InList { expr, list, .. } => {
            scan_expr(expr, out);
            for x in list {
                scan_expr(x, out);
            }
        }
        SqlExpr::IsNull { expr, .. } => scan_expr(expr, out),
        SqlExpr::InSubquery { expr, query, .. } => {
            out.subqueries = true;
            scan_expr(expr, out);
            scan_select(query, out);
        }
    }
}

/// Output column name the engine would assign (mirrors the executor's
/// `default_output_name`).
fn out_name(item: &SelectItem, i: usize) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            SqlExpr::Column { name, .. } => name.clone(),
            SqlExpr::Func { name, .. } | SqlExpr::WindowFunc { name, .. } => name.clone(),
            _ => format!("column{}", i + 1),
        }),
    }
}

pub(crate) fn col(name: &str) -> SqlExpr {
    SqlExpr::Column { qualifier: None, name: name.to_string() }
}

fn qcol(qualifier: &str, name: &str) -> SqlExpr {
    SqlExpr::Column { qualifier: Some(qualifier.to_string()), name: name.to_string() }
}

fn agg(name: &str, arg: SqlExpr) -> SqlExpr {
    SqlExpr::Func { name: name.to_string(), args: vec![arg], distinct: false }
}

pub(crate) fn item(expr: SqlExpr, alias: &str) -> SelectItem {
    SelectItem::Expr { expr, alias: Some(alias.to_string()) }
}

/// Is this select in aggregate context (grouped or scalar aggregation)?
fn is_agg_context(s: &SelectStmt) -> bool {
    !s.group_by.is_empty()
        || s.having.is_some()
        || s.items.iter().any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || s.order_by.iter().any(|(e, _)| e.contains_aggregate())
}

/// Is `f` (a FROM subtree that is *not* the partitioned spine) identical
/// on every shard? True when every base table under it is broadcast (or
/// still empty/undecided).
fn broadcast_safe(f: &FromItem, cat: &HashMap<String, TableMeta>) -> bool {
    let mut scan = SelectScan::default();
    scan_from(f, &mut scan);
    scan.tables.iter().all(|t| {
        matches!(cat.get(t.as_str()), Some(m) if m.mode != Mode::Partitioned)
    })
}

/// Is `q` a plain per-row scan of partitioned table `p` (safe to use as
/// a partitioned FROM leaf, with the ordinal threaded through)?
fn plain_scan_of(q: &SelectStmt, p: &str) -> bool {
    matches!(&q.from, Some(FromItem::Table { name, .. }) if name == p)
        && q.group_by.is_empty()
        && q.having.is_none()
        && q.order_by.is_empty()
        && q.limit.is_none()
        && q.offset.is_none()
        && q.set_op.is_none()
        && q.items.iter().all(|i| {
            matches!(i, SelectItem::Expr { expr, .. } if !expr.contains_aggregate())
        })
}

// ---------------------------------------------------------------------------
// Join-spine resolution
// ---------------------------------------------------------------------------

/// Hashable type family of a partition key. Co-location proofs require
/// both keys in the same family: `hash_cell` is representation-based,
/// so cross-family equality (`1 = 1.0`) does not imply equal hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Bool,
    Int,
    Float,
    Text,
    Date,
    Time,
    Timestamp,
}

fn family(t: PgType) -> Family {
    match t {
        PgType::Bool => Family::Bool,
        PgType::Int2 | PgType::Int4 | PgType::Int8 => Family::Int,
        PgType::Float4 | PgType::Float8 => Family::Float,
        PgType::Date => Family::Date,
        PgType::Time => Family::Time,
        PgType::Timestamp => Family::Timestamp,
        _ => Family::Text,
    }
}

/// Outcome of walking the outer FROM's left spine.
struct Spine {
    /// Leftmost-leaf partitioned table: the ordinal anchor.
    anchor: Option<String>,
    /// Established co-located partition keys: (leg alias, column, family).
    established: Vec<(String, String, Family)>,
    /// Bare catalog-registered legs in scope: (alias, table).
    legs: Vec<(String, String)>,
    /// Some leg's columns cannot be enumerated (subquery/VALUES/unknown
    /// table): unqualified references stop being provably resolvable.
    opaque: bool,
    /// Partitioned-table occurrences the spine accounts for.
    resolved: usize,
    /// Right legs proven co-partitioned with the anchor.
    co_partitioned: usize,
    /// Whether any join appears at all.
    joined: bool,
    /// Every FROM leg is a bare catalog-registered base table.
    all_base: bool,
}

fn resolve_spine(
    f: &FromItem,
    cat: &HashMap<String, TableMeta>,
) -> Result<Spine, &'static str> {
    let mut sp = Spine {
        anchor: None,
        established: Vec::new(),
        legs: Vec::new(),
        opaque: false,
        resolved: 0,
        co_partitioned: 0,
        joined: false,
        all_base: true,
    };
    walk_spine(f, cat, &mut sp)?;
    Ok(sp)
}

fn walk_spine(
    f: &FromItem,
    cat: &HashMap<String, TableMeta>,
    sp: &mut Spine,
) -> Result<(), &'static str> {
    if let FromItem::Join { kind, left, right, on } = f {
        sp.joined = true;
        walk_spine(left, cat, sp)?;
        return right_leg(right, *kind, on.as_ref(), cat, sp);
    }
    leftmost_leaf(f, cat, sp)
}

fn leftmost_leaf(
    f: &FromItem,
    cat: &HashMap<String, TableMeta>,
    sp: &mut Spine,
) -> Result<(), &'static str> {
    match f {
        FromItem::Table { name, alias } => {
            let a = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(m) = cat.get(name.as_str()).filter(|m| m.mode == Mode::Partitioned) {
                sp.anchor = Some(name.clone());
                sp.resolved += 1;
                if let Some((kn, kt)) = m.key.and_then(|k| m.cols.get(k)) {
                    let fam = family(*kt);
                    if fam != Family::Float {
                        sp.established.push((a.clone(), kn.clone(), fam));
                    }
                }
            }
            sp.legs.push((a, name.clone()));
            Ok(())
        }
        FromItem::Subquery { query, .. } => {
            sp.opaque = true;
            sp.all_base = false;
            if let Some(FromItem::Table { name, .. }) = &query.from {
                if matches!(cat.get(name.as_str()), Some(m) if m.mode == Mode::Partitioned)
                    && plain_scan_of(query, name)
                {
                    sp.anchor = Some(name.clone());
                    sp.resolved += 1;
                }
            }
            Ok(())
        }
        FromItem::Values { .. } => {
            sp.opaque = true;
            sp.all_base = false;
            Ok(())
        }
        FromItem::Join { .. } => unreachable!("joins are handled by walk_spine"),
    }
}

fn right_leg(
    f: &FromItem,
    kind: JoinType,
    on: Option<&SqlExpr>,
    cat: &HashMap<String, TableMeta>,
    sp: &mut Spine,
) -> Result<(), &'static str> {
    if let FromItem::Table { name, alias } = f {
        if let Some(m) = cat.get(name.as_str()).filter(|m| m.mode == Mode::Partitioned) {
            return co_partitioned_leg(name, alias.as_deref(), m, kind, on, cat, sp);
        }
        sp.legs.push((alias.clone().unwrap_or_else(|| name.clone()), name.clone()));
        return Ok(());
    }
    if broadcast_safe(f, cat) {
        // Identical per shard, but its output columns are not
        // enumerable from the catalog.
        sp.opaque = true;
        sp.all_base = false;
        return Ok(());
    }
    Err(FB_JOIN_SHAPE)
}

/// Admit a partitioned right leg by proving co-location: some top-level
/// ON conjunct must equate this leg's partition key with an established
/// partition key of the same family. Inner/Left only — the probe side
/// stays the spine, so per-shard result order is a subsequence of the
/// single-node order.
fn co_partitioned_leg(
    name: &str,
    alias: Option<&str>,
    m: &TableMeta,
    kind: JoinType,
    on: Option<&SqlExpr>,
    cat: &HashMap<String, TableMeta>,
    sp: &mut Spine,
) -> Result<(), &'static str> {
    if !matches!(kind, JoinType::Inner | JoinType::Left) {
        return Err(FB_JOIN_KEYS);
    }
    let a = alias.map(str::to_string).unwrap_or_else(|| name.to_string());
    let Some((kn, kt)) = m.key.and_then(|k| m.cols.get(k)).map(|(n, t)| (n.clone(), *t))
    else {
        // Keyless (round-robin) partitioned table: never co-located.
        return Err(FB_JOIN_KEYS);
    };
    let fam = family(kt);
    if fam == Family::Float {
        return Err(FB_JOIN_KEYS);
    }
    let Some(on) = on else { return Err(FB_JOIN_KEYS) };
    // Candidate legs for resolving conjunct sides: everything to the
    // left, plus this leg itself.
    let mut legs = sp.legs.clone();
    legs.push((a.clone(), name.to_string()));
    let mut proven = false;
    for c in conjuncts(on) {
        let SqlExpr::Binary { op, lhs, rhs } = c else { continue };
        if !matches!(op, SqlBinOp::Eq | SqlBinOp::IsNotDistinctFrom) {
            continue;
        }
        let (Some(l), Some(r)) = (
            resolve_side(lhs, &legs, sp.opaque, cat),
            resolve_side(rhs, &legs, sp.opaque, cat),
        ) else {
            continue;
        };
        for (x, y) in [(&l, &r), (&r, &l)] {
            if x.0 == a
                && x.1 == kn
                && sp
                    .established
                    .iter()
                    .any(|(ea, ek, ef)| *ea == y.0 && *ek == y.1 && *ef == fam)
            {
                proven = true;
            }
        }
    }
    if !proven {
        return Err(FB_JOIN_KEYS);
    }
    sp.established.push((a.clone(), kn, fam));
    sp.legs.push((a, name.to_string()));
    sp.resolved += 1;
    sp.co_partitioned += 1;
    Ok(())
}

/// Flatten a top-level AND chain into its conjuncts.
fn conjuncts(e: &SqlExpr) -> Vec<&SqlExpr> {
    fn go<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
        if let SqlExpr::Binary { op: SqlBinOp::And, lhs, rhs } = e {
            go(lhs, out);
            go(rhs, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    go(e, &mut out);
    out
}

/// Resolve a bare column reference to (leg alias, column name), or
/// `None` when it is not a bare column, unresolvable, or ambiguous.
/// With an opaque leg in scope, unqualified names never resolve — the
/// unenumerable leg could shadow them.
fn resolve_side(
    e: &SqlExpr,
    legs: &[(String, String)],
    opaque: bool,
    cat: &HashMap<String, TableMeta>,
) -> Option<(String, String)> {
    let SqlExpr::Column { qualifier, name } = e else { return None };
    let has = |table: &str| {
        cat.get(table).is_some_and(|m| m.cols.iter().any(|(n, _)| n == name))
    };
    match qualifier {
        Some(q) => {
            let (a, t) = legs.iter().find(|(a, _)| a == q)?;
            has(t).then(|| (a.clone(), name.clone()))
        }
        None => {
            if opaque {
                return None;
            }
            let mut hit: Option<(String, String)> = None;
            for (a, t) in legs {
                if has(t) {
                    if hit.is_some() {
                        return None; // ambiguous
                    }
                    hit = Some((a.clone(), name.clone()));
                }
            }
            hit
        }
    }
}

/// Append the hidden ordinal to the anchor leaf's projection (for
/// subquery leaves) and return the qualifier under which `__hq_ord` is
/// reachable from the outer select.
fn attach_ord(f: &mut FromItem, p: &str) -> Option<String> {
    match f {
        FromItem::Table { name, alias } if name == p => {
            Some(alias.clone().unwrap_or_else(|| name.clone()))
        }
        FromItem::Subquery { query, alias } => {
            let inner_q = match &query.from {
                Some(FromItem::Table { name, alias }) => {
                    alias.clone().unwrap_or_else(|| name.clone())
                }
                _ => return None,
            };
            query.items.push(item(qcol(&inner_q, ORD), ORD));
            Some(alias.clone())
        }
        FromItem::Join { left, .. } => attach_ord(left, p),
        _ => None,
    }
}

/// Bound columns of a single partitioned FROM leaf, for
/// aggregate-argument type derivation.
fn leaf_bound_cols(f: &FromItem, p: &str, meta: &TableMeta) -> Option<Vec<BoundCol>> {
    match f {
        FromItem::Table { name, alias } if name == p => {
            let q = alias.clone().unwrap_or_else(|| name.clone());
            Some(
                meta.cols
                    .iter()
                    .map(|(n, t)| BoundCol { qualifier: Some(q.clone()), name: n.clone(), ty: *t })
                    .collect(),
            )
        }
        FromItem::Subquery { query, alias } => {
            let inner: Vec<BoundCol> = meta
                .cols
                .iter()
                .map(|(n, t)| BoundCol { qualifier: None, name: n.clone(), ty: *t })
                .collect();
            let mut out = Vec::with_capacity(query.items.len());
            for (i, it) in query.items.iter().enumerate() {
                let SelectItem::Expr { expr, .. } = it else { return None };
                out.push(BoundCol {
                    qualifier: Some(alias.clone()),
                    name: out_name(it, i),
                    ty: derive_type(expr, &inner),
                });
            }
            Some(out)
        }
        _ => None,
    }
}

/// Visit every column reference in an expression (not descending into
/// subqueries — callers exclude those shapes first).
fn walk_columns(e: &SqlExpr, f: &mut impl FnMut(Option<&str>, &str)) {
    match e {
        SqlExpr::Column { qualifier, name } => f(qualifier.as_deref(), name),
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Binary { lhs, rhs, .. } => {
            walk_columns(lhs, f);
            walk_columns(rhs, f);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => walk_columns(x, f),
        SqlExpr::Func { args, .. } => {
            for a in args {
                walk_columns(a, f);
            }
        }
        SqlExpr::WindowFunc { args, partition_by, order_by, .. } => {
            for a in args.iter().chain(partition_by.iter()) {
                walk_columns(a, f);
            }
            for (a, _) in order_by {
                walk_columns(a, f);
            }
        }
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                walk_columns(c, f);
                walk_columns(r, f);
            }
            if let Some(x) = else_result {
                walk_columns(x, f);
            }
        }
        SqlExpr::Cast { expr, .. } => walk_columns(expr, f),
        SqlExpr::InList { expr, list, .. } => {
            walk_columns(expr, f);
            for x in list {
                walk_columns(x, f);
            }
        }
        SqlExpr::IsNull { expr, .. } => walk_columns(expr, f),
        SqlExpr::InSubquery { expr, .. } => walk_columns(expr, f),
    }
}

// ---------------------------------------------------------------------------
// Gather: what the statement can observe
// ---------------------------------------------------------------------------

/// The WHERE the occurrence of table `m` that is a FROM leaf of `s` can
/// be filtered by, qualifiers stripped — when `s` reads from exactly
/// that table and every top-level conjunct of its WHERE names only the
/// table's columns (bare, or under the occurrence's qualifier) and
/// cannot raise for any row of the declared schema. Stored columns
/// hold their declared class: INSERT casts to it.
fn occurrence_filter(s: &SelectStmt, m: &TableMeta) -> Result<SqlExpr, &'static str> {
    let (Some(FromItem::Table { name, alias }), Some(w)) = (&s.from, &s.where_clause) else {
        return Err(GF_UNFILTERED);
    };
    let q = alias.as_deref().unwrap_or(name);
    let frame = Batch::empty(m.cols.iter().map(|(n, t)| Column::new(n, *t)).collect());
    for c in conjuncts(w) {
        let mut foreign = false;
        walk_columns(c, &mut |cq, n| {
            foreign |= cq.is_some_and(|cq| cq != q) || !m.cols.iter().any(|(cn, _)| cn == n);
        });
        if foreign {
            return Err(GF_FOREIGN);
        }
        if !pgdb::exec::infallible(&unqualified(c), &frame) {
            return Err(GF_FALLIBLE);
        }
    }
    Ok(unqualified(w))
}

/// `e` with every column reference's qualifier dropped.
fn unqualified(e: &SqlExpr) -> SqlExpr {
    let b = |x: &SqlExpr| Box::new(unqualified(x));
    let all = |xs: &[SqlExpr]| xs.iter().map(unqualified).collect::<Vec<_>>();
    match e {
        SqlExpr::Column { name, .. } => col(name),
        SqlExpr::Literal(_) | SqlExpr::Star => e.clone(),
        SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary { op: *op, lhs: b(lhs), rhs: b(rhs) },
        SqlExpr::Not(x) => SqlExpr::Not(b(x)),
        SqlExpr::Neg(x) => SqlExpr::Neg(b(x)),
        SqlExpr::Func { name, args, distinct } => {
            SqlExpr::Func { name: name.clone(), args: all(args), distinct: *distinct }
        }
        SqlExpr::WindowFunc { name, args, partition_by, order_by } => SqlExpr::WindowFunc {
            name: name.clone(),
            args: all(args),
            partition_by: all(partition_by),
            order_by: order_by.iter().map(|(x, d)| (unqualified(x), *d)).collect(),
        },
        SqlExpr::Case { branches, else_result } => SqlExpr::Case {
            branches: branches.iter().map(|(c, r)| (unqualified(c), unqualified(r))).collect(),
            else_result: else_result.as_deref().map(b),
        },
        SqlExpr::Cast { expr, ty } => SqlExpr::Cast { expr: b(expr), ty: *ty },
        SqlExpr::InList { expr, list, negated } => {
            SqlExpr::InList { expr: b(expr), list: all(list), negated: *negated }
        }
        SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull { expr: b(expr), negated: *negated },
        SqlExpr::InSubquery { expr, query, negated } => {
            SqlExpr::InSubquery { expr: b(expr), query: query.clone(), negated: *negated }
        }
    }
}

/// The gather recipe for table `name`: the catalog columns some
/// expression names (all of them under a `SELECT *`), and the OR of its
/// occurrences' WHEREs when every occurrence can be filtered.
fn gather_table(name: &str, m: &TableMeta, info: &SelectScan<'_>) -> GatherTable {
    let star = info.starred.contains(name);
    let cols =
        m.cols.iter().filter(|(n, _)| star || info.names.contains(n.as_str())).cloned().collect();
    let mut wheres: Vec<SqlExpr> = Vec::new();
    let mut outcome = GF_PUSHED;
    for (_, s) in info.occurrences.iter().filter(|(t, _)| *t == name) {
        match occurrence_filter(s, m) {
            Ok(w) if !wheres.contains(&w) => wheres.push(w),
            Ok(_) => {}
            Err(r) => {
                outcome = r;
                break;
            }
        }
    }
    let or = |a, b| SqlExpr::Binary { op: SqlBinOp::Or, lhs: Box::new(a), rhs: Box::new(b) };
    let filter = if outcome == GF_PUSHED { wheres.into_iter().reduce(or) } else { None };
    GatherTable {
        name: name.to_string(),
        cols,
        partitioned: m.mode == Mode::Partitioned,
        filter,
        filter_outcome: outcome,
    }
}

// ---------------------------------------------------------------------------
// plan_select
// ---------------------------------------------------------------------------

/// Plan one SELECT against a catalog snapshot. Pure: no cluster access,
/// no side effects. The rule (module docs): a table outside the shard
/// catalog makes the statement `Local`, replicated inputs alone make it
/// `Broadcast`, and anything else is decomposed or, failing that,
/// gathered.
pub fn plan_select(
    sel: &SelectStmt,
    cat: &HashMap<String, TableMeta>,
    opts: &ShardOpts,
) -> ShardPlan {
    let mut info = SelectScan::default();
    scan_select(sel, &mut info);

    if info.tables.is_empty() {
        return ShardPlan::Local { reason: OK_LOCAL };
    }
    if info.tables.iter().any(|t| !cat.contains_key(t.as_str())) {
        return ShardPlan::Local { reason: OK_COORD_TABLE };
    }
    if info.tables.iter().all(|t| cat[t.as_str()].mode != Mode::Partitioned) {
        return ShardPlan::Broadcast { reason: OK_REPLICATED };
    }
    decompose(sel, &info, cat, opts).unwrap_or_else(|reason| {
        let mut names: Vec<&String> = info.tables.iter().collect();
        names.sort();
        names.dedup();
        let tables =
            names.into_iter().map(|n| gather_table(n, &cat[n.as_str()], &info)).collect();
        ShardPlan::Gather { tables, reason }
    })
}

/// Prove that `sel`, whose tables are all in `cat` and one of them
/// partitioned, splits into per-shard statements plus a merge — or name
/// the first obligation that fails.
fn decompose(
    sel: &SelectStmt,
    info: &SelectScan,
    cat: &HashMap<String, TableMeta>,
    opts: &ShardOpts,
) -> Result<ShardPlan, &'static str> {
    if info.reserved {
        return Err(FB_RESERVED);
    }
    // Statement families no per-shard rewrite answers exactly:
    // cross-shard window frames, global set semantics, cross-shard build
    // sides, non-mergeable DISTINCT partials.
    if info.set_op {
        return Err(FB_SET_OP);
    }
    if info.windows {
        return Err(FB_WINDOW);
    }
    if info.subqueries {
        return Err(FB_SUBQUERY);
    }
    if info.distinct_agg {
        return Err(FB_DISTINCT_AGG);
    }

    let from = sel.from.as_ref().ok_or(FB_LEAF_SHAPE)?;
    let sp = resolve_spine(from, cat)?;
    // Every partitioned occurrence in the statement must be a spine
    // position the walk proved (anchor leaf or co-partitioned leg);
    // anything else (nested subquery, repeated reference) is unprovable.
    let part_occurrences =
        info.tables.iter().filter(|t| cat[t.as_str()].mode == Mode::Partitioned).count();
    if sp.resolved != part_occurrences {
        return Err(FB_LEAF_SHAPE);
    }
    let anchor = sp.anchor.clone().ok_or(FB_LEAF_SHAPE)?;
    if is_agg_context(sel) {
        plan_agg(sel, from, cat, &sp, &anchor, opts)
    } else {
        plan_scan(sel, from, cat, &sp, &anchor)
    }
}

fn plan_scan(
    sel: &SelectStmt,
    from: &FromItem,
    cat: &HashMap<String, TableMeta>,
    sp: &Spine,
    p: &str,
) -> Result<ShardPlan, &'static str> {
    if sel.offset.is_some() {
        return Err(FB_OFFSET);
    }

    // Expand `SELECT *` from the catalog: the shard-side physical `*`
    // would leak the hidden ordinal. Only the single-table shape is
    // expandable; wildcards over joins/subqueries fall back.
    let mut items: Vec<SelectItem> = Vec::with_capacity(sel.items.len());
    for it in &sel.items {
        match it {
            SelectItem::Wildcard => {
                if !matches!(from, FromItem::Table { name, .. } if name == p)
                    || sel.items.len() != 1
                {
                    return Err(FB_WILDCARD);
                }
                for (n, _) in &cat[p].cols {
                    items.push(SelectItem::Expr { expr: col(n), alias: None });
                }
            }
            other => items.push(other.clone()),
        }
    }
    let visible = items.len();
    let names: Vec<String> = items.iter().enumerate().map(|(i, it)| out_name(it, i)).collect();

    // Classify ORDER BY keys: a bare column naming an output sorts on
    // that visible column; anything else is computed per shard as a
    // hidden item — valid only if it cannot capture an output alias
    // (items evaluate against the input frame, ORDER BY against outputs
    // first).
    let mut keys: Vec<(usize, bool)> = Vec::with_capacity(sel.order_by.len());
    let mut hidden: Vec<SelectItem> = Vec::new();
    for (e, desc) in &sel.order_by {
        if let SqlExpr::Column { qualifier: None, name } = e {
            if let Some(i) = names.iter().position(|n| n == name) {
                keys.push((i, *desc));
                continue;
            }
        }
        let mut captures_output = false;
        walk_columns(e, &mut |q, n| {
            if q.is_none() && names.iter().any(|o| o == n) {
                captures_output = true;
            }
        });
        if captures_output {
            return Err(FB_ORDER_ALIAS);
        }
        let alias = format!("__hq_k{}", hidden.len());
        keys.push((visible + hidden.len(), *desc));
        hidden.push(item(e.clone(), &alias));
    }

    let mut from2 = from.clone();
    let ord_q = attach_ord(&mut from2, p).ok_or(FB_LEAF_SHAPE)?;

    let mut shard_items = items;
    shard_items.extend(hidden);
    shard_items.push(item(qcol(&ord_q, ORD), ORD));
    let ord_idx = shard_items.len() - 1;

    let mut order_by = sel.order_by.clone();
    order_by.push((col(ORD), false));

    let shard_sel = SelectStmt {
        items: shard_items,
        from: Some(from2),
        where_clause: sel.where_clause.clone(),
        group_by: Vec::new(),
        having: None,
        order_by,
        limit: sel.limit,
        offset: None,
        set_op: None,
    };
    let spec = ScanSpec {
        shard_sql: render::render_select(&shard_sel),
        visible,
        keys,
        ord_idx,
        limit: sel.limit,
    };
    Ok(if sp.co_partitioned > 0 {
        ShardPlan::ShardLocal { spec, reason: OK_CO_PART }
    } else if sp.joined {
        ShardPlan::Scatter { spec, reason: OK_BROADCAST_JOIN }
    } else {
        ShardPlan::Scatter { spec, reason: OK_SCAN }
    })
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Rewrites aggregate expressions into (partial item, merged expression)
/// pairs. Partial items are deduplicated structurally.
struct AggRewriter<'a> {
    cols: &'a [BoundCol],
    float_agg: bool,
    /// Per-shard partial select items: (expr, alias).
    partials: Vec<(SqlExpr, String)>,
}

impl<'a> AggRewriter<'a> {
    fn slot(&mut self, partial: SqlExpr) -> String {
        if let Some((_, a)) = self.partials.iter().find(|(e, _)| *e == partial) {
            return a.clone();
        }
        let alias = format!("__hq_p{}", self.partials.len());
        self.partials.push((partial, alias.clone()));
        alias
    }

    fn int_typed(&self, e: &SqlExpr) -> bool {
        matches!(derive_type(e, self.cols), PgType::Int2 | PgType::Int4 | PgType::Int8)
    }

    fn float_typed(&self, e: &SqlExpr) -> bool {
        matches!(derive_type(e, self.cols), PgType::Float4 | PgType::Float8)
    }

    /// Rewrite `e` into its merge-side form, allocating partial slots.
    /// `Err(reason)` = not provably shard-safe.
    fn rewrite(&mut self, e: &SqlExpr) -> Result<SqlExpr, &'static str> {
        if !e.contains_aggregate() {
            // Group-constant or first-row-of-group semantics either
            // way; `hq_first` over min-ordinal-sorted partials
            // reproduces the global first row exactly.
            if let SqlExpr::Literal(_) = e {
                return Ok(e.clone());
            }
            let slot = self.slot(e.clone());
            return Ok(agg("hq_first", col(&slot)));
        }
        if let SqlExpr::Func { name, args, distinct } = e {
            if is_aggregate_name(name) {
                if *distinct {
                    return Err(FB_DISTINCT_AGG);
                }
                if args.len() != 1 || args[0].contains_aggregate() {
                    return Err(FB_AGG_SHAPE);
                }
                let arg = &args[0];
                return match name.as_str() {
                    "count" => {
                        let slot = self.slot(e.clone());
                        Ok(agg("sum", col(&slot)))
                    }
                    "sum" => {
                        if self.int_typed(arg) || (self.float_agg && self.float_typed(arg)) {
                            let slot = self.slot(e.clone());
                            Ok(agg("sum", col(&slot)))
                        } else if self.float_typed(arg) {
                            Err(FB_FLOAT_AGG)
                        } else {
                            Err(FB_AGG_SHAPE)
                        }
                    }
                    "avg" => {
                        if !(self.int_typed(arg) || (self.float_agg && self.float_typed(arg))) {
                            return if self.float_typed(arg) {
                                Err(FB_FLOAT_AGG)
                            } else {
                                Err(FB_AGG_SHAPE)
                            };
                        }
                        let s = self.slot(agg("sum", arg.clone()));
                        let c = self.slot(agg("count", arg.clone()));
                        let total = |slot: &str| SqlExpr::Cast {
                            expr: Box::new(agg("sum", col(slot))),
                            ty: PgType::Float8,
                        };
                        Ok(SqlExpr::Case {
                            branches: vec![(
                                SqlExpr::Binary {
                                    op: SqlBinOp::Gt,
                                    lhs: Box::new(agg("sum", col(&c))),
                                    rhs: Box::new(SqlExpr::Literal(Cell::Int(0))),
                                },
                                SqlExpr::Binary {
                                    op: SqlBinOp::Div,
                                    lhs: Box::new(total(&s)),
                                    rhs: Box::new(total(&c)),
                                },
                            )],
                            else_result: None,
                        })
                    }
                    "min" | "max" => {
                        if self.float_typed(arg) && !self.float_agg {
                            return Err(FB_FLOAT_AGG);
                        }
                        let slot = self.slot(e.clone());
                        Ok(agg(name, col(&slot)))
                    }
                    _ => Err(FB_NONDISTRIBUTIVE),
                };
            }
        }
        // Composite expression with aggregates inside: rebuild around
        // rewritten children.
        Ok(match e {
            SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary {
                op: *op,
                lhs: Box::new(self.rewrite(lhs)?),
                rhs: Box::new(self.rewrite(rhs)?),
            },
            SqlExpr::Not(x) => SqlExpr::Not(Box::new(self.rewrite(x)?)),
            SqlExpr::Neg(x) => SqlExpr::Neg(Box::new(self.rewrite(x)?)),
            SqlExpr::Func { name, args, distinct } => SqlExpr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.rewrite(a))
                    .collect::<Result<Vec<_>, _>>()?,
                distinct: *distinct,
            },
            SqlExpr::Case { branches, else_result } => SqlExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((self.rewrite(c)?, self.rewrite(r)?)))
                    .collect::<Result<Vec<_>, &'static str>>()?,
                else_result: match else_result {
                    Some(x) => Some(Box::new(self.rewrite(x)?)),
                    None => None,
                },
            },
            SqlExpr::Cast { expr, ty } => {
                SqlExpr::Cast { expr: Box::new(self.rewrite(expr)?), ty: *ty }
            }
            SqlExpr::InList { expr, list, negated } => SqlExpr::InList {
                expr: Box::new(self.rewrite(expr)?),
                list: list
                    .iter()
                    .map(|x| self.rewrite(x))
                    .collect::<Result<Vec<_>, _>>()?,
                negated: *negated,
            },
            SqlExpr::IsNull { expr, negated } => {
                SqlExpr::IsNull { expr: Box::new(self.rewrite(expr)?), negated: *negated }
            }
            _ => return Err(FB_AGG_SHAPE),
        })
    }
}

fn plan_agg(
    sel: &SelectStmt,
    from: &FromItem,
    cat: &HashMap<String, TableMeta>,
    sp: &Spine,
    p: &str,
    opts: &ShardOpts,
) -> Result<ShardPlan, &'static str> {
    if sel.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return Err(FB_WILDCARD);
    }

    // Bound columns for partial-aggregate type derivation: the single
    // leaf's columns, or — for a proven join spine of bare base tables —
    // the union of every leg's qualified columns.
    let bound: Vec<BoundCol> = if !sp.joined {
        leaf_bound_cols(from, p, &cat[p]).ok_or(FB_AGG_JOIN)?
    } else {
        if !sp.all_base {
            return Err(FB_AGG_JOIN);
        }
        // An unqualified name present in more than one leg cannot be
        // type-derived reliably; fall back rather than guess.
        let mut ambiguous = false;
        {
            let mut check = |q: Option<&str>, n: &str| {
                if q.is_none() {
                    let hits = sp
                        .legs
                        .iter()
                        .filter(|(_, t)| {
                            cat.get(t.as_str())
                                .is_some_and(|m| m.cols.iter().any(|(cn, _)| cn == n))
                        })
                        .count();
                    if hits > 1 {
                        ambiguous = true;
                    }
                }
            };
            for it in &sel.items {
                if let SelectItem::Expr { expr, .. } = it {
                    walk_columns(expr, &mut check);
                }
            }
            for g in &sel.group_by {
                walk_columns(g, &mut check);
            }
            if let Some(h) = &sel.having {
                walk_columns(h, &mut check);
            }
            if let Some(w) = &sel.where_clause {
                walk_columns(w, &mut check);
            }
            for (e, _) in &sel.order_by {
                walk_columns(e, &mut check);
            }
        }
        if ambiguous {
            return Err(FB_AMBIGUOUS);
        }
        sp.legs
            .iter()
            .flat_map(|(a, t)| {
                cat[t.as_str()].cols.iter().map(move |(n, ty)| BoundCol {
                    qualifier: Some(a.clone()),
                    name: n.clone(),
                    ty: *ty,
                })
            })
            .collect()
    };

    let mut rw = AggRewriter { cols: &bound, float_agg: opts.float_agg, partials: Vec::new() };

    // Group keys ride along as partial columns; the merge groups on
    // them. They are emitted first so slot aliases stay readable.
    for (j, g) in sel.group_by.iter().enumerate() {
        if g.contains_aggregate() {
            return Err(FB_AGG_GROUP_KEY);
        }
        rw.partials.push((g.clone(), format!("__hq_g{j}")));
    }

    let mut merge_items: Vec<SelectItem> = Vec::with_capacity(sel.items.len() + 1);
    for (i, it) in sel.items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = it else { return Err(FB_WILDCARD) };
        merge_items.push(item(rw.rewrite(expr)?, &out_name(it, i)));
    }
    let merge_having = sel.having.as_ref().map(|h| rw.rewrite(h)).transpose()?;

    // Joined spines only: the merge select runs over the flat partials
    // table, where qualified refs (`a.k`) and non-output columns do not
    // exist — the coordinator would resolve them, the merge would error.
    // Require every ORDER BY column to be an unqualified output name.
    if sp.joined {
        let out_names: Vec<String> =
            sel.items.iter().enumerate().map(|(i, it)| out_name(it, i)).collect();
        let mut unresolvable = false;
        for (e, _) in &sel.order_by {
            walk_columns(e, &mut |q: Option<&str>, n: &str| {
                if q.is_some() || !out_names.iter().any(|o| o == n) {
                    unresolvable = true;
                }
            });
        }
        if unresolvable {
            return Err(FB_AGG_JOIN);
        }
    }

    let mut from2 = from.clone();
    let ord_q = attach_ord(&mut from2, p).ok_or(FB_LEAF_SHAPE)?;

    // Per-shard partial select: keys, partial aggregates, and the
    // group's minimum ordinal (for first-seen group order and
    // first-row-of-group reconstruction).
    let mut shard_items: Vec<SelectItem> =
        rw.partials.iter().map(|(e, a)| item(e.clone(), a)).collect();
    shard_items.push(item(agg("min", qcol(&ord_q, ORD)), "__hq_ho"));
    let shard_sel = SelectStmt {
        items: shard_items,
        from: Some(from2),
        where_clause: sel.where_clause.clone(),
        group_by: sel.group_by.clone(),
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
        set_op: None,
    };

    // Merge select over the scratch partials table. ORDER BY keeps the
    // user's keys (they resolve against outputs, whose names match the
    // single-node output names) and appends the group-order key so ties
    // land in global first-seen order, exactly like the engine's stable
    // sort.
    merge_items.push(item(agg("min", col("__hq_ho")), "__hq_ho"));
    let mut merge_order = sel.order_by.clone();
    merge_order.push((col("__hq_ho"), false));
    let merge_sel = SelectStmt {
        items: merge_items,
        from: Some(FromItem::Table { name: PARTIALS.to_string(), alias: None }),
        where_clause: None,
        group_by: (0..sel.group_by.len()).map(|j| col(&format!("__hq_g{j}"))).collect(),
        having: merge_having,
        order_by: merge_order,
        limit: sel.limit,
        offset: sel.offset,
        set_op: None,
    };

    let spec = Box::new(AggSpec {
        shard_sql: render::render_select(&shard_sel),
        merge_sql: render::render_select(&merge_sel),
        visible: sel.items.len(),
    });
    let reason = if sp.joined { OK_AGG_JOIN } else { OK_AGG };
    Ok(ShardPlan::TwoPhaseAgg { spec, reason })
}

// ---------------------------------------------------------------------------
// EXPLAIN SHARD
// ---------------------------------------------------------------------------

/// Rows for `EXPLAIN SHARD <stmt>`: one `(kind, reason, detail)` row
/// for the plan, then one `(table:<name>, <mode>, rows/key)` row
/// per referenced shard-managed table.
pub fn explain_statement(
    stmt: &Stmt,
    cat: &HashMap<String, TableMeta>,
    opts: &ShardOpts,
) -> Vec<(String, String, String)> {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    match stmt {
        Stmt::Select(sel) => {
            let plan = plan_select(sel, cat, opts);
            let detail = match &plan {
                ShardPlan::Scatter { spec, .. } | ShardPlan::ShardLocal { spec, .. } => {
                    format!("shard: {}", spec.shard_sql)
                }
                ShardPlan::TwoPhaseAgg { spec, .. } => {
                    format!("shard: {} | merge: {}", spec.shard_sql, spec.merge_sql)
                }
                ShardPlan::Gather { tables, .. } => {
                    let parts: Vec<String> = tables
                        .iter()
                        .map(|t| {
                            let mut how =
                                (if t.partitioned { "merge" } else { "replica" }).to_string();
                            if t.cols.len() < cat[t.name.as_str()].cols.len() {
                                let names: Vec<&str> =
                                    t.cols.iter().map(|(n, _)| n.as_str()).collect();
                                how += &format!("; cols={}", names.join(","));
                            }
                            if let Some(f) = &t.filter {
                                how += &format!("; where={}", render::render_expr(f));
                            }
                            format!("{}({how})", t.name)
                        })
                        .collect();
                    format!("gather: {}", parts.join(", "))
                }
                _ => String::new(),
            };
            rows.push((plan.kind().to_string(), plan.reason().to_string(), detail));
            let mut info = SelectScan::default();
            scan_select(sel, &mut info);
            tables = info.tables;
            tables.sort_unstable();
            tables.dedup();
        }
        Stmt::Insert { table, .. } => {
            let (kind, reason) = match cat.get(table.as_str()).map(|m| m.mode) {
                Some(Mode::Broadcast) => ("mutation", "broadcast_insert"),
                Some(Mode::Partitioned) => ("mutation", "hash_partitioned_insert"),
                Some(Mode::Undecided) => ("mutation", "placement_pending"),
                None => ("local", "unsharded_table"),
            };
            rows.push((kind.to_string(), reason.to_string(), String::new()));
            tables.push(table.clone());
        }
        Stmt::CreateTable { name, columns, temp } => {
            let reserved = columns.iter().any(|(n, _)| n.starts_with(RESERVED));
            let (kind, reason) = if *temp || reserved {
                ("local", "session_scoped")
            } else {
                ("mutation", "fanout_ddl")
            };
            rows.push((kind.to_string(), reason.to_string(), String::new()));
            tables.push(name.clone());
        }
        Stmt::DropTable { name, .. } => {
            let (kind, reason) = if cat.contains_key(name.as_str()) {
                ("mutation", "fanout_ddl")
            } else {
                ("local", "unsharded_table")
            };
            rows.push((kind.to_string(), reason.to_string(), String::new()));
            tables.push(name.clone());
        }
        Stmt::CreateTableAs { .. } => {
            rows.push(("local".to_string(), "ctas_coordinator_only".to_string(), String::new()));
        }
        Stmt::NoOp(_) => {
            rows.push(("local".to_string(), "no_op".to_string(), String::new()));
        }
    }
    for t in &tables {
        if let Some(m) = cat.get(t.as_str()) {
            let mode = match m.mode {
                Mode::Undecided => "undecided",
                Mode::Broadcast => "broadcast",
                Mode::Partitioned => "partitioned",
            };
            let key = m.key.and_then(|k| m.cols.get(k)).map(|(n, _)| n.as_str()).unwrap_or("-");
            rows.push((format!("table:{t}"), mode.to_string(), format!("rows={} key={key}", m.rows)));
        }
    }
    rows
}
