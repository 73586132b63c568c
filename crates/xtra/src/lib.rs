//! # xtra — the eXTended Relational Algebra
//!
//! XTRA is Hyper-Q's internal query representation (paper §3.2): a general,
//! extensible algebra that Q queries are *bound* into and SQL queries are
//! *serialized* out of. It is deliberately richer than plain relational
//! algebra:
//!
//! * every relational operator carries **derived properties** — output
//!   columns with names and types, and the implicit **order column** that
//!   models Q's ordered-list semantics (paper §3.3 "Transparency") —
//!   computed once, when the node is built, and shared rather than copied;
//! * scalar expressions carry result types and a side-effect flag;
//! * the `IsNotDistinctFrom` predicate exists as a first-class operator so
//!   the Xformer can bridge Q's two-valued null logic onto SQL's
//!   three-valued logic (paper §3.3 "Correctness").
//!
//! Transformations consume a tree and build the rewritten one, moving
//! what they keep.

pub mod rel;
pub mod scalar;
pub mod types;

pub use rel::{JoinKind, RelNode, RelProps, SetOpKind, SortKey};
pub use scalar::{AggFunc, BinOp, ScalarExpr, UnOp, WinFunc};
pub use types::{ColumnDef, Datum, Name, NameSet, SqlType};

/// The name Hyper-Q uses for the implicit order column it injects into
/// backend schemas to preserve Q's ordered-list semantics (paper §4.3 shows
/// generated SQL referring to `ordcol`).
pub const ORD_COL: &str = "ordcol";
