//! # algebrizer — binding Q ASTs into XTRA trees
//!
//! The Algebrizer is the front half of Hyper-Q's Query Translator (paper
//! §3.2). Parsing produced an *untyped* AST; this crate performs the
//! semantic analysis the paper calls **binding**:
//!
//! * variable references are resolved through the scope hierarchy of
//!   Figure 3 ([`scopes`]) and, at the bottom, through the **metadata
//!   interface** to the backend catalog ([`mdi`]) — with the configurable
//!   caching layer the evaluation section measures;
//! * each Q operator is mapped to a semantically equivalent (sometimes
//!   much more complicated) relational expression: q-sql templates become
//!   Filter/Project/Aggregate stacks, and the as-of join becomes a left
//!   outer join over a window function on its right input, exactly as in
//!   paper Figure 2 ([`bind`]);
//! * operator properties are derived bottom-up and inputs are *checked*
//!   (e.g. `aj` requires its join columns in both inputs);
//! * Q literals are mapped onto the SQL type system ([`literal`]).
//!
//! Functions are stored as source text and re-algebrized (unrolled) at
//! invocation, so no UDFs need to be created in the backend — the §5 case
//! study calls this out as important for analysts without CREATE rights.

pub mod bind;
pub mod literal;
pub mod mdi;
pub mod scopes;

/// Test-only fault injection for the conformance harness (DESIGN §9).
///
/// The differential fuzzer's shrinker needs a *known* translation bug it
/// can be pointed at, so the PR-3 `count col` mistranslation (Q `count`
/// is length and counts nulls; SQL `COUNT(col)` silently skips them) can
/// be deliberately re-introduced behind this process-global flag. It
/// exists purely so `tests/fuzz_differential.rs` can prove the
/// detect→shrink→repro pipeline end to end; production code never sets
/// it.
#[doc(hidden)]
pub mod testhooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    static COUNT_COL_BUG: AtomicBool = AtomicBool::new(false);

    /// Re-introduce (or clear) the `count col` → `COUNT(col)` bug.
    pub fn set_reintroduce_count_col_bug(on: bool) {
        COUNT_COL_BUG.store(on, Ordering::SeqCst);
    }

    /// Is the deliberate bug currently active?
    pub fn reintroduce_count_col_bug() -> bool {
        COUNT_COL_BUG.load(Ordering::SeqCst)
    }
}

pub use bind::{
    BindOutput, Binder, Bound, DemandReason, MaterializationPolicy, ResultShape, SideStatement,
};
pub use mdi::{CachingMdi, Mdi, MdiStats, StaticMdi, TableMeta};
pub use scopes::{Scopes, VarDef};
