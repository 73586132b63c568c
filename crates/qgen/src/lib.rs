//! qgen — grammar-driven differential fuzzing for the Hyper-Q pipeline.
//!
//! The hand-written oracle statements (`tests/common/corpus.rs`) are a
//! fixed list; this crate *generates* the scenarios. It is the
//! conformance subsystem from DESIGN §9, and its [`slice`] is the fuzz
//! corpus of the differential matrix's rows (DESIGN §6):
//!
//! * [`schema`] — randomized-but-valid TAQ-shaped datasets (random
//!   column names, symbol universes, null densities; fixed column
//!   *roles* so statements stay well-typed by construction);
//! * [`grammar`] — seeded, structured Q statement generation (selects,
//!   by-aggregations, all four join families, null logic, ordcol
//!   functions, variable assignment + reuse) with per-statement shrink
//!   candidates;
//! * [`slice`] — the seeded stream of (dataset, programs) chunks every
//!   loop walks, [`PROGRAMS_PER_DATASET`] programs per dataset;
//! * [`fuzz`] — the loop: the fuzz row of the differential matrix
//!   (`hyperq::side_by_side::Matrix` over the qengine reference, a
//!   cache-cold and a cache-warm session), which reports every divergent
//!   statement; the shrinker and [`replay`] check on the same row;
//! * [`diff`] — cell-level divergence explanation under Q's 2-valued
//!   null semantics;
//! * [`shrink`] — delta-debugging reduction of (program, dataset) to a
//!   minimal diverging form;
//! * [`corpus`] — self-contained `.q` repro files, written on discovery
//!   and replayed forever after as pinned regression tests.
//!
//! Knobs: `QGEN_SEED` (master seed, default 42) and `QGEN_BUDGET`
//! (program count, default 500), read by [`FuzzConfig::from_env`].

#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod fuzz;
pub mod grammar;
pub mod schema;
pub mod shrink;
pub mod slice;

pub use corpus::{load_repro, replay, write_repro, Repro};
pub use fuzz::{run_fuzz, FoundBug, FuzzConfig, FuzzReport};
pub use grammar::{Coverage, GenStmt, Program, ProgramGen};
pub use schema::{gen_dataset, Dataset, NumKind, TableSpec};
pub use shrink::{ShrinkResult, Shrinker};
pub use slice::{slice, Chunk, Slice, PROGRAMS_PER_DATASET};
