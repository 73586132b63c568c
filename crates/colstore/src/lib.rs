//! Shared columnar representation for the Hyper-Q stack (DESIGN §10).
//!
//! One typed batch format flows from the pgdb executor through the
//! gateway pivot to QIPC encoding: a [`Batch`] is a schema plus one
//! [`ColumnVec`] per column, where each `ColumnVec` is a typed vector
//! with a [`Validity`] bitmap for SQL NULLs. A column's declared type
//! is its storage class ([`PgType::class`]): every vector holds the
//! class its schema entry names. The row-major [`Rows`] type and the
//! [`Cell`] remain the interchange format at the PG-wire codec boundary
//! and for the row-based reference executor;
//! [`Batch::from_rows`]/[`Batch::to_rows`] convert between the two
//! worlds.
//!
//! A result travels as one `Batch`, never as chunks: the translated
//! statement's ORDER BY (Q's order, `ordcol` by default) materializes
//! it and QIPC sends it as one message (DESIGN §12). [`BatchStream`] wraps one batch in a chunk
//! iterator for hqbench only.
//!
//! This crate is dependency-free on purpose: pgdb, core, qengine, and
//! qipc all sit on top of it without forming cycles.

pub mod batch;
pub mod key;
pub mod stats;
pub mod stream;
pub mod types;

pub use batch::{Batch, ColumnVec, Validity};
pub use stats::TableStats;
pub use stream::BatchStream;
pub use key::{row_key, CellKey};
pub use types::{days_to_ymd, ymd_to_days, Cell, Class, ClassMismatch, Column, PgType, Rows};
