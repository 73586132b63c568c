//! # pgdb — a PostgreSQL-compatible in-memory analytical database
//!
//! The paper's deployments run Hyper-Q against Greenplum, a PG-compatible
//! MPP system. Greenplum is not embeddable here, so this crate provides
//! the substrate: an in-memory, columnar-result SQL engine that
//!
//! * parses the PG dialect Hyper-Q's serializer emits (derived tables,
//!   window functions, `IS NOT DISTINCT FROM`, `::` casts, `CREATE
//!   TEMPORARY TABLE ... AS`, `VALUES` lists) — [`sql`];
//! * executes it with SQL semantics — notably **three-valued logic**,
//!   bag semantics and explicit `ORDER BY`, the exact mismatches Hyper-Q
//!   must bridge — [`exec`];
//! * serves the catalog through `information_schema.columns` /
//!   `pg_catalog.pg_tables` virtual tables so Hyper-Q's metadata
//!   interface can bind names the way the paper describes (§3.2.3);
//! * ships the backend "toolbox" functions (paper §5) Hyper-Q's
//!   translations rely on: `hq_first`, `hq_last`, `median`, `div`,
//!   `least`/`greatest`;
//! * speaks PG v3 over TCP — [`server`] — including clear-text and MD5
//!   authentication.
//!
//! Per-session temporary tables provide the physical-materialization
//! target of paper §4.3.

pub mod catalog;
pub mod engine;
pub mod exec;
pub mod server;
pub mod sql;
pub mod types;

pub use colstore::{Batch, BatchStream, ColumnVec};
pub use durability::{DurError, FsyncPolicy, Options as DurabilityOptions};
pub use engine::{BatchQueryResult, Db, DbError, QueryResult, Session, StreamQueryResult};
pub use types::{Cell, Column, PgType, Rows};
