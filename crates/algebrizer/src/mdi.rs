//! The MetaData Interface (MDI).
//!
//! Binding resolves table variables by "executing a query against PG
//! catalog to retrieve various properties of the searched object" (paper
//! §3.2.3): columns, keys and sort order for tables. Because a metadata
//! lookup is a round trip to the backend, Hyper-Q layers a **configurable
//! metadata cache** with invalidation policies and expiration time on top
//! (§6) — the evaluation's experiments run with caching enabled, and our
//! Ablation A measures the difference.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtra::types::NameHasher;
use xtra::ColumnDef;

/// Metadata describing one backend table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Table name in the backend.
    pub name: String,
    /// Column definitions, in order (including the implicit `ordcol`
    /// when the table was created by Hyper-Q). Shared: a cache hit and
    /// every scan bound from it hold the same columns.
    pub columns: Arc<[ColumnDef]>,
    /// Candidate keys (column-name sets).
    pub keys: Vec<Vec<String>>,
    /// Physical sort order, if any.
    pub sort_order: Vec<String>,
    /// Where each column name sits in `columns`.
    index: ColumnIndex,
}

/// Column name → position, built once with the metadata: a cache hit
/// shares it, so a scan that binds a few of a wide table's columns finds
/// them without walking the others.
#[derive(Clone)]
struct ColumnIndex(Arc<HashMap<String, usize, BuildHasherDefault<NameHasher>>>);

impl ColumnIndex {
    fn of(columns: &[ColumnDef]) -> Self {
        let mut index = HashMap::with_capacity_and_hasher(columns.len(), Default::default());
        for (at, c) in columns.iter().enumerate() {
            index.entry(c.name.to_string()).or_insert(at);
        }
        ColumnIndex(Arc::new(index))
    }
}

impl fmt::Debug for ColumnIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColumnIndex({} names)", self.0.len())
    }
}

/// Derived from the columns, which the table's equality already compares.
impl PartialEq for ColumnIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl TableMeta {
    /// Convenience constructor for an unkeyed table.
    pub fn new(name: impl Into<String>, columns: impl Into<Arc<[ColumnDef]>>) -> Self {
        let columns = columns.into();
        let index = ColumnIndex::of(&columns);
        TableMeta { name: name.into(), columns, keys: vec![], sort_order: vec![], index }
    }

    /// The position of the column called `name` in `columns`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.0.get(name).copied()
    }

    /// Does this table carry Hyper-Q's implicit order column?
    pub fn has_ord_col(&self) -> bool {
        self.position(xtra::ORD_COL).is_some()
    }
}

/// The metadata interface the binder resolves names through.
///
/// Implementations: [`StaticMdi`] (in-memory, for tests), [`CachingMdi`]
/// (TTL cache wrapper), and `pgdb`-backed adapters in the `hyperq` crate
/// that issue real catalog queries.
pub trait Mdi: Send + Sync {
    /// Look up a table by name; `None` if the backend has no such table.
    fn table_meta(&self, name: &str) -> Option<TableMeta>;

    /// Number of *backend* lookups performed so far (instrumentation for
    /// the Figure 6/7 harness).
    fn lookup_count(&self) -> u64 {
        0
    }
}

/// A fixed, in-memory MDI.
#[derive(Debug, Default)]
pub struct StaticMdi {
    tables: HashMap<String, TableMeta>,
    lookups: AtomicU64,
    /// Simulated backend round-trip latency, to make cache effects
    /// measurable on a laptop the way they are against a real cluster.
    pub simulated_latency: Duration,
}

impl StaticMdi {
    /// Create an empty catalog.
    pub fn new() -> Self {
        StaticMdi::default()
    }

    /// Register a table.
    pub fn add(&mut self, meta: TableMeta) -> &mut Self {
        self.tables.insert(meta.name.clone(), meta);
        self
    }

    /// Builder-style registration.
    #[must_use]
    pub fn with(mut self, meta: TableMeta) -> Self {
        self.add(meta);
        self
    }
}

impl Mdi for StaticMdi {
    fn table_meta(&self, name: &str) -> Option<TableMeta> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if !self.simulated_latency.is_zero() {
            std::thread::sleep(self.simulated_latency);
        }
        self.tables.get(name).cloned()
    }

    fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }
}

/// Cache hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdiStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups forwarded to the backend.
    pub misses: u64,
}

impl MdiStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// TTL-based caching wrapper around any [`Mdi`].
///
/// Negative results (missing tables) are cached too — repeated binding of
/// a query referencing a session-local variable must not hammer the
/// backend catalog.
pub struct CachingMdi<M: Mdi> {
    inner: M,
    ttl: Duration,
    entries: Mutex<HashMap<String, (Instant, Option<TableMeta>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<M: Mdi> CachingMdi<M> {
    /// Wrap `inner` with a cache whose entries expire after `ttl`.
    pub fn new(inner: M, ttl: Duration) -> Self {
        CachingMdi {
            inner,
            ttl,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> MdiStats {
        MdiStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Explicitly invalidate one table (DDL against the backend, or a
    /// variable shadowing change).
    pub fn invalidate(&self, name: &str) {
        self.entries.lock().remove(name);
    }

    /// Drop the entire cache.
    pub fn invalidate_all(&self) {
        self.entries.lock().clear();
    }

    /// Access the wrapped MDI.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Mdi> Mdi for CachingMdi<M> {
    fn table_meta(&self, name: &str) -> Option<TableMeta> {
        let now = Instant::now();
        {
            let entries = self.entries.lock();
            if let Some((stamp, cached)) = entries.get(name) {
                if now.duration_since(*stamp) < self.ttl {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return cached.clone();
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = self.inner.table_meta(name);
        self.entries.lock().insert(name.to_string(), (now, fresh.clone()));
        fresh
    }

    fn lookup_count(&self) -> u64 {
        self.inner.lookup_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::SqlType;

    fn meta(name: &str) -> TableMeta {
        TableMeta::new(
            name,
            vec![
                ColumnDef::not_null(xtra::ORD_COL, SqlType::Int8),
                ColumnDef::new("Price", SqlType::Float8),
            ],
        )
    }

    #[test]
    fn static_mdi_counts_lookups() {
        let mdi = StaticMdi::new().with(meta("trades"));
        assert!(mdi.table_meta("trades").is_some());
        assert!(mdi.table_meta("nope").is_none());
        assert_eq!(mdi.lookup_count(), 2);
    }

    #[test]
    fn table_meta_finds_columns_by_name() {
        let t = meta("t");
        assert_eq!(t.position(xtra::ORD_COL), Some(0));
        assert_eq!(t.position("Price"), Some(1));
        assert_eq!(t.position("price"), None, "names are case-sensitive");
    }

    #[test]
    fn table_meta_detects_ord_col() {
        assert!(meta("t").has_ord_col());
        let plain = TableMeta::new("t", vec![ColumnDef::new("a", SqlType::Int8)]);
        assert!(!plain.has_ord_col());
    }

    #[test]
    fn cache_serves_repeat_lookups() {
        let mdi = CachingMdi::new(StaticMdi::new().with(meta("trades")), Duration::from_secs(60));
        for _ in 0..5 {
            assert!(mdi.table_meta("trades").is_some());
        }
        let stats = mdi.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(mdi.lookup_count(), 1, "backend touched once");
        assert!(stats.hit_ratio() > 0.7);
    }

    #[test]
    fn cache_caches_negative_results() {
        let mdi = CachingMdi::new(StaticMdi::new(), Duration::from_secs(60));
        assert!(mdi.table_meta("ghost").is_none());
        assert!(mdi.table_meta("ghost").is_none());
        assert_eq!(mdi.lookup_count(), 1);
    }

    #[test]
    fn cache_expires_after_ttl() {
        let mdi = CachingMdi::new(StaticMdi::new().with(meta("t")), Duration::from_millis(10));
        mdi.table_meta("t");
        std::thread::sleep(Duration::from_millis(20));
        mdi.table_meta("t");
        assert_eq!(mdi.stats().misses, 2, "entry expired, backend re-queried");
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mdi = CachingMdi::new(StaticMdi::new().with(meta("t")), Duration::from_secs(60));
        mdi.table_meta("t");
        mdi.invalidate("t");
        mdi.table_meta("t");
        assert_eq!(mdi.stats().misses, 2);
        mdi.invalidate_all();
        mdi.table_meta("t");
        assert_eq!(mdi.stats().misses, 3);
    }
}
