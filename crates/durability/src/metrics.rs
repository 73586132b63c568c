//! Durability metrics, resolved once into the process-wide registry —
//! visible over both admin surfaces (`SHOW metrics` on the PG wire,
//! `\metrics` on QIPC) like every other subsystem's counters.

use std::sync::{Arc, OnceLock};

pub struct DurMetrics {
    /// WAL records appended (one per committed mutation).
    pub wal_appends: Arc<obs::Counter>,
    /// fsync latency on the WAL file, one sample per commit leader's
    /// sync (rotation and shutdown syncs are not sampled).
    pub wal_fsync_seconds: Arc<obs::Histogram>,
    /// Records replayed from the WAL tail during recovery.
    pub wal_replayed_records: Arc<obs::Counter>,
    /// Bytes written into checkpoint segments.
    pub checkpoint_bytes: Arc<obs::Counter>,
    /// Checkpoints completed.
    pub checkpoints: Arc<obs::Counter>,
    /// Torn final WAL records truncated during recovery.
    pub recovery_truncated_tail: Arc<obs::Counter>,
}

pub fn metrics() -> &'static DurMetrics {
    static METRICS: OnceLock<DurMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        DurMetrics {
            wal_appends: reg.counter("wal_appends_total"),
            wal_fsync_seconds: reg.histogram("wal_fsync_seconds"),
            wal_replayed_records: reg.counter("wal_replayed_records_total"),
            checkpoint_bytes: reg.counter("checkpoint_bytes_total"),
            checkpoints: reg.counter("checkpoints_total"),
            recovery_truncated_tail: reg.counter("recovery_truncated_tail_total"),
        }
    })
}
