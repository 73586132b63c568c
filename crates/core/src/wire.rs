//! Wire-path resilience: error taxonomy, deadlines and retry policy.
//!
//! Hyper-Q is always-on middleware sitting between latency-sensitive Q
//! applications and the backend (paper §3.1 argues for native wire
//! handling precisely because the proxy is in the hot path). That
//! position makes connection-lifecycle failures — a crashed backend, a
//! stalled network, a corrupt frame — ordinary events the wire path has
//! to absorb rather than exceptional ones that tear a session down.
//!
//! Three pieces cooperate:
//!
//! * [`WireError`] — a typed retryable-vs-fatal taxonomy. Everything the
//!   TCP legs can do wrong collapses into one of its kinds, so callers
//!   (the Gateway retry loop, the Endpoint's degradation path) can
//!   decide *mechanically* whether to reconnect, give up, or surface a
//!   protocol error.
//! * [`WireTimeouts`] — connect/read/write deadlines applied to both TCP
//!   legs via `set_read_timeout`/`set_write_timeout`.
//! * [`RetryPolicy`] — bounded attempts with an exponential, *jitter-free*
//!   backoff schedule. Determinism is deliberate: the chaos tests script
//!   exact failure sequences and must predict every reconnect.

use pgdb::DbError;
use std::fmt;
use std::time::Duration;

/// Classification of a wire-path failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Could not establish the TCP connection (or authentication during
    /// session establishment failed transiently). Retryable.
    ConnectFailed,
    /// The peer closed or reset the connection mid-stream. Retryable —
    /// the statement may be replayed if it is idempotent.
    ConnectionLost,
    /// A read or write deadline expired. Fatal: the backend may still be
    /// executing the statement, so silently re-running it could double
    /// its effects.
    Timeout,
    /// The byte stream violated the protocol (corrupt length prefix,
    /// undecodable frame, cell text that does not parse as its declared
    /// type). Fatal.
    Protocol,
    /// The retry policy ran out of attempts. Fatal; wraps the kind of
    /// the last underlying failure in its message.
    RetriesExhausted,
    /// The connection died while a non-idempotent statement was in
    /// flight. Fatal: replaying could apply the mutation twice.
    NonIdempotent,
    /// The server refused the connection at the protocol level (e.g. a
    /// connection-limit rejection). Fatal.
    Rejected,
    /// The backend executed the statement and returned a SQL error.
    /// Fatal at the wire level — the connection itself is healthy.
    Db,
    /// A scatter-gather fan-out lost one or more shards mid-query while
    /// others answered. Fatal as a whole-statement outcome — but the
    /// attached [`ShardFailure`] says exactly which shards failed and
    /// which partials arrived, so callers can degrade deliberately
    /// instead of treating the cluster as down.
    ShardPartial,
}

impl WireErrorKind {
    /// Stable lower-case label used in rendered messages (and asserted
    /// on by tests).
    pub fn label(self) -> &'static str {
        match self {
            WireErrorKind::ConnectFailed => "connect-failed",
            WireErrorKind::ConnectionLost => "connection-lost",
            WireErrorKind::Timeout => "timeout",
            WireErrorKind::Protocol => "protocol",
            WireErrorKind::RetriesExhausted => "retries-exhausted",
            WireErrorKind::NonIdempotent => "non-idempotent",
            WireErrorKind::Rejected => "rejected",
            WireErrorKind::Db => "backend",
            WireErrorKind::ShardPartial => "shard-partial",
        }
    }
}

/// Structured detail for a [`WireErrorKind::ShardPartial`] failure:
/// which shards of a scatter-gather fan-out failed (with the underlying
/// cause) and which shards' partial results did arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Failed shards: `(shard index, cause)`, ascending by index.
    pub failed: Vec<(usize, String)>,
    /// Shards whose partial results arrived, ascending by index.
    pub arrived: Vec<usize>,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lost: Vec<String> =
            self.failed.iter().map(|(i, cause)| format!("shard {i}: {cause}")).collect();
        write!(
            f,
            "{} of {} shards failed [{}]; partials arrived from shards {:?}",
            self.failed.len(),
            self.failed.len() + self.arrived.len(),
            lost.join("; "),
            self.arrived,
        )
    }
}

/// A typed wire-path error: what failed, and whether retrying can help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure classification.
    pub kind: WireErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// The backend SQL error, when `kind` is [`WireErrorKind::Db`].
    pub db: Option<DbError>,
    /// Per-shard failure detail, when `kind` is
    /// [`WireErrorKind::ShardPartial`].
    pub shard: Option<Box<ShardFailure>>,
}

impl WireError {
    /// Build an error of the given kind.
    pub fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        WireError { kind, message: message.into(), db: None, shard: None }
    }

    /// Typed partial failure of a scatter-gather fan-out.
    pub fn shard_partial(detail: ShardFailure) -> Self {
        WireError {
            kind: WireErrorKind::ShardPartial,
            message: detail.to_string(),
            db: None,
            shard: Some(Box::new(detail)),
        }
    }

    /// Connection-establishment failure.
    pub fn connect(message: impl Into<String>) -> Self {
        Self::new(WireErrorKind::ConnectFailed, message)
    }

    /// Mid-stream connection loss.
    pub fn lost(message: impl Into<String>) -> Self {
        Self::new(WireErrorKind::ConnectionLost, message)
    }

    /// Deadline expiry.
    pub fn timeout(message: impl Into<String>) -> Self {
        Self::new(WireErrorKind::Timeout, message)
    }

    /// Protocol violation.
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(WireErrorKind::Protocol, message)
    }

    /// Server-side rejection.
    pub fn rejected(message: impl Into<String>) -> Self {
        Self::new(WireErrorKind::Rejected, message)
    }

    /// Whether a fresh connection attempt could plausibly succeed where
    /// this failure did not. Drives the Gateway retry loop.
    pub fn retryable(&self) -> bool {
        matches!(self.kind, WireErrorKind::ConnectFailed | WireErrorKind::ConnectionLost)
    }

    /// Classify an I/O error from a socket read/write: deadline expiry
    /// maps to [`WireErrorKind::Timeout`], everything else to
    /// [`WireErrorKind::ConnectionLost`].
    pub fn from_io(context: &str, e: &std::io::Error) -> Self {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        if matches!(e.kind(), TimedOut | WouldBlock) {
            Self::timeout(format!("{context}: deadline exceeded"))
        } else {
            Self::lost(format!("{context}: {e}"))
        }
    }
}

impl From<DbError> for WireError {
    fn from(e: DbError) -> Self {
        WireError {
            kind: WireErrorKind::Db,
            message: e.message.clone(),
            db: Some(e),
            shard: None,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.db {
            Some(db) => write!(f, "{db}"),
            None => write!(f, "wire error ({}): {}", self.kind.label(), self.message),
        }
    }
}

impl std::error::Error for WireError {}

/// Connect/read/write deadlines for a TCP leg.
///
/// `None` disables the respective deadline (the pre-resilience
/// block-forever behaviour). Defaults are deliberately generous — they
/// exist to bound catastrophic stalls, not to race healthy queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimeouts {
    /// TCP connection establishment deadline.
    pub connect: Option<Duration>,
    /// Per-read deadline while awaiting response bytes.
    pub read: Option<Duration>,
    /// Per-write deadline.
    pub write: Option<Duration>,
}

impl Default for WireTimeouts {
    fn default() -> Self {
        WireTimeouts {
            connect: Some(Duration::from_secs(10)),
            read: Some(Duration::from_secs(30)),
            write: Some(Duration::from_secs(30)),
        }
    }
}

impl WireTimeouts {
    /// Apply the read/write deadlines to a connected stream.
    pub fn apply(&self, stream: &std::net::TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(self.read)?;
        stream.set_write_timeout(self.write)
    }
}

/// Bounded-attempt reconnect policy with a deterministic exponential
/// backoff schedule (no jitter, so fault-injection tests can predict the
/// exact sequence of reconnects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per subsequent retry.
    pub multiplier: u32,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            multiplier: 2,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// A policy with `max_attempts` attempts and no backoff delay —
    /// what the chaos tests use to keep wall-clock time down.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            multiplier: 2,
            max_backoff: Duration::ZERO,
        }
    }

    /// Backoff before retry number `retry` (1-based): `base *
    /// multiplier^(retry-1)`, capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self.multiplier.saturating_pow(retry.saturating_sub(1));
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(WireError::connect("x").retryable());
        assert!(WireError::lost("x").retryable());
        assert!(!WireError::timeout("x").retryable());
        assert!(!WireError::protocol("x").retryable());
        assert!(!WireError::rejected("x").retryable());
        assert!(!WireError::from(DbError::exec("boom")).retryable());
        assert!(!WireError::new(WireErrorKind::RetriesExhausted, "x").retryable());
        assert!(!WireError::new(WireErrorKind::NonIdempotent, "x").retryable());
    }

    #[test]
    fn io_errors_classify_by_kind() {
        let timed = std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow");
        assert_eq!(WireError::from_io("read", &timed).kind, WireErrorKind::Timeout);
        let reset = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "rst");
        assert_eq!(WireError::from_io("read", &reset).kind, WireErrorKind::ConnectionLost);
    }

    #[test]
    fn db_errors_display_unchanged() {
        let e = WireError::from(DbError { code: "42P01".into(), message: "no table".into() });
        assert_eq!(e.to_string(), "[42P01] no table");
        assert_eq!(
            WireError::timeout("backend read: deadline exceeded").to_string(),
            "wire error (timeout): backend read: deadline exceeded"
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            multiplier: 2,
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35)); // capped from 40
        assert_eq!(p.backoff(4), Duration::from_millis(35));
    }

    #[test]
    fn immediate_policy_has_zero_delays() {
        let p = RetryPolicy::immediate(4);
        assert_eq!(p.max_attempts, 4);
        assert_eq!(p.backoff(1), Duration::ZERO);
        assert_eq!(p.backoff(3), Duration::ZERO);
    }
}
