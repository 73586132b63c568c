//! QIPC connection handshake.
//!
//! Paper §4.2: "When establishing a connection using QIPC specifications,
//! a client sends Hyper-Q a null-terminated ASCII string
//! `username:passwordN` where N is a single byte denoting client version.
//! If Hyper-Q accepts the credentials, it sends back a single byte
//! response. Otherwise, it closes the connection immediately."

use qlang::{QError, QResult};

/// Parsed client handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeReply {
    /// User name.
    pub user: String,
    /// Password (may be empty).
    pub password: String,
    /// Client capability version byte.
    pub version: u8,
}

/// Build the client's handshake bytes. Version 0 is sent as kdb+'s
/// oldest clients send it: with no version byte at all.
pub fn client_handshake(user: &str, password: &str, version: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(user.len() + password.len() + 3);
    out.extend_from_slice(user.as_bytes());
    out.push(b':');
    out.extend_from_slice(password.as_bytes());
    if version != 0 {
        out.push(version);
    }
    out.push(0);
    out
}

/// Parse a handshake from the head of `buf`. Returns the parse and the
/// consumed byte count, or `None` if more bytes are needed.
pub fn parse_handshake(buf: &[u8]) -> QResult<Option<(HandshakeReply, usize)>> {
    let Some(nul) = buf.iter().position(|&b| b == 0) else {
        // No terminator yet; cap runaway garbage.
        if buf.len() > 1024 {
            return Err(QError::length("handshake too long"));
        }
        return Ok(None);
    };
    if nul == 0 {
        return Err(QError::length("empty handshake"));
    }
    let body = &buf[..nul];
    // The last byte before the NUL is the version when it is a control
    // byte (credentials are text); a handshake without one is version 0.
    let (creds, version) = match body.split_last() {
        Some((&v, creds)) if v < 0x20 => (creds, v),
        _ => (body, 0),
    };
    let creds = String::from_utf8_lossy(creds);
    let (user, password) = match creds.split_once(':') {
        Some((u, p)) => (u.to_string(), p.to_string()),
        None => (creds.into_owned(), String::new()),
    };
    Ok(Some((HandshakeReply { user, password, version }, nul + 1)))
}

/// The single capability byte the server replies with on success.
/// kdb+ answers with the negotiated protocol version; 3 supports
/// timestamps and the types Hyper-Q emits.
pub const SERVER_CAPABILITY: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_round_trip() {
        let bytes = client_handshake("trader", "s3cret", 3);
        let (parsed, used) = parse_handshake(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.user, "trader");
        assert_eq!(parsed.password, "s3cret");
        assert_eq!(parsed.version, 3);
    }

    #[test]
    fn empty_password_allowed() {
        let bytes = client_handshake("trader", "", 3);
        let (parsed, _) = parse_handshake(&bytes).unwrap().unwrap();
        assert_eq!(parsed.user, "trader");
        assert_eq!(parsed.password, "");
    }

    #[test]
    fn incomplete_handshake_waits() {
        let bytes = client_handshake("trader", "pw", 3);
        assert!(parse_handshake(&bytes[..3]).unwrap().is_none());
    }

    #[test]
    fn oversized_junk_rejected() {
        let junk = vec![b'x'; 2000];
        assert!(parse_handshake(&junk).is_err());
    }

    #[test]
    fn a_handshake_without_a_version_byte_is_version_0() {
        let bytes = client_handshake("trader", "pw", 0);
        assert_eq!(bytes, b"trader:pw\0");
        let (parsed, used) = parse_handshake(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!((parsed.user.as_str(), parsed.password.as_str()), ("trader", "pw"));
        assert_eq!(parsed.version, 0);
    }

    #[test]
    fn no_colon_means_user_only() {
        let mut bytes = b"justuser".to_vec();
        bytes.push(3);
        bytes.push(0);
        let (parsed, _) = parse_handshake(&bytes).unwrap().unwrap();
        assert_eq!(parsed.user, "justuser");
        assert_eq!(parsed.password, "");
        assert_eq!(parsed.version, 3);
    }
}
