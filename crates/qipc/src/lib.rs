//! # qipc — the Q Inter-Process Communication wire protocol
//!
//! Q applications talk to kdb+ over QIPC (paper §3.1, §4.2): a TCP
//! protocol with a credential handshake (`"user:password" + version byte + NUL`,
//! answered by a single capability byte), followed by length-prefixed
//! messages that carry whole serialized Q objects.
//!
//! Crucially — and unlike PG v3 — QIPC is **object-based and
//! column-oriented**: a query result travels as *one* message containing
//! the full table, serialized column by column (paper Figure 5). The
//! Cross Compiler therefore has to buffer the PG row stream and pivot it
//! before it can answer the Q application.
//!
//! Framing: an 8-byte header — endianness byte (1 = little endian),
//! message type (0 async, 1 sync, 2 response), two reserved bytes, and a
//! 4-byte total length including the header — then the payload object.

pub mod compress;
pub mod decode;
pub mod encode;
pub mod handshake;

pub use decode::{decode_message, decode_message_limited, decode_value, DEFAULT_MAX_MESSAGE};
pub use encode::{encode_message, encode_value, Compression};
pub use handshake::{client_handshake, parse_handshake, HandshakeReply};

use qlang::QResult;
use std::sync::{Arc, OnceLock};

/// Frame/byte counters on the QIPC leg, registered once in the global
/// metrics registry. Encoded = frames leaving this process (responses to
/// the Q application), decoded = complete frames read off the wire.
struct QipcMetrics {
    frames_encoded: Arc<obs::Counter>,
    bytes_encoded: Arc<obs::Counter>,
    frames_decoded: Arc<obs::Counter>,
    bytes_decoded: Arc<obs::Counter>,
}

fn metrics() -> &'static QipcMetrics {
    static METRICS: OnceLock<QipcMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        QipcMetrics {
            frames_encoded: reg.counter("qipc_frames_encoded_total"),
            bytes_encoded: reg.counter("qipc_bytes_encoded_total"),
            frames_decoded: reg.counter("qipc_frames_decoded_total"),
            bytes_decoded: reg.counter("qipc_bytes_decoded_total"),
        }
    })
}

/// QIPC message type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// Fire-and-forget.
    Async,
    /// Request expecting a response.
    Sync,
    /// Response to a sync request.
    Response,
}

impl MsgType {
    /// Wire byte.
    pub fn as_byte(self) -> u8 {
        match self {
            MsgType::Async => 0,
            MsgType::Sync => 1,
            MsgType::Response => 2,
        }
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        Some(match b {
            0 => MsgType::Async,
            1 => MsgType::Sync,
            2 => MsgType::Response,
            _ => return None,
        })
    }
}

/// A complete QIPC message: type plus payload value.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sync/async/response.
    pub msg_type: MsgType,
    /// The payload object.
    pub value: qlang::Value,
}

impl Message {
    /// A sync request carrying Q query text (how Q clients send queries:
    /// "the client sends queries in the form of raw text", §4.2).
    pub fn query(text: &str) -> Message {
        Message { msg_type: MsgType::Sync, value: qlang::Value::Chars(text.to_string()) }
    }

    /// A response message.
    pub fn response(value: qlang::Value) -> Message {
        Message { msg_type: MsgType::Response, value }
    }
}

/// Encode a full message (header + payload).
pub fn write_message(msg: &Message) -> QResult<Vec<u8>> {
    let mut out = Vec::new();
    write_message_into(msg, &mut out)?;
    Ok(out)
}

/// Append a full plain message to `out`.
pub fn write_message_into(msg: &Message, out: &mut Vec<u8>) -> QResult<()> {
    let start = out.len();
    encode::encode_message_into(msg, out)?;
    count_encoded(out.len() - start);
    Ok(())
}

/// Encode a message, compressing the payload under kdb+'s size rule
/// (paper §3.1 lists compression as part of the QIPC protocol).
pub fn write_message_compressed(msg: &Message) -> QResult<Vec<u8>> {
    let mut out = Vec::new();
    write_message_compressed_into(msg, &mut out)?;
    Ok(out)
}

/// Append a message to `out`, its payload compressed only when it is
/// large and compressing halves it; returns which of those held.
pub fn write_message_compressed_into(msg: &Message, out: &mut Vec<u8>) -> QResult<Compression> {
    let start = out.len();
    let how = encode::encode_message_compressed_into(msg, out)?;
    count_encoded(out.len() - start);
    Ok(how)
}

fn count_encoded(bytes: usize) {
    let m = metrics();
    m.frames_encoded.inc();
    m.bytes_encoded.add(bytes as u64);
}

/// Try to decode one message from the front of `buf`; returns the
/// message and the number of bytes consumed. Frames declaring more than
/// [`DEFAULT_MAX_MESSAGE`] bytes are rejected as protocol errors.
pub fn read_message(buf: &[u8]) -> QResult<Option<(Message, usize)>> {
    let decoded = decode_message(buf)?;
    if let Some((_, used)) = &decoded {
        let m = metrics();
        m.frames_decoded.inc();
        m.bytes_decoded.add(*used as u64);
    }
    Ok(decoded)
}

/// [`read_message`] with an explicit frame-length ceiling.
pub fn read_message_limited(buf: &[u8], max: usize) -> QResult<Option<(Message, usize)>> {
    let decoded = decode_message_limited(buf, max)?;
    if let Some((_, used)) = &decoded {
        let m = metrics();
        m.frames_decoded.inc();
        m.bytes_decoded.add(*used as u64);
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlang::Value;

    #[test]
    fn query_messages_are_sync_char_vectors() {
        let m = Message::query("select from trades");
        assert_eq!(m.msg_type, MsgType::Sync);
        assert!(matches!(m.value, Value::Chars(_)));
    }

    #[test]
    fn msg_type_round_trip() {
        for t in [MsgType::Async, MsgType::Sync, MsgType::Response] {
            assert_eq!(MsgType::from_byte(t.as_byte()), Some(t));
        }
        assert_eq!(MsgType::from_byte(9), None);
    }
}
