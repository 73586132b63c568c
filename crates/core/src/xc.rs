//! The Cross Compiler (XC)'s Protocol Translator as a finite state
//! machine (paper §3.4, Figure 4).
//!
//! "Each translator process is designed as a Finite State Machine that
//! maintains translator internal state while providing a mechanism for
//! code re-entrance." The PT owns the DB-protocol surface: it consumes
//! raw bytes, runs the QIPC handshake, extracts query text, and — once
//! the session hands back results — emits the response bytes.
//!
//! The paper's Query Translator is the session's translation
//! ([`crate::session::HyperQSession`] through
//! [`crate::translate::Translator`]): its stages are the `parse`,
//! `algebrize`, `optimize` and `serialize` spans of each query's trace,
//! timed as they run, not states of a machine here.

use qipc::{Compression, Message, MsgType};
use qlang::{QError, QResult, Value};
use std::net::IpAddr;

/// Protocol Translator states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtState {
    /// Waiting for the `user:pass\[version]\0` handshake.
    AwaitHandshake,
    /// Connection established; waiting for a query message.
    Idle,
    /// A query was forwarded to the QT; waiting for results.
    AwaitResults,
    /// Connection is closed (bad credentials or peer terminated).
    Closed,
}

/// Actions the PT asks its driver (the socket loop) to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum PtAction {
    /// Write these bytes to the Q application (the handshake's
    /// capability byte; replies are written by [`ProtocolTranslator::on_results`]
    /// and [`ProtocolTranslator::on_error`]).
    Send(Vec<u8>),
    /// Hand this query text to the session; `respond` is false for async
    /// messages (fire-and-forget).
    ForwardQuery {
        /// The Q query text.
        text: String,
        /// Whether the application awaits a response.
        respond: bool,
    },
    /// Close the connection.
    Close,
}

/// Credential check callback for the QIPC handshake.
pub type Authenticator = dyn Fn(&str, &str) -> bool + Send + Sync;

/// The Protocol Translator FSM for one QIPC connection.
pub struct ProtocolTranslator {
    state: PtState,
    buffer: Vec<u8>,
    max_frame: usize,
    /// Why this connection's replies always go out plain (the peer is on
    /// this host, or its handshake offered capability 0); `None` while
    /// kdb+'s size rule decides each reply.
    plain: Option<Compression>,
}

impl ProtocolTranslator {
    /// New connection from `peer`, awaiting its handshake. A message
    /// declaring more than `max_frame` bytes is a protocol error rather
    /// than an allocation.
    pub fn new(peer: IpAddr, max_frame: usize) -> Self {
        let plain = peer.to_canonical().is_loopback().then_some(Compression::Loopback);
        ProtocolTranslator { state: PtState::AwaitHandshake, buffer: Vec::new(), max_frame, plain }
    }

    /// Current state.
    pub fn state(&self) -> PtState {
        self.state
    }

    /// Whether an incomplete frame is sitting in the buffer. The socket
    /// loop uses this to tell an *idle* peer (no bytes owed — a read
    /// deadline expiring is fine) from a *stalled* one (mid-frame — the
    /// peer is gone and the connection should be dropped).
    pub fn has_partial(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Feed raw socket bytes; returns the actions to perform, in order.
    pub fn on_bytes(&mut self, data: &[u8], auth: &Authenticator) -> QResult<Vec<PtAction>> {
        self.buffer.extend_from_slice(data);
        let mut actions = Vec::new();
        loop {
            match self.state {
                PtState::AwaitHandshake => {
                    match qipc::parse_handshake(&self.buffer)? {
                        None => break,
                        Some((hs, used)) => {
                            self.buffer.drain(..used);
                            if auth(&hs.user, &hs.password) {
                                let capability = qipc::handshake::SERVER_CAPABILITY.min(hs.version);
                                if capability == 0 {
                                    self.plain.get_or_insert(Compression::Capability);
                                }
                                actions.push(PtAction::Send(vec![capability]));
                                self.state = PtState::Idle;
                            } else {
                                // Paper §4.2: on bad credentials the
                                // connection is closed immediately.
                                actions.push(PtAction::Close);
                                self.state = PtState::Closed;
                                break;
                            }
                        }
                    }
                }
                PtState::Idle => match qipc::read_message_limited(&self.buffer, self.max_frame)? {
                    None => break,
                    Some((msg, used)) => {
                        self.buffer.drain(..used);
                        let text = match msg.value {
                            Value::Chars(s) => s,
                            Value::Atom(qlang::Atom::Char(c)) => c.to_string(),
                            other => {
                                return Err(QError::type_err(format!(
                                    "expected query text, got {}",
                                    other.type_name()
                                )))
                            }
                        };
                        let respond = msg.msg_type == MsgType::Sync;
                        if respond {
                            self.state = PtState::AwaitResults;
                        }
                        actions.push(PtAction::ForwardQuery { text, respond });
                        if respond {
                            break;
                        }
                    }
                },
                PtState::AwaitResults | PtState::Closed => break,
            }
        }
        Ok(actions)
    }

    /// The QT produced results: append the QIPC response to `out` and
    /// return to Idle. kdb+'s rule picks the encoding: plain to a peer on
    /// this host or of capability 0, otherwise compressed when the payload
    /// is large and compressing halves it. Returns which case applied.
    pub fn on_results(&mut self, value: Value, out: &mut Vec<u8>) -> QResult<Compression> {
        if self.state != PtState::AwaitResults {
            return Err(QError::new(
                qlang::error::QErrorKind::Other,
                format!("protocol violation: results in state {:?}", self.state),
            ));
        }
        let reply = Message::response(value);
        let how = match self.plain {
            Some(reason) => qipc::write_message_into(&reply, out).map(|()| reason),
            None => qipc::write_message_compressed_into(&reply, out),
        }?;
        self.state = PtState::Idle;
        Ok(how)
    }

    /// The QT (or backend) errored: append a QIPC error response to `out`.
    pub fn on_error(&mut self, message: &str, out: &mut Vec<u8>) {
        // kdb+ error frames: type -128 followed by a NUL-terminated
        // string.
        let total = 8 + 1 + message.len() + 1;
        out.reserve(total);
        out.extend_from_slice(&[1, MsgType::Response.as_byte(), 0, 0]);
        out.extend_from_slice(&(total as u32).to_le_bytes());
        out.push(0x80);
        out.extend_from_slice(message.as_bytes());
        out.push(0);
        self.state = PtState::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trust(_: &str, _: &str) -> bool {
        true
    }

    fn deny(_: &str, _: &str) -> bool {
        false
    }

    /// A translator for a client on this host.
    fn local() -> ProtocolTranslator {
        ProtocolTranslator::new(IpAddr::from([127, 0, 0, 1]), qipc::DEFAULT_MAX_MESSAGE)
    }

    #[test]
    fn handshake_transitions_to_idle() {
        let mut pt = local();
        let hs = qipc::client_handshake("trader", "pw", 3);
        let actions = pt.on_bytes(&hs, &trust).unwrap();
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], PtAction::Send(b) if b.len() == 1));
        assert_eq!(pt.state(), PtState::Idle);
    }

    #[test]
    fn bad_credentials_close_immediately() {
        let mut pt = local();
        let hs = qipc::client_handshake("intruder", "pw", 3);
        let actions = pt.on_bytes(&hs, &deny).unwrap();
        assert_eq!(actions, vec![PtAction::Close]);
        assert_eq!(pt.state(), PtState::Closed);
    }

    #[test]
    fn query_message_forwards_and_awaits() {
        let mut pt = local();
        let mut bytes = qipc::client_handshake("u", "p", 3);
        bytes.extend(qipc::write_message(&Message::query("select from t")).unwrap());
        let actions = pt.on_bytes(&bytes, &trust).unwrap();
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            &actions[1],
            PtAction::ForwardQuery { text, respond: true } if text == "select from t"
        ));
        assert_eq!(pt.state(), PtState::AwaitResults);
    }

    #[test]
    fn results_produce_response_and_return_to_idle() {
        let mut pt = local();
        let mut bytes = qipc::client_handshake("u", "p", 3);
        bytes.extend(qipc::write_message(&Message::query("1+1")).unwrap());
        pt.on_bytes(&bytes, &trust).unwrap();
        let mut out = Vec::new();
        assert_eq!(pt.on_results(Value::long(2), &mut out).unwrap(), Compression::Loopback);
        let (msg, used) = qipc::read_message(&out).unwrap().unwrap();
        assert_eq!(used, out.len());
        assert_eq!(msg.msg_type, MsgType::Response);
        assert!(msg.value.q_eq(&Value::long(2)));
        assert_eq!(pt.state(), PtState::Idle);
    }

    #[test]
    fn results_in_wrong_state_are_a_protocol_violation() {
        let mut pt = local();
        let mut out = Vec::new();
        assert!(pt.on_results(Value::long(1), &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn partial_messages_resume_on_next_bytes() {
        let mut pt = local();
        let hs = qipc::client_handshake("u", "p", 3);
        // Feed one byte at a time.
        let mut got_send = false;
        for b in &hs {
            for a in pt.on_bytes(&[*b], &trust).unwrap() {
                if matches!(a, PtAction::Send(_)) {
                    got_send = true;
                }
            }
        }
        assert!(got_send);
        assert_eq!(pt.state(), PtState::Idle);
    }

    #[test]
    fn error_frames_encode_kdb_style() {
        let mut pt = local();
        let mut bytes = qipc::client_handshake("u", "p", 3);
        bytes.extend(qipc::write_message(&Message::query("bad")).unwrap());
        pt.on_bytes(&bytes, &trust).unwrap();
        let mut out = vec![0xAA];
        pt.on_error("'type: nope", &mut out);
        assert_eq!(out[1 + 8], 0x80, "kdb+ error marker");
        assert_eq!(out[1 + 4..1 + 8], ((out.len() - 1) as u32).to_le_bytes());
        assert_eq!(pt.state(), PtState::Idle);
    }

    #[test]
    fn oversized_qipc_frame_is_a_protocol_error() {
        let mut pt = ProtocolTranslator::new(IpAddr::from([127, 0, 0, 1]), 64);
        let mut bytes = qipc::client_handshake("u", "p", 3);
        // A syntactically valid header whose length declares 1 MiB.
        bytes.extend_from_slice(&[1, 1, 0, 0]);
        bytes.extend_from_slice(&(1024u32 * 1024).to_le_bytes());
        let err = pt.on_bytes(&bytes, &trust).unwrap_err();
        assert!(err.to_string().contains("exceeding"), "{err}");
    }

    #[test]
    fn partial_frames_are_visible_to_the_socket_loop() {
        let mut pt = local();
        let hs = qipc::client_handshake("u", "p", 3);
        pt.on_bytes(&hs, &trust).unwrap();
        assert!(!pt.has_partial(), "idle peer owes nothing");
        let msg = qipc::write_message(&Message::query("1+1")).unwrap();
        pt.on_bytes(&msg[..4], &trust).unwrap();
        assert!(pt.has_partial(), "mid-frame stall must be detectable");
    }
}
