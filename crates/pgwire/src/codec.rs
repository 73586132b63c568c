//! Encoding and decoding of PG v3 messages over byte buffers.
//!
//! Framing (paper §4.2): one type byte (absent on the start-up packet),
//! then a big-endian i32 length that *includes itself*, then the body.
//!
//! The length prefix is attacker-controlled input: a corrupt or hostile
//! peer can declare any frame size it likes. Decoding therefore rejects
//! frames whose declared length is negative, smaller than the length
//! field itself, or larger than a configurable ceiling
//! ([`DEFAULT_MAX_FRAME`]) — a [`FrameError`] instead of an unbounded
//! allocation.
//!
//! Encoders append to the caller's `Vec<u8>` (a connection's output
//! buffer) and patch each frame's length in place; the reader hands out
//! frame bodies as slices of its own buffer. Neither side allocates per
//! frame.

use crate::messages::{
    AuthRequest, BackendMessage, FieldDesc, Format, FrontendMessage, TransactionStatus, TypeOid,
};
use std::fmt;
use std::io::Read;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Default ceiling on a declared frame length: 64 MiB.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// How much room [`MessageReader::fill_from`] offers the socket per
/// read: large enough that a multi-thousand-row reply arrives in a few
/// system calls.
const READ_CHUNK: usize = 64 * 1024;

/// Frame counters on the PG v3 leg, registered once in the global
/// metrics registry. Encoded counts frames produced by this process
/// (either direction); decoded counts complete frames read off the wire.
struct PgwireMetrics {
    frames_encoded: Arc<obs::Counter>,
    frames_decoded: Arc<obs::Counter>,
}

fn metrics() -> &'static PgwireMetrics {
    static METRICS: OnceLock<PgwireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        PgwireMetrics {
            frames_encoded: reg.counter("pgwire_frames_encoded_total"),
            frames_decoded: reg.counter("pgwire_frames_decoded_total"),
        }
    })
}

/// Account for `n` frames written by an encoder outside this module
/// (the columnar `DataRow` encoder counts a batch at a time).
pub(crate) fn count_encoded(n: u64) {
    metrics().frames_encoded.add(n);
}

/// A framing-level protocol violation (corrupt or hostile length
/// prefix, undecodable message body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was wrong with the frame.
    pub message: String,
}

impl FrameError {
    fn new(message: impl Into<String>) -> Self {
        FrameError { message: message.into() }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pgwire protocol error: {}", self.message)
    }
}

impl std::error::Error for FrameError {}

/// Validate a declared frame length (the 4 length bytes themselves are
/// included in `len`).
fn check_len(len: i32, max: usize) -> Result<usize, FrameError> {
    if len < 4 {
        return Err(FrameError::new(format!("declared frame length {len} is below the minimum of 4")));
    }
    let len = len as usize;
    if len > max {
        return Err(FrameError::new(format!(
            "declared frame length {len} exceeds the {max}-byte limit"
        )));
    }
    Ok(len)
}

/// Append one frame to `out`: the type byte (none for the start-up
/// packet), a length placeholder, whatever `body` writes, then the
/// length patched in place.
pub(crate) fn frame(out: &mut Vec<u8>, ty: Option<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    out.extend(ty);
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - at) as i32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

fn put_i16(out: &mut Vec<u8>, v: i16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_cstr(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

/// Encode a frontend message onto the end of `out`.
pub fn encode_frontend(msg: &FrontendMessage, out: &mut Vec<u8>) {
    metrics().frames_encoded.inc();
    match msg {
        FrontendMessage::Startup { params } => frame(out, None, |b| {
            put_i32(b, crate::PROTOCOL_VERSION);
            for (k, v) in params {
                put_cstr(b, k);
                put_cstr(b, v);
            }
            b.push(0);
        }),
        FrontendMessage::Password(p) => frame(out, Some(b'p'), |b| put_cstr(b, p)),
        FrontendMessage::Query(sql) => frame(out, Some(b'Q'), |b| put_cstr(b, sql)),
        FrontendMessage::Parse { statement, sql, param_types } => frame(out, Some(b'P'), |b| {
            put_cstr(b, statement);
            put_cstr(b, sql);
            put_i16(b, param_types.len() as i16);
            for oid in param_types {
                b.extend_from_slice(&oid.to_be_bytes());
            }
        }),
        FrontendMessage::Bind { portal, statement, param_formats, params, result_formats } => {
            frame(out, Some(b'B'), |b| {
                put_cstr(b, portal);
                put_cstr(b, statement);
                put_i16(b, param_formats.len() as i16);
                for f in param_formats {
                    put_i16(b, *f);
                }
                put_i16(b, params.len() as i16);
                for p in params {
                    match p {
                        None => put_i32(b, -1),
                        Some(bytes) => {
                            put_i32(b, bytes.len() as i32);
                            b.extend_from_slice(bytes);
                        }
                    }
                }
                put_i16(b, result_formats.len() as i16);
                for f in result_formats {
                    put_i16(b, *f);
                }
            })
        }
        FrontendMessage::Describe { kind, name } => frame(out, Some(b'D'), |b| {
            b.push(*kind);
            put_cstr(b, name);
        }),
        FrontendMessage::Execute { portal, max_rows } => frame(out, Some(b'E'), |b| {
            put_cstr(b, portal);
            put_i32(b, *max_rows);
        }),
        FrontendMessage::Sync => frame(out, Some(b'S'), |_| {}),
        FrontendMessage::Terminate => frame(out, Some(b'X'), |_| {}),
    }
}

/// Encode the extended-query batch that runs `sql` once and asks for
/// every result column in `result_format` — `Parse`, `Bind`, `Describe`
/// (portal), `Execute`, `Sync` on the unnamed statement and portal —
/// onto the end of `out`, to go out in one write. This is how a PG v3
/// client gets binary results; a simple `Query` can only be answered in
/// text.
pub fn encode_extended_query(sql: &str, result_format: Format, out: &mut Vec<u8>) {
    for msg in [
        FrontendMessage::Parse {
            statement: String::new(),
            sql: sql.to_string(),
            param_types: Vec::new(),
        },
        FrontendMessage::Bind {
            portal: String::new(),
            statement: String::new(),
            param_formats: Vec::new(),
            params: Vec::new(),
            result_formats: vec![result_format.code()],
        },
        FrontendMessage::Describe { kind: b'P', name: String::new() },
        FrontendMessage::Execute { portal: String::new(), max_rows: 0 },
        FrontendMessage::Sync,
    ] {
        encode_frontend(&msg, out);
    }
}

/// Encode a backend message onto the end of `out`.
pub fn encode_backend(msg: &BackendMessage, out: &mut Vec<u8>) {
    metrics().frames_encoded.inc();
    match msg {
        BackendMessage::Authentication(req) => frame(out, Some(b'R'), |b| match req {
            AuthRequest::Ok => put_i32(b, 0),
            AuthRequest::CleartextPassword => put_i32(b, 3),
            AuthRequest::Md5Password { salt } => {
                put_i32(b, 5);
                b.extend_from_slice(salt);
            }
        }),
        BackendMessage::ParameterStatus { name, value } => frame(out, Some(b'S'), |b| {
            put_cstr(b, name);
            put_cstr(b, value);
        }),
        BackendMessage::BackendKeyData { pid, secret } => frame(out, Some(b'K'), |b| {
            put_i32(b, *pid);
            put_i32(b, *secret);
        }),
        BackendMessage::ReadyForQuery(status) => frame(out, Some(b'Z'), |b| b.push(status.as_byte())),
        BackendMessage::RowDescription(fields) => frame(out, Some(b'T'), |b| {
            put_i16(b, fields.len() as i16);
            for f in fields {
                put_cstr(b, &f.name);
                put_i32(b, 0); // table oid
                put_i16(b, 0); // attnum
                b.extend_from_slice(&f.type_oid.as_u32().to_be_bytes());
                put_i16(b, -1); // typlen
                put_i32(b, -1); // typmod
                put_i16(b, f.format);
            }
        }),
        BackendMessage::DataRow(cells) => frame(out, Some(b'D'), |b| {
            put_i16(b, cells.len() as i16);
            for c in cells {
                match c {
                    None => put_i32(b, -1),
                    Some(text) => {
                        put_i32(b, text.len() as i32);
                        b.extend_from_slice(text.as_bytes());
                    }
                }
            }
        }),
        BackendMessage::CommandComplete(tag) => frame(out, Some(b'C'), |b| put_cstr(b, tag)),
        BackendMessage::EmptyQueryResponse => frame(out, Some(b'I'), |_| {}),
        BackendMessage::ParseComplete => frame(out, Some(b'1'), |_| {}),
        BackendMessage::BindComplete => frame(out, Some(b'2'), |_| {}),
        BackendMessage::NoData => frame(out, Some(b'n'), |_| {}),
        BackendMessage::ErrorResponse { severity, code, message } => frame(out, Some(b'E'), |b| {
            b.push(b'S');
            put_cstr(b, severity);
            b.push(b'C');
            put_cstr(b, code);
            b.push(b'M');
            put_cstr(b, message);
            b.push(0);
        }),
    }
}

/// Bounds-checked reads over a message body: every accessor answers
/// `None` instead of running past the end, so a lying body yields a
/// decode failure, never a panic.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N).map(|b| b.try_into().expect("split at N"))
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    pub(crate) fn i16(&mut self) -> Option<i16> {
        self.array().map(i16::from_be_bytes)
    }

    pub(crate) fn i32(&mut self) -> Option<i32> {
        self.array().map(i32::from_be_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A NUL-terminated string. Invalid UTF-8 is a decode failure, not
    /// a replacement character: names and field text end up in Q
    /// symbols.
    fn cstr(&mut self) -> Option<String> {
        let pos = self.0.iter().position(|&b| b == 0)?;
        let s = std::str::from_utf8(&self.0[..pos]).ok()?.to_owned();
        self.0 = &self.0[pos + 1..];
        Some(s)
    }

    /// A non-negative i16 count.
    fn count(&mut self) -> Option<usize> {
        usize::try_from(self.i16()?).ok()
    }
}

/// Decode the untyped start-up packet body.
fn decode_startup(body: &[u8]) -> Result<FrontendMessage, FrameError> {
    let mut body = Cursor(body);
    if body.i32().is_none() {
        return Err(FrameError::new("start-up packet too short for a protocol version"));
    }
    let mut params = Vec::new();
    while body.0.len() > 1 {
        let Some(k) = body.cstr() else {
            return Err(FrameError::new("unterminated start-up parameter name"));
        };
        if k.is_empty() {
            break;
        }
        let Some(v) = body.cstr() else {
            return Err(FrameError::new("unterminated start-up parameter value"));
        };
        params.push((k, v));
    }
    Ok(FrontendMessage::Startup { params })
}

/// Decode a typed frontend message body. `None` means the body is
/// malformed for its type.
pub fn decode_frontend(ty: u8, body: &[u8]) -> Option<FrontendMessage> {
    let mut body = Cursor(body);
    match ty {
        b'p' => Some(FrontendMessage::Password(body.cstr()?)),
        b'Q' => Some(FrontendMessage::Query(body.cstr()?)),
        b'P' => {
            let statement = body.cstr()?;
            let sql = body.cstr()?;
            let n = body.count()?;
            let param_types = (0..n).map(|_| body.u32()).collect::<Option<_>>()?;
            Some(FrontendMessage::Parse { statement, sql, param_types })
        }
        b'B' => {
            let portal = body.cstr()?;
            let statement = body.cstr()?;
            let n = body.count()?;
            let param_formats = (0..n).map(|_| body.i16()).collect::<Option<_>>()?;
            let n = body.count()?;
            let mut params = Vec::with_capacity(n.min(body.0.len()));
            for _ in 0..n {
                params.push(match body.i32()? {
                    -1 => None,
                    len => Some(body.bytes(usize::try_from(len).ok()?)?.to_vec()),
                });
            }
            let n = body.count()?;
            let result_formats = (0..n).map(|_| body.i16()).collect::<Option<_>>()?;
            Some(FrontendMessage::Bind { portal, statement, param_formats, params, result_formats })
        }
        b'D' => Some(FrontendMessage::Describe { kind: body.u8()?, name: body.cstr()? }),
        b'E' => Some(FrontendMessage::Execute { portal: body.cstr()?, max_rows: body.i32()? }),
        b'S' => Some(FrontendMessage::Sync),
        b'X' => Some(FrontendMessage::Terminate),
        _ => None,
    }
}

/// Decode a typed backend message body. `None` means the body is
/// malformed for its type. Every multi-byte read is bounds-checked so a
/// lying body yields `None`, never a panic.
pub fn decode_backend(ty: u8, body: &[u8]) -> Option<BackendMessage> {
    let mut body = Cursor(body);
    match ty {
        b'R' => Some(BackendMessage::Authentication(match body.i32()? {
            0 => AuthRequest::Ok,
            3 => AuthRequest::CleartextPassword,
            5 => AuthRequest::Md5Password { salt: body.array()? },
            _ => return None,
        })),
        b'S' => Some(BackendMessage::ParameterStatus { name: body.cstr()?, value: body.cstr()? }),
        b'K' => Some(BackendMessage::BackendKeyData { pid: body.i32()?, secret: body.i32()? }),
        b'Z' => {
            let status = match body.u8()? {
                b'I' => TransactionStatus::Idle,
                b'T' => TransactionStatus::InTransaction,
                _ => TransactionStatus::Failed,
            };
            Some(BackendMessage::ReadyForQuery(status))
        }
        b'T' => {
            let n = body.count()?;
            let mut fields = Vec::with_capacity(n.min(body.0.len()));
            for _ in 0..n {
                let name = body.cstr()?;
                let _table_oid = body.i32()?;
                let _attnum = body.i16()?;
                let type_oid = TypeOid::from_u32(body.u32()?)?;
                let _typlen = body.i16()?;
                let _typmod = body.i32()?;
                let format = body.i16()?;
                fields.push(FieldDesc { name, type_oid, format });
            }
            Some(BackendMessage::RowDescription(fields))
        }
        b'D' => {
            let n = body.count()?;
            let mut cells = Vec::with_capacity(n.min(body.0.len()));
            for _ in 0..n {
                cells.push(match body.i32()? {
                    -1 => None,
                    len => {
                        let bytes = body.bytes(usize::try_from(len).ok()?)?;
                        Some(std::str::from_utf8(bytes).ok()?.to_owned())
                    }
                });
            }
            Some(BackendMessage::DataRow(cells))
        }
        b'C' => Some(BackendMessage::CommandComplete(body.cstr()?)),
        b'I' => Some(BackendMessage::EmptyQueryResponse),
        b'1' => Some(BackendMessage::ParseComplete),
        b'2' => Some(BackendMessage::BindComplete),
        b'n' => Some(BackendMessage::NoData),
        b'E' => {
            let mut severity = String::new();
            let mut code = String::new();
            let mut message = String::new();
            while let Some(tag) = body.u8() {
                if tag == 0 {
                    break;
                }
                let val = body.cstr()?;
                match tag {
                    b'S' => severity = val,
                    b'C' => code = val,
                    b'M' => message = val,
                    _ => {}
                }
            }
            Some(BackendMessage::ErrorResponse { severity, code, message })
        }
        _ => None,
    }
}

/// Message types this implementation understands; anything else in the
/// stream is a well-framed message we simply skip (PG peers may send
/// e.g. `NoticeResponse` frames).
fn known_frontend(ty: u8) -> bool {
    matches!(ty, b'p' | b'Q' | b'P' | b'B' | b'D' | b'E' | b'S' | b'X')
}

fn known_backend(ty: u8) -> bool {
    matches!(ty, b'R' | b'S' | b'K' | b'Z' | b'T' | b'D' | b'C' | b'I' | b'E' | b'1' | b'2' | b'n')
}

/// Incremental reader that takes raw bytes in and yields messages — the
/// shape both TCP loops use.
///
/// Bytes arrive either copied in ([`MessageReader::feed`]) or read from
/// the socket straight into the reader's own buffer
/// ([`MessageReader::fill_from`]); frames come out either decoded
/// (`next_frontend`/`next_backend`) or as `(type, body)` slices of that
/// buffer ([`MessageReader::next_backend_frame`]) for consumers that
/// decode in place.
///
/// The reader enforces a per-frame size ceiling
/// ([`DEFAULT_MAX_FRAME`] unless overridden with [`MessageReader::with_max_frame`]):
/// a frame whose declared length exceeds it is a [`FrameError`], not an
/// allocation.
#[derive(Debug)]
pub struct MessageReader {
    /// `buf[start..end]` holds the bytes not yet handed out; the rest
    /// of `buf` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
    /// Whether the next message is the untyped start-up packet
    /// (server side only).
    pub expect_startup: bool,
    /// Frames handed out but not yet added to
    /// `pgwire_frames_decoded_total`: the shared counter is brought up
    /// to date once per read's worth of frames, not once per frame.
    uncounted: u64,
}

impl Default for MessageReader {
    fn default() -> Self {
        Self::new(false)
    }
}

impl MessageReader {
    /// Create a reader; set `expect_startup` for server-side use.
    pub fn new(expect_startup: bool) -> Self {
        Self::with_max_frame(expect_startup, DEFAULT_MAX_FRAME)
    }

    /// Create a reader with an explicit per-frame size ceiling.
    pub fn with_max_frame(expect_startup: bool, max_frame: usize) -> Self {
        MessageReader { buf: Vec::new(), start: 0, end: 0, max_frame, expect_startup, uncounted: 0 }
    }

    /// At least `want` writable bytes after the buffered ones, moving
    /// an unread tail to the front rather than growing when that makes
    /// the room.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Append raw bytes from the socket.
    pub fn feed(&mut self, data: &[u8]) {
        self.spare(data.len())[..data.len()].copy_from_slice(data);
        self.end += data.len();
    }

    /// One `read` from `src` straight into the reader's buffer, with at
    /// least 64 KiB of room on offer. Returns the byte count (0 = end
    /// of stream).
    pub fn fill_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let n = src.read(self.spare(READ_CHUNK))?;
        self.end += n;
        Ok(n)
    }

    /// Whether a partial frame is buffered — bytes have arrived but do
    /// not yet form a complete message. Drives partial-frame-aware read
    /// deadlines: an idle peer is fine, a peer that stalls mid-frame is
    /// not.
    pub fn has_partial(&self) -> bool {
        self.start != self.end
    }

    /// Bring `pgwire_frames_decoded_total` up to date.
    fn settle(&mut self) {
        if self.uncounted > 0 {
            metrics().frames_decoded.add(self.uncounted);
            self.uncounted = 0;
        }
    }

    /// Pop the next complete frame (the untyped start-up packet unless
    /// `typed`) and give its type and its body's position in `buf`.
    fn pop(&mut self, typed: bool) -> Result<Option<(u8, Range<usize>)>, FrameError> {
        let head = usize::from(typed);
        let avail = self.end - self.start;
        if avail >= head + 4 {
            let at = self.start + head;
            let declared = i32::from_be_bytes(self.buf[at..at + 4].try_into().expect("4 bytes"));
            let len = check_len(declared, self.max_frame)?;
            if avail >= head + len {
                let ty = if typed { self.buf[self.start] } else { 0 };
                self.start += head + len;
                return Ok(Some((ty, at + 4..at + len)));
            }
        }
        // Everything complete has been handed out: the frames of this
        // read are counted in one addition.
        self.settle();
        Ok(None)
    }

    /// Pop the next complete frame whose type `known` accepts, skipping
    /// the others.
    fn pop_known(&mut self, known: fn(u8) -> bool) -> Result<Option<(u8, Range<usize>)>, FrameError> {
        while let Some((ty, body)) = self.pop(true)? {
            if known(ty) {
                self.uncounted += 1;
                // A reply's last frame leaves nothing buffered and no
                // further call to notice it: count now.
                if !self.has_partial() {
                    self.settle();
                }
                return Ok(Some((ty, body)));
            }
        }
        Ok(None)
    }

    /// Pop the next complete frontend message, if any.
    pub fn next_frontend(&mut self) -> Result<Option<FrontendMessage>, FrameError> {
        if self.expect_startup {
            let Some((_, body)) = self.pop(false)? else { return Ok(None) };
            let msg = decode_startup(&self.buf[body])?;
            self.expect_startup = false;
            self.uncounted += 1;
            return Ok(Some(msg));
        }
        let Some((ty, body)) = self.pop_known(known_frontend)? else { return Ok(None) };
        decode_frontend(ty, &self.buf[body]).map(Some).ok_or_else(|| {
            FrameError::new(format!("malformed '{}' frontend message body", ty as char))
        })
    }

    /// Pop the next complete backend frame as `(type, body)`, the body
    /// a slice of the reader's buffer; frames of types this
    /// implementation does not know are skipped.
    pub fn next_backend_frame(&mut self) -> Result<Option<(u8, &[u8])>, FrameError> {
        Ok(self.pop_known(known_backend)?.map(|(ty, body)| (ty, &self.buf[body])))
    }

    /// Pop the next complete backend message, if any.
    pub fn next_backend(&mut self) -> Result<Option<BackendMessage>, FrameError> {
        let Some((ty, body)) = self.next_backend_frame()? else { return Ok(None) };
        decode_backend(ty, body).map(Some).ok_or_else(|| {
            FrameError::new(format!("malformed '{}' backend message body", ty as char))
        })
    }
}

impl Drop for MessageReader {
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_frontend(msg: FrontendMessage) -> FrontendMessage {
        let mut buf = Vec::new();
        encode_frontend(&msg, &mut buf);
        let startup = matches!(msg, FrontendMessage::Startup { .. });
        let mut reader = MessageReader::new(startup);
        reader.feed(&buf);
        reader.next_frontend().expect("framing").expect("decode")
    }

    fn round_trip_backend(msg: BackendMessage) -> BackendMessage {
        let mut buf = Vec::new();
        encode_backend(&msg, &mut buf);
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        reader.next_backend().expect("framing").expect("decode")
    }

    #[test]
    fn startup_round_trip() {
        let msg = FrontendMessage::Startup {
            params: vec![
                ("user".into(), "trader".into()),
                ("database".into(), "hist".into()),
            ],
        };
        assert_eq!(round_trip_frontend(msg.clone()), msg);
    }

    #[test]
    fn query_round_trip() {
        let msg = FrontendMessage::Query("SELECT 1".into());
        assert_eq!(round_trip_frontend(msg.clone()), msg);
    }

    #[test]
    fn password_and_terminate() {
        assert_eq!(
            round_trip_frontend(FrontendMessage::Password("md5abc".into())),
            FrontendMessage::Password("md5abc".into())
        );
        assert_eq!(round_trip_frontend(FrontendMessage::Terminate), FrontendMessage::Terminate);
    }

    #[test]
    fn extended_query_messages_round_trip() {
        for msg in [
            FrontendMessage::Parse {
                statement: String::new(),
                sql: "SELECT x FROM t".into(),
                param_types: vec![20, 701],
            },
            FrontendMessage::Bind {
                portal: String::new(),
                statement: String::new(),
                param_formats: vec![1],
                params: vec![Some(vec![0, 0, 0, 7]), None],
                result_formats: vec![1],
            },
            FrontendMessage::Describe { kind: b'P', name: String::new() },
            FrontendMessage::Execute { portal: String::new(), max_rows: 0 },
            FrontendMessage::Sync,
        ] {
            assert_eq!(round_trip_frontend(msg.clone()), msg);
        }
        for msg in [BackendMessage::ParseComplete, BackendMessage::BindComplete, BackendMessage::NoData] {
            assert_eq!(round_trip_backend(msg.clone()), msg);
        }
    }

    #[test]
    fn bind_whose_parameter_runs_past_the_frame_is_malformed() {
        let mut buf = Vec::new();
        frame(&mut buf, Some(b'B'), |b| {
            b.extend_from_slice(b"\0\0");
            put_i16(b, 0);
            put_i16(b, 1);
            put_i32(b, 1000);
            b.extend_from_slice(b"xx");
        });
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        assert!(reader.next_frontend().is_err());
    }

    #[test]
    fn auth_variants_round_trip() {
        for req in [
            AuthRequest::Ok,
            AuthRequest::CleartextPassword,
            AuthRequest::Md5Password { salt: [9, 8, 7, 6] },
        ] {
            assert_eq!(
                round_trip_backend(BackendMessage::Authentication(req)),
                BackendMessage::Authentication(req)
            );
        }
    }

    #[test]
    fn row_description_round_trip_keeps_format_codes() {
        let msg = BackendMessage::RowDescription(vec![
            FieldDesc::text("ordcol", TypeOid::Int8),
            FieldDesc { name: "Price".into(), type_oid: TypeOid::Float8, format: 1 },
            // Not a format this implementation reads, but one it must
            // carry to whoever names the column in the error.
            FieldDesc { name: "odd".into(), type_oid: TypeOid::Int4, format: 7 },
        ]);
        assert_eq!(round_trip_backend(msg.clone()), msg);
    }

    #[test]
    fn data_row_with_nulls_round_trip() {
        let msg = BackendMessage::DataRow(vec![Some("1".into()), None, Some("GOOG".into())]);
        assert_eq!(round_trip_backend(msg.clone()), msg);
    }

    #[test]
    fn invalid_utf8_in_a_text_field_is_a_frame_error_not_a_replacement_char() {
        // Regression: `from_utf8_lossy` turned bad bytes into U+FFFD,
        // which then travelled on as symbol text.
        let mut buf = Vec::new();
        frame(&mut buf, Some(b'D'), |b| {
            put_i16(b, 1);
            put_i32(b, 2);
            b.extend_from_slice(&[0xC3, 0x28]);
        });
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        assert!(reader.next_backend().is_err());
    }

    #[test]
    fn error_response_round_trip() {
        let msg = BackendMessage::ErrorResponse {
            severity: "ERROR".into(),
            code: "42P01".into(),
            message: "relation \"nope\" does not exist".into(),
        };
        assert_eq!(round_trip_backend(msg.clone()), msg);
    }

    #[test]
    fn command_complete_and_ready() {
        assert_eq!(
            round_trip_backend(BackendMessage::CommandComplete("SELECT 3".into())),
            BackendMessage::CommandComplete("SELECT 3".into())
        );
        assert_eq!(
            round_trip_backend(BackendMessage::ReadyForQuery(TransactionStatus::Idle)),
            BackendMessage::ReadyForQuery(TransactionStatus::Idle)
        );
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_backend(&BackendMessage::CommandComplete("SELECT 1".into()), &mut buf);
        let mut reader = MessageReader::new(false);
        // Feed one byte at a time; the message appears only when whole.
        let mut produced = None;
        for b in buf.iter() {
            reader.feed(&[*b]);
            if let Some(m) = reader.next_backend().unwrap() {
                produced = Some(m);
            }
        }
        assert_eq!(produced, Some(BackendMessage::CommandComplete("SELECT 1".into())));
    }

    #[test]
    fn multiple_messages_in_one_feed() {
        let mut buf = Vec::new();
        encode_backend(&BackendMessage::DataRow(vec![Some("1".into())]), &mut buf);
        encode_backend(&BackendMessage::DataRow(vec![Some("2".into())]), &mut buf);
        encode_backend(&BackendMessage::CommandComplete("SELECT 2".into()), &mut buf);
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        assert!(matches!(reader.next_backend().unwrap(), Some(BackendMessage::DataRow(_))));
        assert!(matches!(reader.next_backend().unwrap(), Some(BackendMessage::DataRow(_))));
        assert!(matches!(
            reader.next_backend().unwrap(),
            Some(BackendMessage::CommandComplete(_))
        ));
        assert!(reader.next_backend().unwrap().is_none());
    }

    #[test]
    fn fill_from_reads_straight_into_the_buffer_across_frame_boundaries() {
        // 5 000 rows arrive through a source that hands out odd-sized
        // pieces, so frames straddle reads and the unread tail has to
        // move to the front again and again.
        struct Dribble<'a>(&'a [u8], usize);
        impl Read for Dribble<'_> {
            fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
                self.1 = self.1 % 4099 + 613;
                let n = self.1.min(self.0.len()).min(dst.len());
                dst[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut wire = Vec::new();
        for i in 0..5_000 {
            encode_backend(&BackendMessage::DataRow(vec![Some(i.to_string()), None]), &mut wire);
        }
        let mut src = Dribble(&wire, 0);
        let mut reader = MessageReader::new(false);
        let mut seen = 0usize;
        loop {
            while let Some((ty, body)) = reader.next_backend_frame().unwrap() {
                assert_eq!(ty, b'D');
                let row = decode_backend(ty, body).unwrap();
                assert_eq!(row, BackendMessage::DataRow(vec![Some(seen.to_string()), None]));
                seen += 1;
            }
            if reader.fill_from(&mut src).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(seen, 5_000);
        assert!(!reader.has_partial());
    }

    #[test]
    fn oversized_declared_length_is_a_frame_error_not_an_allocation() {
        // A frame claiming 100 MiB: rejected as soon as the header is
        // visible, far before 100 MiB ever arrives.
        let mut reader = MessageReader::new(false);
        let mut bytes = vec![b'D'];
        bytes.extend_from_slice(&(100 * 1024 * 1024i32).to_be_bytes());
        reader.feed(&bytes);
        let err = reader.next_backend().unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn negative_and_undersized_lengths_are_frame_errors() {
        for len in [-1i32, 0, 3] {
            let mut reader = MessageReader::new(false);
            let mut bytes = vec![b'C'];
            bytes.extend_from_slice(&len.to_be_bytes());
            reader.feed(&bytes);
            assert!(reader.next_backend().is_err(), "length {len} accepted");
        }
    }

    #[test]
    fn custom_frame_ceiling_is_enforced() {
        let mut reader = MessageReader::with_max_frame(false, 16);
        let mut buf = Vec::new();
        encode_backend(
            &BackendMessage::CommandComplete("SELECT 123456789012345".into()),
            &mut buf,
        );
        reader.feed(&buf);
        assert!(reader.next_backend().is_err());
    }

    #[test]
    fn oversized_startup_packet_rejected() {
        let mut reader = MessageReader::new(true);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1_000_000_000i32).to_be_bytes());
        reader.feed(&bytes);
        assert!(reader.next_frontend().is_err());
    }

    #[test]
    fn unknown_message_types_are_skipped_not_fatal() {
        // An 'N' (NoticeResponse) frame followed by a CommandComplete:
        // the reader skips what it does not understand.
        let mut bytes = vec![b'N'];
        bytes.extend_from_slice(&9i32.to_be_bytes());
        bytes.extend_from_slice(b"hello");
        encode_backend(&BackendMessage::CommandComplete("SELECT 1".into()), &mut bytes);
        let mut reader = MessageReader::new(false);
        reader.feed(&bytes);
        assert_eq!(
            reader.next_backend().unwrap(),
            Some(BackendMessage::CommandComplete("SELECT 1".into()))
        );
    }

    #[test]
    fn malformed_body_of_known_type_is_a_frame_error_not_a_panic() {
        // A DataRow claiming one cell of 1000 bytes with a 2-byte body.
        let mut bytes = vec![b'D'];
        bytes.extend_from_slice(&12i32.to_be_bytes());
        bytes.extend_from_slice(&1i16.to_be_bytes());
        bytes.extend_from_slice(&1000i32.to_be_bytes());
        bytes.extend_from_slice(b"xx");
        let mut reader = MessageReader::new(false);
        reader.feed(&bytes);
        assert!(reader.next_backend().is_err());
    }

    #[test]
    fn partial_frame_detection() {
        let mut reader = MessageReader::new(false);
        assert!(!reader.has_partial());
        reader.feed(&[b'C', 0, 0]);
        assert!(reader.next_backend().unwrap().is_none());
        assert!(reader.has_partial());
    }

    #[test]
    fn streamed_result_set_shape() {
        // Figure 5's row-oriented stream: T, D, D, C.
        let mut buf = Vec::new();
        encode_backend(
            &BackendMessage::RowDescription(vec![
                FieldDesc::text("c1", TypeOid::Int4),
                FieldDesc::text("c2", TypeOid::Int4),
            ]),
            &mut buf,
        );
        encode_backend(&BackendMessage::DataRow(vec![Some("1".into()), Some("1".into())]), &mut buf);
        encode_backend(&BackendMessage::DataRow(vec![Some("2".into()), Some("2".into())]), &mut buf);
        encode_backend(&BackendMessage::CommandComplete("SELECT 2".into()), &mut buf);
        // First byte of each frame is the type tag.
        assert_eq!(buf[0], b'T');
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        let mut kinds = Vec::new();
        while let Some((ty, _)) = reader.next_backend_frame().unwrap() {
            kinds.push(ty as char);
        }
        assert_eq!(kinds, vec!['T', 'D', 'D', 'C']);
    }
}
