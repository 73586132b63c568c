//! QIPC deserialization: bytes to Q values.

use crate::{Message, MsgType};
use qlang::ast::LambdaDef;
use qlang::value::{Atom, Dict, KeyedTable, Table, Value};
use qlang::{QError, QResult};

/// A cursor over the payload bytes.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn need(&self, n: usize) -> QResult<()> {
        if self.pos + n > self.data.len() {
            Err(QError::length("QIPC payload truncated"))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> QResult<u8> {
        self.need(1)?;
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn i8(&mut self) -> QResult<i8> {
        Ok(self.u8()? as i8)
    }

    fn i16(&mut self) -> QResult<i16> {
        self.need(2)?;
        let v = i16::from_le_bytes(self.data[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        Ok(v)
    }

    fn i32(&mut self) -> QResult<i32> {
        self.need(4)?;
        let v = i32::from_le_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn i64(&mut self) -> QResult<i64> {
        self.need(8)?;
        let v = i64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn f32(&mut self) -> QResult<f32> {
        self.need(4)?;
        let v = f32::from_le_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn f64(&mut self) -> QResult<f64> {
        self.need(8)?;
        let v = f64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn sym(&mut self) -> QResult<String> {
        let start = self.pos;
        while self.pos < self.data.len() && self.data[self.pos] != 0 {
            self.pos += 1;
        }
        if self.pos >= self.data.len() {
            return Err(QError::length("unterminated symbol"));
        }
        let s = String::from_utf8_lossy(&self.data[start..self.pos]).into_owned();
        self.pos += 1; // NUL
        Ok(s)
    }

    fn bytes(&mut self, n: usize) -> QResult<&'a [u8]> {
        self.need(n)?;
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a vector header and validate the declared element count
    /// against the bytes actually present: `n` elements of at least
    /// `min_elem_size` bytes each must fit in the remaining payload.
    /// A lying length prefix is a length error, not a giant
    /// `Vec::with_capacity`.
    fn vec_len(&mut self, min_elem_size: usize) -> QResult<usize> {
        let _attr = self.u8()?;
        let n = self.i32()?;
        if n < 0 {
            return Err(QError::length("negative vector length"));
        }
        let n = n as usize;
        let remaining = self.data.len() - self.pos;
        let needed = n.checked_mul(min_elem_size);
        if needed.is_none_or(|bytes| bytes > remaining) {
            return Err(QError::length(format!(
                "vector claims {n} elements but only {remaining} payload bytes remain"
            )));
        }
        Ok(n)
    }
}

fn decode_inner(c: &mut Cursor<'_>) -> QResult<Value> {
    let ty = c.i8()?;
    Ok(match ty {
        // Atoms.
        -1 => Value::Atom(Atom::Bool(c.u8()? != 0)),
        -4 => Value::Atom(Atom::Byte(c.u8()?)),
        -5 => Value::Atom(Atom::Short(c.i16()?)),
        -6 => Value::Atom(Atom::Int(c.i32()?)),
        -7 => Value::Atom(Atom::Long(c.i64()?)),
        -8 => Value::Atom(Atom::Real(c.f32()?)),
        -9 => Value::Atom(Atom::Float(c.f64()?)),
        -10 => Value::Atom(Atom::Char(c.u8()? as char)),
        -11 => Value::Atom(Atom::Symbol(c.sym()?)),
        -12 => Value::Atom(Atom::Timestamp(c.i64()?)),
        -14 => Value::Atom(Atom::Date(c.i32()?)),
        -19 => Value::Atom(Atom::Time(c.i32()?)),
        // Vectors.
        0 => {
            let n = c.vec_len(1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_inner(c)?);
            }
            Value::Mixed(items)
        }
        1 => {
            let n = c.vec_len(1)?;
            let raw = c.bytes(n)?;
            Value::Bools(raw.iter().map(|&b| b != 0).collect())
        }
        4 => {
            let n = c.vec_len(1)?;
            Value::Bytes(c.bytes(n)?.to_vec())
        }
        5 => {
            let n = c.vec_len(2)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i16()?);
            }
            Value::Shorts(v)
        }
        6 => {
            let n = c.vec_len(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i32()?);
            }
            Value::Ints(v)
        }
        7 => {
            let n = c.vec_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i64()?);
            }
            Value::Longs(v)
        }
        8 => {
            let n = c.vec_len(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.f32()?);
            }
            Value::Reals(v)
        }
        9 => {
            let n = c.vec_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.f64()?);
            }
            Value::Floats(v)
        }
        10 => {
            let n = c.vec_len(1)?;
            let raw = c.bytes(n)?;
            Value::Chars(String::from_utf8_lossy(raw).into_owned())
        }
        11 => {
            let n = c.vec_len(1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.sym()?);
            }
            Value::Symbols(v)
        }
        12 => {
            let n = c.vec_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i64()?);
            }
            Value::Timestamps(v)
        }
        14 => {
            let n = c.vec_len(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i32()?);
            }
            Value::Dates(v)
        }
        19 => {
            let n = c.vec_len(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.i32()?);
            }
            Value::Times(v)
        }
        98 => {
            let _attr = c.u8()?;
            let dict_ty = c.i8()?;
            if dict_ty != 99 {
                return Err(QError::type_err("malformed table payload"));
            }
            let names = match decode_inner(c)? {
                Value::Symbols(s) => s,
                _ => return Err(QError::type_err("table column names must be symbols")),
            };
            let columns = match decode_inner(c)? {
                Value::Mixed(cols) => cols,
                _ => return Err(QError::type_err("table columns must be a general list")),
            };
            Value::Table(Box::new(Table::new(names, columns)?))
        }
        99 => {
            let keys = decode_inner(c)?;
            let values = decode_inner(c)?;
            match (keys, values) {
                (Value::Table(k), Value::Table(v)) => {
                    Value::KeyedTable(Box::new(KeyedTable { key: *k, value: *v }))
                }
                (keys, values) => Value::Dict(Box::new(Dict::new(keys, values)?)),
            }
        }
        100 => {
            let _context = c.sym()?;
            let body = decode_inner(c)?;
            match body {
                Value::Chars(source) => Value::Lambda(Box::new(LambdaDef {
                    params: vec![],
                    body: vec![],
                    source,
                })),
                _ => return Err(QError::type_err("lambda body must be a char vector")),
            }
        }
        101 => {
            let _ = c.u8()?;
            Value::Nil
        }
        other => return Err(QError::type_err(format!("unsupported QIPC type {other}"))),
    })
}

/// Decode a single serialized value (no message header).
pub fn decode_value(data: &[u8]) -> QResult<Value> {
    let mut c = Cursor { data, pos: 0 };
    let v = decode_inner(&mut c)?;
    if c.pos != data.len() {
        return Err(QError::length(format!(
            "trailing bytes after value: {} of {}",
            c.pos,
            data.len()
        )));
    }
    Ok(v)
}

/// Default ceiling on a declared QIPC frame length: 64 MiB.
pub const DEFAULT_MAX_MESSAGE: usize = 64 * 1024 * 1024;

/// Decode one message from the front of `buf`. Returns the message plus
/// consumed byte count, or `None` if the buffer is incomplete. Frames
/// declaring more than [`DEFAULT_MAX_MESSAGE`] bytes are rejected.
pub fn decode_message(buf: &[u8]) -> QResult<Option<(Message, usize)>> {
    decode_message_limited(buf, DEFAULT_MAX_MESSAGE)
}

/// [`decode_message`] with an explicit ceiling on the declared frame
/// length. The length prefix is attacker-controlled: rejecting it here
/// turns a hostile 2 GiB declaration into a protocol error instead of
/// an unbounded buffer build-up.
pub fn decode_message_limited(buf: &[u8], max: usize) -> QResult<Option<(Message, usize)>> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let endian = buf[0];
    if endian != 1 {
        return Err(QError::type_err("big-endian QIPC peers are not supported"));
    }
    let msg_type = MsgType::from_byte(buf[1])
        .ok_or_else(|| QError::type_err(format!("bad QIPC message type {}", buf[1])))?;
    let compressed = buf[2] == 1;
    if buf[2] > 1 {
        return Err(QError::type_err(format!("bad QIPC compression flag {}", buf[2])));
    }
    let total = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if total < 8 {
        return Err(QError::length("QIPC message length too small"));
    }
    if total > max {
        return Err(QError::length(format!(
            "QIPC frame declares {total} bytes, exceeding the {max}-byte limit"
        )));
    }
    if buf.len() < total {
        return Ok(None);
    }
    let value = if compressed {
        if total < 12 {
            return Err(QError::length("compressed QIPC message too short"));
        }
        let uncompressed_total =
            u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        if uncompressed_total < 8 {
            return Err(QError::length("bad uncompressed length"));
        }
        if uncompressed_total > max {
            return Err(QError::length(format!(
                "compressed QIPC frame expands to {uncompressed_total} bytes, exceeding the {max}-byte limit"
            )));
        }
        let payload = crate::compress::decompress(&buf[12..total], uncompressed_total - 8)
            .ok_or_else(|| QError::type_err("corrupt compressed QIPC payload"))?;
        decode_value(&payload)?
    } else {
        decode_value(&buf[8..total])?
    };
    Ok(Some((Message { msg_type, value }, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_message, encode_value};

    fn round_trip(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf).unwrap();
        decode_value(&buf).unwrap()
    }

    #[test]
    fn atoms_round_trip() {
        for v in [
            Value::bool(true),
            Value::Atom(Atom::Byte(0x7f)),
            Value::Atom(Atom::Short(-5)),
            Value::Atom(Atom::Int(123456)),
            Value::long(-9_000_000_000),
            Value::Atom(Atom::Real(1.5)),
            Value::float(std::f64::consts::PI),
            Value::Atom(Atom::Char('x')),
            Value::symbol("GOOG"),
            Value::Atom(Atom::Timestamp(1_234_567_890_123)),
            Value::Atom(Atom::Date(6021)),
            Value::Atom(Atom::Time(34_200_000)),
        ] {
            assert!(round_trip(v.clone()).q_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn nulls_round_trip() {
        for v in [
            Value::Atom(Atom::Long(i64::MIN)),
            Value::Atom(Atom::Float(f64::NAN)),
            Value::Atom(Atom::Symbol(String::new())),
            Value::Atom(Atom::Date(i32::MIN)),
        ] {
            assert!(round_trip(v.clone()).q_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn vectors_round_trip() {
        for v in [
            Value::Bools(vec![true, false, true]),
            Value::Longs(vec![1, i64::MIN, 3]),
            Value::Floats(vec![1.5, f64::NAN]),
            Value::Symbols(vec!["a".into(), "".into(), "c".into()]),
            Value::Chars("hello".into()),
            Value::Dates(vec![0, 6021]),
            Value::Times(vec![0, 1000]),
            Value::Timestamps(vec![0, 42]),
            Value::Bytes(vec![1, 2, 3]),
        ] {
            assert!(round_trip(v.clone()).q_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn mixed_list_round_trip() {
        let v = Value::Mixed(vec![Value::long(1), Value::symbol("a"), Value::Chars("xy".into())]);
        assert!(round_trip(v.clone()).q_eq(&v));
    }

    #[test]
    fn dict_round_trip() {
        let v = Value::Dict(Box::new(
            Dict::new(
                Value::Symbols(vec!["a".into(), "b".into()]),
                Value::Longs(vec![1, 2]),
            )
            .unwrap(),
        ));
        assert!(round_trip(v.clone()).q_eq(&v));
    }

    #[test]
    fn table_round_trip() {
        let t = Table::new(
            vec!["Sym".into(), "Px".into()],
            vec![
                Value::Symbols(vec!["GOOG".into(), "IBM".into()]),
                Value::Floats(vec![100.5, 50.25]),
            ],
        )
        .unwrap();
        let v = Value::Table(Box::new(t));
        assert!(round_trip(v.clone()).q_eq(&v));
    }

    #[test]
    fn keyed_table_round_trip() {
        let k = KeyedTable {
            key: Table::new(vec!["Sym".into()], vec![Value::Symbols(vec!["a".into()])]).unwrap(),
            value: Table::new(vec!["Px".into()], vec![Value::Floats(vec![1.0])]).unwrap(),
        };
        let v = Value::KeyedTable(Box::new(k));
        assert!(round_trip(v.clone()).q_eq(&v));
    }

    #[test]
    fn nested_structures_round_trip() {
        let inner = Value::Mixed(vec![Value::Longs(vec![1, 2]), Value::symbol("x")]);
        let v = Value::Mixed(vec![inner, Value::Nil]);
        assert!(round_trip(v.clone()).q_eq(&v));
    }

    #[test]
    fn message_round_trip() {
        let msg = Message::query("select from trades where Symbol=`GOOG");
        let bytes = encode_message(&msg).unwrap();
        let (decoded, consumed) = decode_message(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn incomplete_message_yields_none() {
        let msg = Message::query("1+1");
        let bytes = encode_message(&msg).unwrap();
        assert!(decode_message(&bytes[..4]).unwrap().is_none());
        assert!(decode_message(&bytes[..bytes.len() - 1]).unwrap().is_none());
    }

    #[test]
    fn two_messages_back_to_back() {
        let m1 = Message::query("1");
        let m2 = Message::response(Value::long(1));
        let mut bytes = encode_message(&m1).unwrap();
        bytes.extend(encode_message(&m2).unwrap());
        let (d1, used) = decode_message(&bytes).unwrap().unwrap();
        assert_eq!(d1, m1);
        let (d2, used2) = decode_message(&bytes[used..]).unwrap().unwrap();
        assert_eq!(d2, m2);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        // A "complete" frame whose payload lies about its vector length.
        let msg = Message::response(Value::Longs(vec![1, 2, 3]));
        let mut bytes = encode_message(&msg).unwrap();
        // Corrupt the vector length to claim 1000 elements.
        bytes[10] = 0xE8;
        bytes[11] = 0x03;
        let err = decode_message(&bytes);
        assert!(err.is_err());
    }

    #[test]
    fn oversized_declared_frame_is_rejected_before_buffering() {
        // Header claims ~2 GiB: rejected from the 8 header bytes alone.
        let mut bytes = vec![1u8, 1, 0, 0];
        bytes.extend_from_slice(&(2_000_000_000u32).to_le_bytes());
        let err = decode_message(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceed"), "{err}");
    }

    #[test]
    fn custom_frame_ceiling_is_enforced() {
        let msg = Message::query("a fairly long query text that exceeds a tiny cap");
        let bytes = encode_message(&msg).unwrap();
        assert!(decode_message_limited(&bytes, 16).is_err());
        assert!(decode_message_limited(&bytes, DEFAULT_MAX_MESSAGE).unwrap().is_some());
    }

    #[test]
    fn lying_vector_length_is_bounded_by_payload_size() {
        // A long vector claiming u32::MAX/8 elements in a 30-byte frame
        // must not allocate gigabytes before failing.
        let msg = Message::response(Value::Longs(vec![1, 2, 3]));
        let mut bytes = encode_message(&msg).unwrap();
        bytes[10..14].copy_from_slice(&(400_000_000i32).to_le_bytes());
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn compressed_flag_rejected_cleanly() {
        let msg = Message::query("1");
        let mut bytes = encode_message(&msg).unwrap();
        bytes[2] = 1;
        assert!(decode_message(&bytes).is_err());
    }
}
