//! QIPC serialization: Q values to bytes (little-endian).
//!
//! Layout follows the kdb+ IPC object format: a leading type byte
//! (negative = atom, positive = typed vector, 0 = general list,
//! 98 = table, 99 = dict, 101 = generic null), vectors carrying an
//! attribute byte and a 4-byte length, and the column-oriented table
//! encoding of paper Figure 5 (`98 00 99 <symbol vector of column
//! names> <general list of column vectors>`).

use crate::Message;
use bytes::{BufMut, BytesMut};
use qlang::value::{Atom, Table, Value};
use qlang::{QError, QResult};

/// Serialize one value into `out`.
pub fn encode_value(v: &Value, out: &mut BytesMut) -> QResult<()> {
    match v {
        Value::Atom(a) => encode_atom(a, out),
        Value::Bools(xs) => {
            vec_header(1, xs.len(), out);
            for &b in xs {
                out.put_u8(b as u8);
            }
            Ok(())
        }
        Value::Bytes(xs) => {
            vec_header(4, xs.len(), out);
            out.extend_from_slice(xs);
            Ok(())
        }
        Value::Shorts(xs) => {
            vec_header(5, xs.len(), out);
            for &x in xs {
                out.put_i16_le(x);
            }
            Ok(())
        }
        Value::Ints(xs) => {
            vec_header(6, xs.len(), out);
            for &x in xs {
                out.put_i32_le(x);
            }
            Ok(())
        }
        Value::Longs(xs) => {
            vec_header(7, xs.len(), out);
            for &x in xs {
                out.put_i64_le(x);
            }
            Ok(())
        }
        Value::Reals(xs) => {
            vec_header(8, xs.len(), out);
            for &x in xs {
                out.put_f32_le(x);
            }
            Ok(())
        }
        Value::Floats(xs) => {
            vec_header(9, xs.len(), out);
            for &x in xs {
                out.put_f64_le(x);
            }
            Ok(())
        }
        Value::Chars(s) => {
            let bytes = s.as_bytes();
            vec_header(10, bytes.len(), out);
            out.extend_from_slice(bytes);
            Ok(())
        }
        Value::Symbols(xs) => {
            encode_symbols(xs, out);
            Ok(())
        }
        Value::Timestamps(xs) => {
            vec_header(12, xs.len(), out);
            for &x in xs {
                out.put_i64_le(x);
            }
            Ok(())
        }
        Value::Dates(xs) => {
            vec_header(14, xs.len(), out);
            for &x in xs {
                out.put_i32_le(x);
            }
            Ok(())
        }
        Value::Times(xs) => {
            vec_header(19, xs.len(), out);
            for &x in xs {
                out.put_i32_le(x);
            }
            Ok(())
        }
        Value::Mixed(items) => {
            vec_header(0, items.len(), out);
            for item in items {
                encode_value(item, out)?;
            }
            Ok(())
        }
        Value::Dict(d) => {
            out.put_i8(99);
            encode_value(&d.keys, out)?;
            encode_value(&d.values, out)
        }
        Value::Table(t) => encode_table(t, out),
        Value::KeyedTable(k) => {
            // Dict of key table to value table.
            out.put_i8(99);
            encode_table(&k.key, out)?;
            encode_table(&k.value, out)
        }
        Value::Nil => {
            out.put_i8(101);
            out.put_u8(0);
            Ok(())
        }
        Value::Lambda(def) => {
            // Functions travel as their source text (type 100: context +
            // char vector body).
            out.put_i8(100);
            out.put_u8(0); // empty context name
            encode_value(&Value::Chars(def.source.clone()), out)
        }
    }
}

fn encode_symbols(xs: &[String], out: &mut BytesMut) {
    vec_header(11, xs.len(), out);
    for s in xs {
        out.extend_from_slice(s.as_bytes());
        out.put_u8(0);
    }
}

/// `98 00 99 <symbol vector of column names> <general list of column
/// vectors>`, written from the table's own columns.
fn encode_table(t: &Table, out: &mut BytesMut) -> QResult<()> {
    out.put_i8(98);
    out.put_u8(0); // attributes
    out.put_i8(99);
    encode_symbols(&t.names, out);
    vec_header(0, t.columns.len(), out);
    for col in &t.columns {
        encode_value(col, out)?;
    }
    Ok(())
}

fn vec_header(ty: i8, len: usize, out: &mut BytesMut) {
    out.put_i8(ty);
    out.put_u8(0); // attribute byte (sorted/unique markers unused here)
    out.put_i32_le(len as i32);
}

fn encode_atom(a: &Atom, out: &mut BytesMut) -> QResult<()> {
    match a {
        Atom::Bool(b) => {
            out.put_i8(-1);
            out.put_u8(*b as u8);
        }
        Atom::Byte(b) => {
            out.put_i8(-4);
            out.put_u8(*b);
        }
        Atom::Short(x) => {
            out.put_i8(-5);
            out.put_i16_le(*x);
        }
        Atom::Int(x) => {
            out.put_i8(-6);
            out.put_i32_le(*x);
        }
        Atom::Long(x) => {
            out.put_i8(-7);
            out.put_i64_le(*x);
        }
        Atom::Real(x) => {
            out.put_i8(-8);
            out.put_f32_le(*x);
        }
        Atom::Float(x) => {
            out.put_i8(-9);
            out.put_f64_le(*x);
        }
        Atom::Char(c) => {
            out.put_i8(-10);
            let mut buf = [0u8; 4];
            let encoded = c.encode_utf8(&mut buf);
            if encoded.len() != 1 {
                return Err(QError::type_err("QIPC chars are single bytes"));
            }
            out.put_u8(encoded.as_bytes()[0]);
        }
        Atom::Symbol(s) => {
            out.put_i8(-11);
            out.extend_from_slice(s.as_bytes());
            out.put_u8(0);
        }
        Atom::Timestamp(x) => {
            out.put_i8(-12);
            out.put_i64_le(*x);
        }
        Atom::Date(x) => {
            out.put_i8(-14);
            out.put_i32_le(*x);
        }
        Atom::Time(x) => {
            out.put_i8(-19);
            out.put_i32_le(*x);
        }
    }
    Ok(())
}

/// Encode a complete message, compressing payloads above the threshold
/// (falls back to the plain encoding when compression would not shrink).
///
/// Compressed layout: header byte 2 set to 1, total length = compressed
/// message length, then 4 bytes of uncompressed total length, then the
/// compressed payload stream.
pub fn encode_message_compressed(msg: &Message) -> QResult<Vec<u8>> {
    let mut payload = BytesMut::new();
    encode_value(&msg.value, &mut payload)?;
    if payload.len() >= crate::compress::COMPRESSION_THRESHOLD {
        if let Some(compressed) = crate::compress::compress(&payload) {
            let total = 12 + compressed.len();
            let mut out = Vec::with_capacity(total);
            out.push(1); // little endian
            out.push(msg.msg_type.as_byte());
            out.push(1); // compressed
            out.push(0);
            out.extend_from_slice(&(total as u32).to_le_bytes());
            out.extend_from_slice(&((8 + payload.len()) as u32).to_le_bytes());
            out.extend_from_slice(&compressed);
            return Ok(out);
        }
    }
    encode_message(msg)
}

/// Encode a complete message: 8-byte header then the payload object.
pub fn encode_message(msg: &Message) -> QResult<Vec<u8>> {
    let mut payload = BytesMut::new();
    encode_value(&msg.value, &mut payload)?;
    let total = 8 + payload.len();
    let mut out = Vec::with_capacity(total);
    out.push(1); // little endian
    out.push(msg.msg_type.as_byte());
    out.push(0); // no compression
    out.push(0); // reserved
    out.extend_from_slice(&(total as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_atom_layout() {
        let mut buf = BytesMut::new();
        encode_value(&Value::long(7), &mut buf).unwrap();
        assert_eq!(buf[0] as i8, -7);
        assert_eq!(&buf[1..9], &7i64.to_le_bytes());
    }

    #[test]
    fn symbol_atom_is_null_terminated() {
        let mut buf = BytesMut::new();
        encode_value(&Value::symbol("GOOG"), &mut buf).unwrap();
        assert_eq!(buf[0] as i8, -11);
        assert_eq!(&buf[1..5], b"GOOG");
        assert_eq!(buf[5], 0);
    }

    #[test]
    fn vector_header_has_attr_and_length() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Longs(vec![1, 2]), &mut buf).unwrap();
        assert_eq!(buf[0] as i8, 7);
        assert_eq!(buf[1], 0);
        assert_eq!(&buf[2..6], &2i32.to_le_bytes());
        assert_eq!(buf.len(), 6 + 16);
    }

    #[test]
    fn figure5_table_layout_prefix() {
        // 98 00 99 <symbols> <columns> — the column-oriented layout.
        let t = qlang::Table::new(
            vec!["c1".into(), "c2".into()],
            vec![Value::Ints(vec![1, 2]), Value::Ints(vec![1, 2])],
        )
        .unwrap();
        let mut buf = BytesMut::new();
        encode_value(&Value::Table(Box::new(t)), &mut buf).unwrap();
        assert_eq!(buf[0], 98);
        assert_eq!(buf[1], 0);
        assert_eq!(buf[2], 99);
        assert_eq!(buf[3] as i8, 11, "column names as symbol vector");
    }

    #[test]
    fn tables_encode_as_the_symbol_and_general_lists_they_wrap() {
        let t = qlang::Table::new(
            vec!["Symbol".into(), "Price".into()],
            vec![Value::Symbols(vec!["GOOG".into(), "IBM".into()]), Value::Floats(vec![1.5, 2.5])],
        )
        .unwrap();
        let mut want = BytesMut::new();
        want.extend_from_slice(&[98, 0, 99]);
        encode_value(&Value::Symbols(t.names.clone()), &mut want).unwrap();
        encode_value(&Value::Mixed(t.columns.clone()), &mut want).unwrap();
        let mut got = BytesMut::new();
        encode_value(&Value::Table(Box::new(t.clone())), &mut got).unwrap();
        assert_eq!(got, want);

        let k = qlang::value::KeyedTable {
            key: qlang::Table::new(vec!["Symbol".into()], vec![t.columns[0].clone()]).unwrap(),
            value: qlang::Table::new(vec!["Price".into()], vec![t.columns[1].clone()]).unwrap(),
        };
        let mut want = BytesMut::new();
        want.extend_from_slice(&[99]);
        encode_value(&Value::Table(Box::new(k.key.clone())), &mut want).unwrap();
        encode_value(&Value::Table(Box::new(k.value.clone())), &mut want).unwrap();
        let mut got = BytesMut::new();
        encode_value(&Value::KeyedTable(Box::new(k)), &mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn message_header_layout() {
        let bytes = encode_message(&Message::query("1+1")).unwrap();
        assert_eq!(bytes[0], 1, "little endian flag");
        assert_eq!(bytes[1], 1, "sync");
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        assert_eq!(len, bytes.len(), "header length covers whole message");
    }

    #[test]
    fn non_ascii_char_atom_rejected() {
        let mut buf = BytesMut::new();
        let v = Value::Atom(Atom::Char('é'));
        assert!(encode_value(&v, &mut buf).is_err());
    }
}
