//! QIPC serialization: Q values to bytes (little-endian).
//!
//! Layout follows the kdb+ IPC object format: a leading type byte
//! (negative = atom, positive = typed vector, 0 = general list,
//! 98 = table, 99 = dict, 101 = generic null), vectors carrying an
//! attribute byte and a 4-byte length, and the column-oriented table
//! encoding of paper Figure 5 (`98 00 99 <symbol vector of column
//! names> <general list of column vectors>`).

use crate::compress::COMPRESSION_THRESHOLD;
use crate::Message;
use qlang::value::{Atom, Table, Value};
use qlang::{QError, QResult};

/// Append each of `xs` little-endian.
macro_rules! put_le {
    ($out:expr, $xs:expr) => {
        for x in $xs {
            $out.extend_from_slice(&x.to_le_bytes());
        }
    };
}

/// Serialize one value into `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) -> QResult<()> {
    match v {
        Value::Atom(a) => return encode_atom(a, out),
        Value::Bools(xs) => {
            vec_header(1, xs.len(), out);
            out.extend(xs.iter().map(|&b| b as u8));
        }
        Value::Bytes(xs) => {
            vec_header(4, xs.len(), out);
            out.extend_from_slice(xs);
        }
        Value::Shorts(xs) => {
            vec_header(5, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Ints(xs) => {
            vec_header(6, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Longs(xs) => {
            vec_header(7, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Reals(xs) => {
            vec_header(8, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Floats(xs) => {
            vec_header(9, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Chars(s) => {
            vec_header(10, s.len(), out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Symbols(xs) => encode_symbols(xs, out),
        Value::Timestamps(xs) => {
            vec_header(12, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Dates(xs) => {
            vec_header(14, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Times(xs) => {
            vec_header(19, xs.len(), out);
            put_le!(out, xs);
        }
        Value::Mixed(items) => {
            vec_header(0, items.len(), out);
            for item in items {
                encode_value(item, out)?;
            }
        }
        Value::Dict(d) => {
            out.push(99);
            encode_value(&d.keys, out)?;
            encode_value(&d.values, out)?;
        }
        Value::Table(t) => encode_table(t, out)?,
        Value::KeyedTable(k) => {
            // Dict of key table to value table.
            out.push(99);
            encode_table(&k.key, out)?;
            encode_table(&k.value, out)?;
        }
        Value::Nil => out.extend_from_slice(&[101, 0]),
        Value::Lambda(def) => {
            // Functions travel as their source text (type 100: context +
            // char vector body).
            out.extend_from_slice(&[100, 0]); // empty context name
            encode_value(&Value::Chars(def.source.clone()), out)?;
        }
    }
    Ok(())
}

fn encode_symbols(xs: &[String], out: &mut Vec<u8>) {
    vec_header(11, xs.len(), out);
    for s in xs {
        out.extend_from_slice(s.as_bytes());
        out.push(0);
    }
}

/// `98 00 99 <symbol vector of column names> <general list of column
/// vectors>`, written from the table's own columns.
fn encode_table(t: &Table, out: &mut Vec<u8>) -> QResult<()> {
    out.extend_from_slice(&[98, 0, 99]); // table, attributes, dict
    encode_symbols(&t.names, out);
    vec_header(0, t.columns.len(), out);
    for col in &t.columns {
        encode_value(col, out)?;
    }
    Ok(())
}

fn vec_header(ty: u8, len: usize, out: &mut Vec<u8>) {
    out.push(ty);
    out.push(0); // attribute byte (sorted/unique markers unused here)
    out.extend_from_slice(&(len as i32).to_le_bytes());
}

fn encode_atom(a: &Atom, out: &mut Vec<u8>) -> QResult<()> {
    // The type byte is the vector type negated.
    let mut ty = |t: i8| out.push(-t as u8);
    match a {
        Atom::Bool(b) => {
            ty(1);
            out.push(*b as u8);
        }
        Atom::Byte(b) => {
            ty(4);
            out.push(*b);
        }
        Atom::Short(x) => {
            ty(5);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Int(x) => {
            ty(6);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Long(x) => {
            ty(7);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Real(x) => {
            ty(8);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Float(x) => {
            ty(9);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Char(c) => {
            if !c.is_ascii() {
                return Err(QError::type_err("QIPC chars are single bytes"));
            }
            ty(10);
            out.push(*c as u8);
        }
        Atom::Symbol(s) => {
            ty(11);
            out.extend_from_slice(s.as_bytes());
            out.push(0);
        }
        Atom::Timestamp(x) => {
            ty(12);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Date(x) => {
            ty(14);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Atom::Time(x) => {
            ty(19);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    Ok(())
}

/// Why a reply frame goes out plain or compressed. kdb+ compresses a
/// reply only when the peer is on another host, its handshake offered
/// capability 1 or more, the payload is at least
/// [`COMPRESSION_THRESHOLD`] bytes, and the compressed payload is under
/// half the plain one; the variants name those conditions in the order
/// they are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// The peer is on this host: plain.
    Loopback,
    /// The peer's handshake offered capability 0: plain.
    Capability,
    /// The payload is under the threshold: plain.
    Small,
    /// Compressing would not halve the payload: plain.
    NoGain,
    /// The compressed payload is under half the plain one: compressed.
    Halved,
}

impl Compression {
    /// Every outcome, in the order the rule checks its conditions.
    pub const ALL: [Compression; 5] = [
        Compression::Loopback,
        Compression::Capability,
        Compression::Small,
        Compression::NoGain,
        Compression::Halved,
    ];

    /// The frame's encoding (`plain` or `compressed`) and the reason, as
    /// metric labels.
    pub fn labels(self) -> (&'static str, &'static str) {
        match self {
            Compression::Loopback => ("plain", "loopback"),
            Compression::Capability => ("plain", "capability"),
            Compression::Small => ("plain", "small"),
            Compression::NoGain => ("plain", "no_gain"),
            Compression::Halved => ("compressed", "halved"),
        }
    }
}

/// Encode a complete message, compressing its payload under kdb+'s size
/// rule (see [`encode_message_compressed_into`]).
pub fn encode_message_compressed(msg: &Message) -> QResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_message_compressed_into(msg, &mut out)?;
    Ok(out)
}

/// Append `msg` to `out` as one frame whose payload is compressed when it
/// is at least [`COMPRESSION_THRESHOLD`] bytes and compresses to under
/// half its size; returns which of those held. A compressed frame is the
/// plain frame with its payload compressed in place.
///
/// Compressed layout: header byte 2 set to 1, total length = compressed
/// message length, then 4 bytes of uncompressed total length, then the
/// compressed payload stream.
pub fn encode_message_compressed_into(msg: &Message, out: &mut Vec<u8>) -> QResult<Compression> {
    let start = out.len();
    encode_message_into(msg, out)?;
    let frame = &out[start..];
    if frame.len() - 8 < COMPRESSION_THRESHOLD {
        return Ok(Compression::Small);
    }
    let Some(compressed) = crate::compress::compress(&frame[8..]) else {
        return Ok(Compression::NoGain);
    };
    let uncompressed = frame.len() as u32;
    out.truncate(start + 8);
    out[start + 2] = 1; // compressed
    out[start + 4..start + 8].copy_from_slice(&((12 + compressed.len()) as u32).to_le_bytes());
    out.extend_from_slice(&uncompressed.to_le_bytes());
    out.extend_from_slice(&compressed);
    Ok(Compression::Halved)
}

/// Encode a complete message (see [`encode_message_into`]).
pub fn encode_message(msg: &Message) -> QResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_message_into(msg, &mut out)?;
    Ok(out)
}

/// Append `msg` to `out` as one plain frame: the 8-byte header, then the
/// payload object written straight after it, then the total length
/// patched in. On an error `out` is left as it was.
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) -> QResult<()> {
    let start = out.len();
    // Little endian, message type, no compression, reserved, length.
    out.extend_from_slice(&[1, msg.msg_type.as_byte(), 0, 0, 0, 0, 0, 0]);
    if let Err(e) = encode_value(&msg.value, out) {
        out.truncate(start);
        return Err(e);
    }
    let total = (out.len() - start) as u32;
    out[start + 4..start + 8].copy_from_slice(&total.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_atom_layout() {
        let mut buf = Vec::new();
        encode_value(&Value::long(7), &mut buf).unwrap();
        assert_eq!(buf[0] as i8, -7);
        assert_eq!(&buf[1..9], &7i64.to_le_bytes());
    }

    #[test]
    fn symbol_atom_is_null_terminated() {
        let mut buf = Vec::new();
        encode_value(&Value::symbol("GOOG"), &mut buf).unwrap();
        assert_eq!(buf[0] as i8, -11);
        assert_eq!(&buf[1..5], b"GOOG");
        assert_eq!(buf[5], 0);
    }

    #[test]
    fn vector_header_has_attr_and_length() {
        let mut buf = Vec::new();
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
        let mut buf = Vec::new();
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
        let mut want = Vec::new();
        want.extend_from_slice(&[98, 0, 99]);
        encode_value(&Value::Symbols(t.names.clone()), &mut want).unwrap();
        encode_value(&Value::Mixed(t.columns.clone()), &mut want).unwrap();
        let mut got = Vec::new();
        encode_value(&Value::Table(Box::new(t.clone())), &mut got).unwrap();
        assert_eq!(got, want);

        let k = qlang::value::KeyedTable {
            key: qlang::Table::new(vec!["Symbol".into()], vec![t.columns[0].clone()]).unwrap(),
            value: qlang::Table::new(vec!["Price".into()], vec![t.columns[1].clone()]).unwrap(),
        };
        let mut want = Vec::new();
        want.extend_from_slice(&[99]);
        encode_value(&Value::Table(Box::new(k.key.clone())), &mut want).unwrap();
        encode_value(&Value::Table(Box::new(k.value.clone())), &mut want).unwrap();
        let mut got = Vec::new();
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
    fn compressed_frame_is_the_plain_frame_with_its_payload_compressed() {
        let big = Message::response(Value::Symbols(vec!["REPEATED_TICKER".into(); 500]));
        let plain = encode_message(&big).unwrap();
        let frame = encode_message_compressed(&big).unwrap();
        assert_eq!(frame[..2], plain[..2]);
        assert_eq!(frame[2], 1, "compressed flag");
        assert_eq!(frame[4..8], (frame.len() as u32).to_le_bytes());
        assert_eq!(frame[8..12], (plain.len() as u32).to_le_bytes());
        assert_eq!(frame[12..], crate::compress::compress(&plain[8..]).unwrap());
        // Below the threshold the plain frame goes out unchanged.
        let small = Message::query("1+1");
        assert_eq!(encode_message_compressed(&small).unwrap(), encode_message(&small).unwrap());
    }

    #[test]
    fn each_outcome_of_the_size_rule_is_reported() {
        let mut x: u32 = 7;
        let noise: Vec<u8> = (0..4000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        for (value, want) in [
            (Value::long(2), Compression::Small),
            (Value::Bytes(noise), Compression::NoGain),
            (Value::Symbols(vec!["REPEATED_TICKER".into(); 500]), Compression::Halved),
        ] {
            let msg = Message::response(value);
            let mut out = Vec::new();
            assert_eq!(encode_message_compressed_into(&msg, &mut out).unwrap(), want);
            let plain = encode_message(&msg).unwrap();
            assert_eq!(out == plain, want != Compression::Halved, "{want:?}");
        }
    }

    #[test]
    fn frames_are_appended_after_what_the_buffer_holds() {
        let big = Message::response(Value::Symbols(vec!["REPEATED_TICKER".into(); 500]));
        let mut out = vec![9, 9, 9];
        encode_message_compressed_into(&big, &mut out).unwrap();
        let compressed = out.len();
        assert_eq!(out[3..], encode_message_compressed(&big).unwrap());
        encode_message_into(&big, &mut out).unwrap();
        assert_eq!(out[compressed..], encode_message(&big).unwrap());
        assert_eq!(out[..3], [9, 9, 9]);
    }

    #[test]
    fn a_value_that_cannot_be_encoded_leaves_the_buffer_as_it_was() {
        let bad = Message::response(Value::Mixed(vec![
            Value::Symbols(vec!["REPEATED_TICKER".into(); 500]),
            Value::Atom(Atom::Char('é')),
        ]));
        let mut out = vec![7];
        assert!(encode_message_compressed_into(&bad, &mut out).is_err());
        assert!(encode_message_into(&bad, &mut out).is_err());
        assert_eq!(out, [7]);
    }

    #[test]
    fn non_ascii_char_atom_rejected() {
        let mut buf = Vec::new();
        let v = Value::Atom(Atom::Char('é'));
        assert!(encode_value(&v, &mut buf).is_err());
    }
}
