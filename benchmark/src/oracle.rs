//! Result checking. At set-up every distinct statement runs once on
//! the reference `qengine` and once through the workload's own
//! Hyper-Q path; the two must agree under the side-by-side framework's
//! equality, and the agreed reply's `(row count, checksum)` is what
//! every measured reply is compared with.

use hyperq::side_by_side::values_agree;
use qlang::value::{Atom, Table, Value};
use qlang::QResult;

/// `(row count, checksum)` of a reply. Q lists, tables and dictionaries
/// are ordered, so the checksum is order-sensitive throughout: Q allows
/// no reordering of any reply these workloads receive.
pub type Expect = (u64, u64);

struct Hasher(u64);

impl Hasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn table(&mut self, t: &Table) {
        for (n, c) in t.names.iter().zip(&t.columns) {
            self.bytes(n.as_bytes());
            self.value(c);
        }
    }

    fn value(&mut self, v: &Value) {
        self.word(v.type_code() as u64);
        match v {
            Value::Atom(a) => match a {
                Atom::Bool(b) => self.word(u64::from(*b)),
                Atom::Byte(b) => self.word(u64::from(*b)),
                Atom::Short(x) => self.word(*x as u64),
                Atom::Int(x) | Atom::Date(x) | Atom::Time(x) => self.word(*x as u64),
                Atom::Long(x) | Atom::Timestamp(x) => self.word(*x as u64),
                Atom::Real(x) => self.word(u64::from(x.to_bits())),
                Atom::Float(x) => self.word(x.to_bits()),
                Atom::Char(c) => self.word(u64::from(*c)),
                Atom::Symbol(s) => self.bytes(s.as_bytes()),
            },
            Value::Bools(x) => x.iter().for_each(|b| self.word(u64::from(*b))),
            Value::Bytes(x) => self.bytes(x),
            Value::Shorts(x) => x.iter().for_each(|i| self.word(*i as u64)),
            Value::Ints(x) | Value::Dates(x) | Value::Times(x) => {
                x.iter().for_each(|i| self.word(*i as u64))
            }
            Value::Longs(x) | Value::Timestamps(x) => x.iter().for_each(|i| self.word(*i as u64)),
            Value::Reals(x) => x.iter().for_each(|f| self.word(u64::from(f.to_bits()))),
            Value::Floats(x) => x.iter().for_each(|f| self.word(f.to_bits())),
            Value::Chars(s) => self.bytes(s.as_bytes()),
            Value::Symbols(x) => x.iter().for_each(|s| self.bytes(s.as_bytes())),
            Value::Mixed(x) => x.iter().for_each(|e| self.value(e)),
            Value::Dict(d) => {
                self.value(&d.keys);
                self.value(&d.values);
            }
            Value::Table(t) => self.table(t),
            Value::KeyedTable(k) => {
                self.table(&k.key);
                self.table(&k.value);
            }
            Value::Lambda(_) | Value::Nil => {}
        }
    }
}

/// Row count and checksum of a reply.
pub fn expect_of(v: &Value) -> Expect {
    let rows = match v {
        Value::Table(t) => t.rows(),
        Value::KeyedTable(k) => k.key.rows(),
        other => other.len().unwrap_or(1),
    } as u64;
    let mut h = Hasher(0xcbf2_9ce4_8422_2325);
    h.value(v);
    (rows, h.0)
}

/// Two float aggregates agree when they differ by rounding only: the
/// reference and the backend may sum in different orders (`dev`, `var`,
/// `avg` over joined wide tables do).
const FLOAT_TOLERANCE: f64 = 1e-9;

fn floats_agree(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.is_nan() && y.is_nan())
                || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs()).max(1.0)
        })
}

fn tables_agree(a: &Table, b: &Table) -> bool {
    a.names == b.names
        && a.columns.len() == b.columns.len()
        && a.columns
            .iter()
            .zip(&b.columns)
            .all(|(x, y)| agree_values(x, y))
}

/// The side-by-side framework's equality, except that float columns may
/// differ by rounding.
pub fn agree_values(a: &Value, b: &Value) -> bool {
    if values_agree(a, b) {
        return true;
    }
    match (a, b) {
        (Value::Floats(x), Value::Floats(y)) => floats_agree(x, y),
        (Value::Atom(Atom::Float(x)), Value::Atom(Atom::Float(y))) => floats_agree(&[*x], &[*y]),
        (Value::Table(x), Value::Table(y)) => tables_agree(x, y),
        (Value::KeyedTable(x), Value::KeyedTable(y)) => {
            tables_agree(&x.key, &y.key) && tables_agree(&x.value, &y.value)
        }
        (Value::Dict(x), Value::Dict(y)) => {
            agree_values(&x.keys, &y.keys) && agree_values(&x.values, &y.values)
        }
        _ => false,
    }
}

/// Compare the reference's reply with Hyper-Q's for `text`; on
/// agreement give back what to expect of every later reply.
pub fn agree(
    text: &str,
    reference: QResult<Value>,
    got: Result<Value, String>,
) -> Result<Expect, String> {
    match (reference, got) {
        (Ok(want), Ok(got)) if agree_values(&want, &got) => Ok(expect_of(&got)),
        (Ok(want), Ok(got)) => Err(format!(
            "oracle: reference and Hyper-Q differ on: {text}\nreference:\n{want}\nHyper-Q:\n{got}"
        )),
        (Err(e), _) => Err(format!("oracle: reference failed ({e}) on: {text}")),
        (_, Err(e)) => Err(format!("oracle: Hyper-Q failed ({e}) on: {text}")),
    }
}
