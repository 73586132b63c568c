//! Binary codec for the on-disk column representation.
//!
//! One encoding is shared by WAL record payloads and checkpoint segment
//! bodies, so recovery speaks a single dialect: little-endian
//! fixed-width scalars, length-prefixed strings, a tagged byte per
//! enum variant. Decoding is *total* — every read is bounds-checked and
//! every tag validated, returning [`CodecError`] instead of panicking,
//! because recovery feeds this module bytes that may have been torn or
//! bit-flipped by the storage layer (the chaos suite does exactly
//! that on purpose).
//!
//! A column block holds one storage class, the one its column's declared
//! type names. Data written before that was the rule can hold a block
//! of cells of mixed classes (tag 7) or of another class than its
//! declared type; [`settle`] says how such a column reads, and the
//! decoded schema's type follows it.

use colstore::types::{Cell, Class, Column, PgType};
use colstore::{Batch, ColumnVec, Validity};
use std::fmt;

/// A structural decode failure: truncated buffer, unknown tag,
/// inconsistent lengths. Always a typed error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Bounds-checked reader over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!("need {n} bytes, have {}", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length check before any bulk `Vec::with_capacity`: a corrupt
    /// length prefix must produce an error, not an allocation the size
    /// of the damage.
    fn checked_len(&self, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(n).map_err(|_| CodecError("length overflows usize".into()))?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return err(format!(
                "declared {n} elements but only {} bytes remain",
                self.remaining()
            ));
        }
        Ok(n)
    }

    pub fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return err(format!("string of {n} bytes exceeds remaining {}", self.remaining()));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CodecError("string is not valid UTF-8".into()))
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------- types

fn type_tag(ty: PgType) -> u8 {
    match ty {
        PgType::Bool => 0,
        PgType::Int2 => 1,
        PgType::Int4 => 2,
        PgType::Int8 => 3,
        PgType::Float4 => 4,
        PgType::Float8 => 5,
        PgType::Varchar => 6,
        PgType::Text => 7,
        PgType::Date => 8,
        PgType::Time => 9,
        PgType::Timestamp => 10,
    }
}

fn tag_type(tag: u8) -> Result<PgType, CodecError> {
    Ok(match tag {
        0 => PgType::Bool,
        1 => PgType::Int2,
        2 => PgType::Int4,
        3 => PgType::Int8,
        4 => PgType::Float4,
        5 => PgType::Float8,
        6 => PgType::Varchar,
        7 => PgType::Text,
        8 => PgType::Date,
        9 => PgType::Time,
        10 => PgType::Timestamp,
        other => return err(format!("unknown PgType tag {other}")),
    })
}

pub fn encode_column_def(out: &mut Vec<u8>, col: &Column) {
    put_string(out, &col.name);
    out.push(type_tag(col.ty));
}

pub fn decode_column_def(c: &mut Cursor) -> Result<Column, CodecError> {
    let name = c.string()?;
    let ty = tag_type(c.u8()?)?;
    Ok(Column::new(name, ty))
}

pub fn encode_schema(out: &mut Vec<u8>, schema: &[Column]) {
    put_u32(out, schema.len() as u32);
    for col in schema {
        encode_column_def(out, col);
    }
}

pub fn decode_schema(c: &mut Cursor) -> Result<Vec<Column>, CodecError> {
    let n = c.u32()? as usize;
    // A column definition is at least 5 bytes (empty name + type tag).
    if n.saturating_mul(5) > c.remaining() {
        return err(format!("declared {n} columns but only {} bytes remain", c.remaining()));
    }
    (0..n).map(|_| decode_column_def(c)).collect()
}

// ---------------------------------------------------------------- cells

/// One cell of a tag-7 block (only such blocks hold cells).
fn decode_cell(c: &mut Cursor) -> Result<Cell, CodecError> {
    Ok(match c.u8()? {
        0 => Cell::Null,
        1 => Cell::Bool(c.u8()? != 0),
        2 => Cell::Int(c.i64()?),
        3 => Cell::Float(c.f64()?),
        4 => Cell::Text(c.string()?),
        5 => Cell::Date(c.i32()?),
        6 => Cell::Time(c.i64()?),
        7 => Cell::Timestamp(c.i64()?),
        other => return err(format!("unknown Cell tag {other}")),
    })
}

// ------------------------------------------------------------- validity

/// Validity encodes as a presence flag plus a packed null bitmap (one
/// bit per row, LSB-first), only when any null exists.
fn encode_validity(out: &mut Vec<u8>, v: &Validity) {
    if !v.any_null() {
        out.push(0);
        return;
    }
    out.push(1);
    let mut bytes = vec![0u8; v.len().div_ceil(8)];
    for i in 0..v.len() {
        if v.is_null(i) {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

fn decode_validity(c: &mut Cursor, len: usize) -> Result<Validity, CodecError> {
    let mut v = Validity::all_valid(len);
    match c.u8()? {
        0 => Ok(v),
        1 => {
            let bytes = c.take(len.div_ceil(8))?;
            for (i, byte) in bytes.iter().enumerate() {
                let mut b = *byte;
                while b != 0 {
                    let bit = b.trailing_zeros() as usize;
                    let row = i * 8 + bit;
                    if row >= len {
                        return err("null bitmap sets a bit past the column length");
                    }
                    v.set_null(row);
                    b &= b - 1;
                }
            }
            Ok(v)
        }
        other => err(format!("unknown validity tag {other}")),
    }
}

// -------------------------------------------------------------- columns

fn encode_column(out: &mut Vec<u8>, col: &ColumnVec) {
    // Tag, length, each element through `$put`, validity.
    macro_rules! block {
        ($tag:expr, $data:expr, $v:expr, |$x:ident| $put:expr) => {{
            out.push($tag);
            put_u64(out, $data.len() as u64);
            for $x in $data {
                $put;
            }
            encode_validity(out, $v);
        }};
    }
    match col {
        ColumnVec::Bool(d, v) => block!(0, d, v, |x| out.push(*x as u8)),
        ColumnVec::Int(d, v) => block!(1, d, v, |x| out.extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Float(d, v) => {
            block!(2, d, v, |x| out.extend_from_slice(&x.to_bits().to_le_bytes()))
        }
        ColumnVec::Text(d, v) => block!(3, d, v, |x| put_string(out, x)),
        ColumnVec::Date(d, v) => block!(4, d, v, |x| out.extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Time(d, v) => block!(5, d, v, |x| out.extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Timestamp(d, v) => {
            block!(6, d, v, |x| out.extend_from_slice(&x.to_le_bytes()))
        }
    }
}

/// How cells written before every column held its declared type's class
/// read, and the type their column is then declared: one class, or all
/// NULL, is that class's vector (of `col`'s type when the class is its,
/// else of the class's natural type); numbers only are `double
/// precision`; any other mixture is `varchar` holding each cell's PG
/// text.
pub fn settle(col: &mut Column, cells: Vec<Cell>) -> ColumnVec {
    let mut classes = cells.iter().filter_map(Cell::class);
    let first = classes.next();
    let numbers = |c: Class| matches!(c, Class::Int | Class::Float);
    let ty = match first {
        None => col.ty,
        Some(k) if classes.clone().all(|c| c == k) => {
            if k == col.ty.class() {
                col.ty
            } else {
                cells.iter().find(|c| !c.is_null()).expect("a cell of class k").natural_type()
            }
        }
        Some(k) if numbers(k) && classes.all(numbers) => PgType::Float8,
        Some(_) => {
            col.ty = PgType::Varchar;
            let text = cells.into_iter().map(|c| c.to_wire_text().map_or(Cell::Null, Cell::Text));
            return ColumnVec::from_cells(PgType::Varchar, text.collect()).expect("text cells");
        }
    };
    col.ty = ty;
    ColumnVec::from_cells(ty, cells).expect("cells of one class, or numbers into a float")
}

/// Append `add`'s rows to `table` on replay. Where a column's decoded
/// class differs from the insert's (data written before every column
/// held its declared type's class), the table's columns read, with the
/// rows they gain, by [`settle`].
pub fn append_settled(table: &mut Batch, add: Batch) {
    if table.columns.iter().zip(&add.columns).all(|(a, b)| a.class() == b.class()) {
        return table.append(add);
    }
    let rows = table.rows() + add.rows();
    let mut schema = std::mem::take(&mut table.schema);
    let pairs = std::mem::take(&mut table.columns).into_iter().zip(add.columns);
    let columns = pairs
        .zip(&mut schema)
        .map(|((a, b), c)| settle(c, a.into_cells().into_iter().chain(b.into_cells()).collect()))
        .collect();
    *table = Batch::new(schema, columns, rows);
}

/// Decode one column block of the column `col`, whose type follows what
/// the block holds ([`settle`]).
fn decode_column(c: &mut Cursor, col: &mut Column) -> Result<ColumnVec, CodecError> {
    let tag = c.u8()?;
    let declared = c.u64()?;
    // `n` elements of at least `$width` bytes each through `c.$read()`,
    // then the validity.
    macro_rules! block {
        ($variant:ident, $width:expr, $read:ident) => {{
            let n = c.checked_len(declared, $width)?;
            let data = (0..n).map(|_| c.$read()).collect::<Result<_, _>>()?;
            ColumnVec::$variant(data, decode_validity(c, n)?)
        }};
    }
    let block = match tag {
        0 => {
            let n = c.checked_len(declared, 1)?;
            let data = c.take(n)?.iter().map(|b| *b != 0).collect();
            ColumnVec::Bool(data, decode_validity(c, n)?)
        }
        1 => block!(Int, 8, i64),
        2 => block!(Float, 8, f64),
        3 => block!(Text, 4, string),
        4 => block!(Date, 4, i32),
        5 => block!(Time, 8, i64),
        6 => block!(Timestamp, 8, i64),
        7 => {
            let n = c.checked_len(declared, 1)?;
            let cells = (0..n).map(|_| decode_cell(c)).collect::<Result<_, _>>()?;
            return Ok(settle(col, cells));
        }
        other => return err(format!("unknown ColumnVec tag {other}")),
    };
    // A typed block of another class than its column's reads as cells.
    Ok(if block.class() == col.ty.class() { block } else { settle(col, block.into_cells()) })
}

// -------------------------------------------------------------- batches

/// Encode a full batch: schema, row count, then each column block.
pub fn encode_batch(out: &mut Vec<u8>, batch: &Batch) {
    encode_schema(out, &batch.schema);
    put_u64(out, batch.rows() as u64);
    for col in &batch.columns {
        encode_column(out, col);
    }
}

pub fn decode_batch(c: &mut Cursor) -> Result<Batch, CodecError> {
    let mut schema = decode_schema(c)?;
    let rows = usize::try_from(c.u64()?)
        .map_err(|_| CodecError("row count overflows usize".into()))?;
    let mut columns = Vec::with_capacity(schema.len());
    for def in &mut schema {
        let col = decode_column(c, def)?;
        if col.len() != rows {
            return err(format!("column of {} rows in a {rows}-row batch", col.len()));
        }
        columns.push(col);
    }
    Ok(Batch::new(schema, columns, rows))
}

/// Encode one column on its own (segment bodies address columns
/// individually via footer offsets).
pub fn encode_column_block(out: &mut Vec<u8>, col: &ColumnVec) {
    encode_column(out, col);
}

/// Decode the block of column `col`, its type following the block
/// ([`settle`]).
pub fn decode_column_block(c: &mut Cursor, col: &mut Column) -> Result<ColumnVec, CodecError> {
    decode_column(c, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(batch: &Batch) -> Batch {
        let mut buf = Vec::new();
        encode_batch(&mut buf, batch);
        let mut c = Cursor::new(&buf);
        let got = decode_batch(&mut c).expect("decode");
        assert!(c.is_done(), "trailing bytes after batch");
        got
    }

    #[test]
    fn batch_round_trips_all_variants() {
        let mut v2 = Validity::all_valid(2);
        v2.set_null(1);
        let batch = Batch::new(
            vec![
                Column::new("b", PgType::Bool),
                Column::new("i", PgType::Int8),
                Column::new("f", PgType::Float8),
                Column::new("t", PgType::Text),
                Column::new("d", PgType::Date),
                Column::new("tm", PgType::Time),
                Column::new("ts", PgType::Timestamp),
            ],
            vec![
                ColumnVec::Bool(vec![true, false], v2.clone()),
                ColumnVec::Int(vec![i64::MIN, i64::MAX], v2.clone()),
                ColumnVec::Float(vec![f64::NAN, -0.0], v2.clone()),
                ColumnVec::Text(vec!["héllo".into(), String::new()], v2.clone()),
                ColumnVec::Date(vec![-1, 6021], v2.clone()),
                ColumnVec::Time(vec![0, 86_399_999_999], v2.clone()),
                ColumnVec::Timestamp(vec![i64::MIN / 2, 1], v2),
            ],
            2,
        );
        let got = round_trip(&batch);
        assert!(batch.structurally_equal(&got));
        // NaN payload bits survive (structurally_equal treats NaN==NaN,
        // so check the bits directly too).
        match (&batch.columns[2], &got.columns[2]) {
            (ColumnVec::Float(a, _), ColumnVec::Float(b, _)) => {
                assert_eq!(a[0].to_bits(), b[0].to_bits());
            }
            _ => panic!("float column changed variant"),
        }
    }

    /// A tag-7 block of `cells`, as the encoder once wrote one.
    fn tag_7(cells: &[Cell]) -> Vec<u8> {
        let mut out = vec![7];
        put_u64(&mut out, cells.len() as u64);
        for cell in cells {
            match cell {
                Cell::Null => out.push(0),
                Cell::Int(v) => out.extend([&[2][..], &v.to_le_bytes()].concat()),
                Cell::Float(v) => out.extend([&[3][..], &v.to_bits().to_le_bytes()].concat()),
                Cell::Text(s) => {
                    out.push(4);
                    put_string(&mut out, s);
                }
                other => unreachable!("{other:?}"),
            }
        }
        out
    }

    #[test]
    fn tag_7_blocks_decode_by_the_mixture_rule() {
        let read = |ty: PgType, cells: &[Cell]| {
            let mut col = Column::new("c", ty);
            let block = tag_7(cells);
            let got = decode_column(&mut Cursor::new(&block), &mut col).unwrap();
            (col.ty, got.to_cells())
        };
        let (one, x) = (Cell::Int(1), Cell::Text("x".into()));
        // One class: that class's vector, of the class's type if the
        // declared one has another.
        let one_null = vec![one.clone(), Cell::Null];
        assert_eq!(read(PgType::Int4, &one_null), (PgType::Int4, one_null.clone()));
        let text = vec![x.clone()];
        assert_eq!(read(PgType::Date, &text), (PgType::Varchar, text.clone()));
        // All NULL: the declared type.
        let nulls = vec![Cell::Null; 2];
        assert_eq!(read(PgType::Date, &nulls), (PgType::Date, nulls.clone()));
        // Numbers only: double precision.
        let floats = vec![Cell::Float(1.0), Cell::Null, Cell::Float(1.5)];
        let numbers = [one.clone(), Cell::Null, Cell::Float(1.5)];
        assert_eq!(read(PgType::Int8, &numbers), (PgType::Float8, floats));
        // Anything else: varchar of each cell's PG text.
        let texts = vec![Cell::Text("1".into()), x.clone(), Cell::Null];
        assert_eq!(read(PgType::Int8, &[one.clone(), x, Cell::Null]), (PgType::Varchar, texts));
        // A typed block of another class than declared follows the block.
        let mut col = Column::new("c", PgType::Float8);
        let mut block = Vec::new();
        encode_column(&mut block, &ColumnVec::Int(vec![3], Validity::all_valid(1)));
        let got = decode_column(&mut Cursor::new(&block), &mut col).unwrap();
        assert_eq!((col.ty, got.to_cells()), (PgType::Int8, vec![Cell::Int(3)]));
    }

    /// Replay appends an insert of the declared class onto a table
    /// whose old block read as another: the two read as one by the rule.
    #[test]
    fn replayed_inserts_meet_old_blocks_by_the_mixture_rule() {
        let mut table = Batch::new(
            vec![Column::new("a", PgType::Float8)],
            vec![ColumnVec::Float(vec![1.5], Validity::all_valid(1))],
            1,
        );
        let insert = Batch::new(
            vec![Column::new("a", PgType::Int8)],
            vec![ColumnVec::Int(vec![2], Validity::all_valid(1))],
            1,
        );
        append_settled(&mut table, insert);
        assert_eq!(table.schema[0].ty, PgType::Float8);
        assert_eq!(table.columns[0].to_cells(), vec![Cell::Float(1.5), Cell::Float(2.0)]);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = Batch::empty(vec![Column::new("x", PgType::Int8)]);
        assert!(batch.structurally_equal(&round_trip(&batch)));
        let unit = Batch::unit();
        assert!(unit.structurally_equal(&round_trip(&unit)));
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let batch = Batch::new(
            vec![Column::new("x", PgType::Int8)],
            vec![ColumnVec::Int(vec![1, 2, 3], Validity::all_valid(3))],
            3,
        );
        let mut buf = Vec::new();
        encode_batch(&mut buf, &batch);
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert!(decode_batch(&mut c).is_err(), "truncation at {cut} decoded");
        }
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A Text column claiming 2^60 strings must fail fast.
        let mut buf = Vec::new();
        buf.push(3u8); // Text tag
        put_u64(&mut buf, 1u64 << 60);
        let mut c = Cursor::new(&buf);
        assert!(decode_column(&mut c, &mut Column::new("t", PgType::Text)).is_err());
    }
}
