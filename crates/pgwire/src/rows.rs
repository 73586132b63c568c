//! Result rows on the wire, column by column.
//!
//! A result set is typed column vectors on both sides of the PG v3
//! connection — the executor's [`Batch`] in the server, the Q vectors
//! the pivot builds in the gateway — and only the protocol in between
//! is row-oriented (paper §4.2, Figure 5). This module is that
//! boundary, both directions, and the one place that knows how a
//! `DataRow` field is laid out:
//!
//! * [`encode_data_rows`] writes one `DataRow` frame per row of a batch
//!   straight from its [`ColumnVec`]s into a connection's output
//!   buffer;
//! * [`BatchDecoder`] appends each field of each `DataRow` body to a
//!   typed builder per column — the `ColumnVec`s of the [`Batch`] it
//!   finishes into.
//!
//! No `Cell`, `String` or row is built for a binary field (a `varchar`
//! becomes the `String` its vector holds and nothing else).
//!
//! A field travels as PG **text** or PG **binary** (big-endian
//! `int2/4/8` at the declared width, IEEE `float4/8`, one-byte `bool`,
//! `date` as i32 days and `time`/`timestamp` as i64 µs since
//! 2000-01-01 — this stack's own representation and PostgreSQL's;
//! `varchar`/`text` are the same bytes either way). Which one is a
//! property of the column, stated in `RowDescription` and read from
//! there: [`result_formats`] grants binary where the client asked for
//! it *and* the declared type's binary form can carry every value the
//! column holds, text otherwise. A column's vector is always of its
//! declared type's storage class, so both formats decode into that
//! class.

use crate::codec::{count_encoded, frame, Cursor};
use crate::messages::{FieldDesc, Format, TypeOid};
use colstore::types::wire_text;
use colstore::{Batch, Cell, Column, ColumnVec, PgType, Validity};
use std::fmt::{self, Write};

/// The wire OID of an engine type.
pub fn type_oid(ty: PgType) -> TypeOid {
    match ty {
        PgType::Bool => TypeOid::Bool,
        PgType::Int2 => TypeOid::Int2,
        PgType::Int4 => TypeOid::Int4,
        PgType::Int8 => TypeOid::Int8,
        PgType::Float4 => TypeOid::Float4,
        PgType::Float8 => TypeOid::Float8,
        PgType::Varchar => TypeOid::Varchar,
        PgType::Text => TypeOid::Text,
        PgType::Date => TypeOid::Date,
        PgType::Time => TypeOid::Time,
        PgType::Timestamp => TypeOid::Timestamp,
    }
}

/// The engine type a wire OID decodes into.
pub fn pg_type(oid: TypeOid) -> PgType {
    match oid {
        TypeOid::Bool => PgType::Bool,
        TypeOid::Int2 => PgType::Int2,
        TypeOid::Int4 => PgType::Int4,
        TypeOid::Int8 => PgType::Int8,
        TypeOid::Float4 => PgType::Float4,
        TypeOid::Float8 => PgType::Float8,
        TypeOid::Varchar => PgType::Varchar,
        TypeOid::Text | TypeOid::Bytea => PgType::Text,
        TypeOid::Date => PgType::Date,
        TypeOid::Time => PgType::Time,
        TypeOid::Timestamp => PgType::Timestamp,
    }
}

/// Can `col` travel in `ty`'s binary form and come back the same? Its
/// storage class is `ty`'s, but integers and floats are stored at full
/// width whatever width was declared (INSERT does not range-check, so an
/// `integer` column may hold a `bigint` value): an `int2`, `int4` or
/// `float4` column with a value its width cannot carry travels as text,
/// which carries any value.
fn binary_is_exact(col: &ColumnVec, ty: PgType) -> bool {
    fn all_valid<T>(d: &[T], v: &Validity, fits: impl Fn(&T) -> bool) -> bool {
        d.iter().enumerate().all(|(i, x)| v.is_null(i) || fits(x))
    }
    match (col, ty) {
        (ColumnVec::Int(d, v), PgType::Int4) => all_valid(d, v, |x| i32::try_from(*x).is_ok()),
        (ColumnVec::Int(d, v), PgType::Int2) => all_valid(d, v, |x| i16::try_from(*x).is_ok()),
        (ColumnVec::Float(d, v), PgType::Float4) => {
            all_valid(d, v, |x| x.is_nan() || f64::from(*x as f32) == *x)
        }
        _ => true,
    }
}

/// The format each column of `batch` travels in, given the
/// result-format codes of the client's `Bind` (none = all text, one =
/// every column, else one per column).
pub fn result_formats(batch: &Batch, requested: &[i16]) -> Result<Vec<Format>, String> {
    let n = batch.columns.len();
    if requested.len() > 1 && requested.len() != n {
        return Err(format!(
            "bind message has {} result formats but query has {n} columns",
            requested.len()
        ));
    }
    if let Some(bad) = requested.iter().find(|c| Format::from_code(**c).is_none()) {
        return Err(format!("invalid format code: {bad}"));
    }
    Ok(batch
        .columns
        .iter()
        .zip(&batch.schema)
        .enumerate()
        .map(|(i, (col, c))| {
            let asked = match requested {
                [] => 0,
                [all] => *all,
                each => each[i],
            };
            if asked == Format::Binary.code() && binary_is_exact(col, c.ty) {
                Format::Binary
            } else {
                Format::Text
            }
        })
        .collect())
}

/// The `RowDescription` fields of a result with this schema, its
/// columns travelling in `formats`.
pub fn field_descs(schema: &[Column], formats: &[Format]) -> Vec<FieldDesc> {
    schema
        .iter()
        .zip(formats)
        .map(|(c, f)| FieldDesc { name: c.name.clone(), type_oid: type_oid(c.ty), format: f.code() })
        .collect()
}

/// `fmt::Write` over a byte buffer, for the text renderers.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// One column's field writer, resolved once per batch so the row loop
/// does no type dispatch beyond this enum.
enum FieldWriter<'a> {
    Bool(&'a [bool]),
    Int2(&'a [i64]),
    Int4(&'a [i64]),
    Int8(&'a [i64]),
    Float4(&'a [f64]),
    Float8(&'a [f64]),
    Date(&'a [i32]),
    /// `time` and `timestamp`: i64 microseconds.
    Micros(&'a [i64]),
    /// `varchar`/`text`: the bytes, in either format.
    Str(&'a [String]),
    /// Any column, rendered as PG text.
    Text(&'a ColumnVec),
}

impl<'a> FieldWriter<'a> {
    fn new(col: &'a ColumnVec, ty: PgType, format: Format) -> FieldWriter<'a> {
        match (col, ty, format) {
            (ColumnVec::Text(d, _), _, _) => FieldWriter::Str(d),
            (_, _, Format::Text) => FieldWriter::Text(col),
            (ColumnVec::Bool(d, _), PgType::Bool, _) => FieldWriter::Bool(d),
            (ColumnVec::Int(d, _), PgType::Int2, _) => FieldWriter::Int2(d),
            (ColumnVec::Int(d, _), PgType::Int4, _) => FieldWriter::Int4(d),
            (ColumnVec::Int(d, _), PgType::Int8, _) => FieldWriter::Int8(d),
            (ColumnVec::Float(d, _), PgType::Float4, _) => FieldWriter::Float4(d),
            (ColumnVec::Float(d, _), PgType::Float8, _) => FieldWriter::Float8(d),
            (ColumnVec::Date(d, _), PgType::Date, _) => FieldWriter::Date(d),
            (ColumnVec::Time(d, _), PgType::Time, _)
            | (ColumnVec::Timestamp(d, _), PgType::Timestamp, _) => FieldWriter::Micros(d),
            _ => panic!("binary format granted to a {ty:?} column it cannot carry"),
        }
    }

    /// Write the non-NULL field of row `i`: length, then bytes.
    fn write(&self, i: usize, out: &mut Vec<u8>) {
        fn fixed<const N: usize>(out: &mut Vec<u8>, bytes: [u8; N]) {
            out.extend_from_slice(&(N as i32).to_be_bytes());
            out.extend_from_slice(&bytes);
        }
        match self {
            FieldWriter::Bool(d) => fixed(out, [u8::from(d[i])]),
            // `binary_is_exact` checked that every value fits.
            FieldWriter::Int2(d) => fixed(out, (d[i] as i16).to_be_bytes()),
            FieldWriter::Int4(d) => fixed(out, (d[i] as i32).to_be_bytes()),
            FieldWriter::Int8(d) => fixed(out, d[i].to_be_bytes()),
            FieldWriter::Float4(d) => fixed(out, (d[i] as f32).to_be_bytes()),
            FieldWriter::Float8(d) => fixed(out, d[i].to_be_bytes()),
            FieldWriter::Date(d) => fixed(out, d[i].to_be_bytes()),
            FieldWriter::Micros(d) => fixed(out, d[i].to_be_bytes()),
            FieldWriter::Str(d) => {
                out.extend_from_slice(&(d[i].len() as i32).to_be_bytes());
                out.extend_from_slice(d[i].as_bytes());
            }
            FieldWriter::Text(col) => {
                // Length unknown until rendered: patch it in afterwards.
                let at = out.len();
                out.extend_from_slice(&[0; 4]);
                write_text(col, i, &mut Utf8Sink(out)).expect("writing to a Vec cannot fail");
                let len = (out.len() - at - 4) as i32;
                out[at..at + 4].copy_from_slice(&len.to_be_bytes());
            }
        }
    }
}

/// PG text of the non-NULL slot `i` of `col`.
fn write_text(col: &ColumnVec, i: usize, out: &mut Utf8Sink<'_>) -> fmt::Result {
    match col {
        ColumnVec::Bool(d, _) => out.write_char(if d[i] { 't' } else { 'f' }),
        ColumnVec::Int(d, _) => write!(out, "{}", d[i]),
        ColumnVec::Float(d, _) => wire_text::write_float(d[i], out),
        ColumnVec::Text(d, _) => out.write_str(&d[i]),
        ColumnVec::Date(d, _) => wire_text::write_date(d[i], out),
        ColumnVec::Time(d, _) => wire_text::write_time(d[i], out),
        ColumnVec::Timestamp(d, _) => wire_text::write_timestamp(d[i], out),
    }
}

/// Append one `DataRow` frame per row of `batch` to `out`, column `j`
/// in `formats[j]` (as [`result_formats`] granted them; all
/// [`Format::Text`] answers a simple `Query`).
pub fn encode_data_rows(batch: &Batch, formats: &[Format], out: &mut Vec<u8>) {
    assert_eq!(formats.len(), batch.columns.len(), "one format per column");
    let writers: Vec<(FieldWriter<'_>, Option<&ColumnVec>)> = batch
        .columns
        .iter()
        .zip(&batch.schema)
        .zip(formats)
        .map(|((col, c), f)| {
            (FieldWriter::new(col, c.ty, *f), (col.null_cells() > 0).then_some(col))
        })
        .collect();
    let width = (writers.len() as i16).to_be_bytes();
    for i in 0..batch.rows() {
        frame(out, Some(b'D'), |b| {
            b.extend_from_slice(&width);
            for (writer, nullable) in &writers {
                if nullable.is_some_and(|col| col.is_null(i)) {
                    b.extend_from_slice(&(-1i32).to_be_bytes());
                } else {
                    writer.write(i, b);
                }
            }
        });
    }
    count_encoded(batch.rows() as u64);
}

/// Why a `DataRow` could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    /// What was wrong, naming the column and its type where one is at
    /// fault.
    pub message: String,
    /// Whether the fault was in a binary-format field (as opposed to a
    /// text field or the row's framing).
    pub binary: bool,
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RowError {}

/// Builds a [`Batch`] from a `RowDescription` and the `DataRow` bodies
/// that follow it: one typed builder per column, chosen by the field's
/// type OID, each field parsed by the column's format code.
#[derive(Debug)]
pub struct BatchDecoder {
    schema: Vec<Column>,
    formats: Vec<Format>,
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl BatchDecoder {
    /// A decoder for rows described by `fields`. Fails on a format code
    /// that is neither text nor binary.
    pub fn new(fields: &[FieldDesc]) -> Result<BatchDecoder, RowError> {
        let schema: Vec<Column> =
            fields.iter().map(|f| Column::new(f.name.clone(), pg_type(f.type_oid))).collect();
        let formats = fields
            .iter()
            .zip(&schema)
            .map(|(f, c)| {
                Format::from_code(f.format).ok_or_else(|| RowError {
                    message: format!("{}: unknown format code {}", describe(c), f.format),
                    binary: false,
                })
            })
            .collect::<Result<_, _>>()?;
        let columns = schema.iter().map(|c| ColumnVec::empty(c.ty)).collect();
        Ok(BatchDecoder { schema, formats, columns, rows: 0 })
    }

    /// Rows decoded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Fields decoded so far, as `(binary, text)`.
    pub fn fields_decoded(&self) -> (u64, u64) {
        let binary = self.formats.iter().filter(|f| **f == Format::Binary).count();
        let rows = self.rows as u64;
        (rows * binary as u64, rows * (self.formats.len() - binary) as u64)
    }

    /// Append one `DataRow` body. After an error the decoder's columns
    /// are ragged and the result must be discarded.
    pub fn push_row(&mut self, body: &[u8]) -> Result<(), RowError> {
        let framing = |message: String| RowError { message, binary: false };
        let mut body = Cursor(body);
        let declared = body
            .i16()
            .ok_or_else(|| framing("DataRow shorter than its field count".into()))?;
        if usize::try_from(declared) != Ok(self.columns.len()) {
            return Err(framing(format!(
                "DataRow has {declared} fields, RowDescription declared {}",
                self.columns.len()
            )));
        }
        for ((col, c), format) in self.columns.iter_mut().zip(&self.schema).zip(&self.formats) {
            let fault = |what: String| RowError {
                message: format!("{}: {what}", describe(c)),
                binary: *format == Format::Binary,
            };
            let len = body
                .i32()
                .ok_or_else(|| fault("DataRow ends before the field's length".into()))?;
            if len == -1 {
                push_null(col);
                continue;
            }
            let bytes = usize::try_from(len)
                .map_err(|_| fault(format!("field length {len} is negative")))
                .and_then(|n| {
                    let left = body.0.len();
                    body.bytes(n).ok_or_else(|| {
                        fault(format!(
                            "field of {n} bytes runs past the end of the DataRow ({left} left)"
                        ))
                    })
                })?;
            match format {
                Format::Binary => push_binary(col, c.ty, bytes).map_err(fault)?,
                Format::Text => push_text(col, c.ty, bytes).map_err(fault)?,
            }
        }
        if !body.0.is_empty() {
            return Err(framing(format!("DataRow has {} bytes after its last field", body.0.len())));
        }
        self.rows += 1;
        Ok(())
    }

    /// The decoded result: typed vectors, typed empty ones for zero
    /// rows.
    pub fn finish(self) -> Batch {
        Batch::new(self.schema, self.columns, self.rows)
    }
}

fn describe(c: &Column) -> String {
    format!("column {:?} ({})", c.name, c.ty.sql_name())
}

fn push_null(col: &mut ColumnVec) {
    match col {
        ColumnVec::Bool(d, v) => (d.push(false), v.push(true)),
        ColumnVec::Int(d, v) | ColumnVec::Time(d, v) | ColumnVec::Timestamp(d, v) => {
            (d.push(0), v.push(true))
        }
        ColumnVec::Float(d, v) => (d.push(0.0), v.push(true)),
        ColumnVec::Text(d, v) => (d.push(String::new()), v.push(true)),
        ColumnVec::Date(d, v) => (d.push(0), v.push(true)),
    };
}

fn utf8(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| format!("field is not UTF-8 ({e})"))
}

/// Append a text-format field: `varchar`/`text` are their own bytes,
/// everything else parses by the one text grammar
/// ([`Cell::from_wire_text`]). The parsed cell's class is the
/// builder's — both follow from the column's declared type.
fn push_text(col: &mut ColumnVec, ty: PgType, bytes: &[u8]) -> Result<(), String> {
    let text = utf8(bytes)?;
    if let ColumnVec::Text(d, v) = col {
        d.push(text.to_owned());
        v.push(false);
        return Ok(());
    }
    let cell = Cell::from_wire_text(text, ty).ok_or_else(|| format!("cannot decode text {text:?}"))?;
    match (col, cell) {
        (ColumnVec::Bool(d, v), Cell::Bool(x)) => (d.push(x), v.push(false)),
        (ColumnVec::Int(d, v), Cell::Int(x))
        | (ColumnVec::Time(d, v), Cell::Time(x))
        | (ColumnVec::Timestamp(d, v), Cell::Timestamp(x)) => (d.push(x), v.push(false)),
        (ColumnVec::Float(d, v), Cell::Float(x)) => (d.push(x), v.push(false)),
        (ColumnVec::Date(d, v), Cell::Date(x)) => (d.push(x), v.push(false)),
        (col, cell) => unreachable!("{cell:?} parsed for a builder of another class: {col:?}"),
    };
    Ok(())
}

/// Append a binary-format field straight onto the column's vector.
fn push_binary(col: &mut ColumnVec, ty: PgType, bytes: &[u8]) -> Result<(), String> {
    fn fixed<const N: usize>(bytes: &[u8]) -> Result<[u8; N], String> {
        bytes
            .try_into()
            .map_err(|_| format!("binary field is {} bytes, expected {N}", bytes.len()))
    }
    match (col, ty) {
        (ColumnVec::Bool(d, v), _) => {
            d.push(match fixed(bytes)? {
                [0] => false,
                [1] => true,
                [b] => return Err(format!("binary boolean is {b}, expected 0 or 1")),
            });
            v.push(false);
        }
        (ColumnVec::Int(d, v), PgType::Int2) => {
            d.push(i16::from_be_bytes(fixed(bytes)?).into());
            v.push(false);
        }
        (ColumnVec::Int(d, v), PgType::Int4) => {
            d.push(i32::from_be_bytes(fixed(bytes)?).into());
            v.push(false);
        }
        (ColumnVec::Float(d, v), PgType::Float4) => {
            d.push(f32::from_be_bytes(fixed(bytes)?).into());
            v.push(false);
        }
        (ColumnVec::Float(d, v), _) => {
            d.push(f64::from_be_bytes(fixed(bytes)?));
            v.push(false);
        }
        (ColumnVec::Text(d, v), _) => {
            d.push(utf8(bytes)?.to_owned());
            v.push(false);
        }
        (ColumnVec::Date(d, v), _) => {
            d.push(i32::from_be_bytes(fixed(bytes)?));
            v.push(false);
        }
        (ColumnVec::Int(d, v) | ColumnVec::Time(d, v) | ColumnVec::Timestamp(d, v), _) => {
            d.push(i64::from_be_bytes(fixed(bytes)?));
            v.push(false);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::Rows;
    use proptest::prelude::*;

    const TYPES: [PgType; 11] = [
        PgType::Bool,
        PgType::Int2,
        PgType::Int4,
        PgType::Int8,
        PgType::Float4,
        PgType::Float8,
        PgType::Varchar,
        PgType::Text,
        PgType::Date,
        PgType::Time,
        PgType::Timestamp,
    ];

    /// Text → decode of one batch in the given formats.
    fn through_the_wire(batch: &Batch, formats: &[Format]) -> Batch {
        let mut wire = Vec::new();
        encode_data_rows(batch, formats, &mut wire);
        let mut decoder = BatchDecoder::new(&field_descs(&batch.schema, formats)).unwrap();
        let mut reader = crate::MessageReader::new(false);
        reader.feed(&wire);
        while let Some((ty, body)) = reader.next_backend_frame().unwrap() {
            assert_eq!(ty, b'D');
            decoder.push_row(body).unwrap();
        }
        decoder.finish()
    }

    /// What the gateway's row decoder produced before there was a
    /// batch decoder: every cell through its PG text and back by the
    /// declared type.
    fn rows_by_text(batch: &Batch) -> Rows {
        let mut rows = batch.to_rows();
        for row in &mut rows.data {
            for (cell, c) in row.iter_mut().zip(&batch.schema) {
                if let Some(text) = cell.to_wire_text() {
                    *cell = Cell::from_wire_text(&text, c.ty).expect("own text parses");
                }
            }
        }
        rows
    }

    /// `Debug` distinguishes `-0.0` from `0.0` and equates NaNs, which
    /// `PartialEq` on floats gets the other way round.
    fn same(a: &Rows, b: &Rows) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    fn assert_round_trips(batch: &Batch) {
        let want = rows_by_text(batch);
        let text = vec![Format::Text; batch.columns.len()];
        let granted = result_formats(batch, &[Format::Binary.code()]).unwrap();
        for formats in [text, granted] {
            let got = through_the_wire(batch, &formats);
            assert_eq!(got.schema, batch.schema, "{formats:?}");
            assert!(got.structurally_equal(batch), "{formats:?}\n{got:?}\n{batch:?}");
            for (col, c) in got.columns.iter().zip(&got.schema) {
                assert_eq!(
                    std::mem::discriminant(col),
                    std::mem::discriminant(&ColumnVec::empty(c.ty)),
                    "{} decoded into the wrong class",
                    c.name
                );
            }
            assert!(same(&got.into_rows(), &want), "{formats:?}");
        }
    }

    /// A value of `ty`'s class from `bits`, leaning on the edges.
    fn cell_of(ty: PgType, bits: u64) -> Cell {
        let pick = (bits >> 56) as usize;
        match ty {
            PgType::Bool => Cell::Bool(bits & 1 == 1),
            PgType::Int2 => Cell::Int([i16::MIN, i16::MAX, 0, bits as i16][pick % 4].into()),
            PgType::Int4 => Cell::Int([i32::MIN, i32::MAX, -1, bits as i32][pick % 4].into()),
            PgType::Int8 => Cell::Int([i64::MIN, i64::MAX, 0, bits as i64][pick % 4]),
            PgType::Float4 => {
                let any = f32::from_bits(bits as u32);
                let edges = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MAX, 0.1, any];
                Cell::Float(edges[pick % 7].into())
            }
            PgType::Float8 => {
                let any = f64::from_bits(bits);
                let edges =
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE, 0.1, any];
                Cell::Float(edges[pick % 7])
            }
            PgType::Varchar | PgType::Text => Cell::Text(
                ["", "GOOG", "naïve", "世界", "𝄞 clef", "a\tb\nc", " "][pick % 7].to_string(),
            ),
            // Years 357–3642: what `YYYY-MM-DD` can spell.
            PgType::Date => Cell::Date((bits % 1_200_000) as i32 - 600_000),
            PgType::Time => Cell::Time((bits % 86_400_000_000) as i64),
            PgType::Timestamp => {
                Cell::Timestamp((bits % 100_000_000_000_000_000) as i64 - 50_000_000_000_000_000)
            }
        }
    }

    fn one_column(ty: PgType, cells: Vec<Cell>) -> Batch {
        let n = cells.len();
        Batch::new(vec![Column::new("v", ty)], vec![ColumnVec::from_cells(ty, cells).unwrap()], n)
    }

    fn random_batch(seed: u64, rows: usize, width: usize) -> Batch {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut columns = vec![Column::new("ordcol", PgType::Int8)];
        for j in 0..width {
            columns.push(Column::new(format!("c{j}"), TYPES[next() as usize % TYPES.len()]));
        }
        let data = (0..rows)
            .map(|i| {
                columns
                    .iter()
                    .enumerate()
                    .map(|(j, c)| match (j, next() % 5) {
                        (0, _) => Cell::Int(i as i64 + 1),
                        (_, 0) => Cell::Null,
                        _ => cell_of(c.ty, next()),
                    })
                    .collect()
            })
            .collect();
        Batch::from_rows(Rows { columns, data })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wire-format oracle: text and binary are two spellings of
        /// one batch, and both spell what the row decoder used to.
        #[test]
        fn text_and_binary_decode_to_the_batch_that_was_encoded(
            seed in any::<u64>(),
            rows in 0usize..40,
            width in 0usize..9,
        ) {
            assert_round_trips(&random_batch(seed, rows, width));
        }
    }

    #[test]
    fn every_type_round_trips_at_its_edges() {
        for ty in TYPES {
            let cells: Vec<Cell> = (0..64u64)
                .map(|i| match i % 9 {
                    0 => Cell::Null,
                    _ => cell_of(ty, (i << 56) | (i * 0x9E37_79B9)),
                })
                .collect();
            let batch = one_column(ty, cells);
            assert_eq!(result_formats(&batch, &[1]).unwrap(), vec![Format::Binary], "{ty:?}");
            assert_round_trips(&batch);
        }
    }

    #[test]
    fn zero_rows_decode_to_typed_empty_vectors() {
        let schema: Vec<Column> =
            TYPES.iter().enumerate().map(|(i, ty)| Column::new(format!("c{i}"), *ty)).collect();
        let empty = Batch::empty(schema);
        assert_round_trips(&empty);
        let got = through_the_wire(&empty, &result_formats(&empty, &[1]).unwrap());
        assert_eq!(got, empty);
    }

    #[test]
    fn null_and_empty_varchar_stay_distinct() {
        let cells = vec![Cell::Text(String::new()), Cell::Null, Cell::Text("x".into())];
        let batch = one_column(PgType::Varchar, cells.clone());
        for formats in [[Format::Text], [Format::Binary]] {
            assert_eq!(through_the_wire(&batch, &formats).columns[0].to_cells(), cells);
        }
    }

    #[test]
    fn binary_is_granted_only_where_it_is_exact() {
        let col = one_column;
        // An `integer` column holding what only a bigint can.
        let wide = col(PgType::Int4, vec![Cell::Int(1 << 40), Cell::Null]);
        // A `real` column holding a double no f32 equals.
        let fine = col(PgType::Float4, vec![Cell::Float(0.1), Cell::Float(0.5)]);
        for batch in [&wide, &fine] {
            assert_eq!(result_formats(batch, &[1]).unwrap(), vec![Format::Text]);
            assert_round_trips(batch);
        }
        // Every other column of its declared class travels binary.
        let floats = col(PgType::Float8, vec![Cell::Int(1), Cell::Float(1.5)]);
        assert_eq!(result_formats(&floats, &[1]).unwrap(), vec![Format::Binary]);
        assert_round_trips(&floats);
        // Nothing asked for, nothing granted; a bad request is refused.
        let plain = col(PgType::Int8, vec![Cell::Int(1), Cell::Int(2)]);
        assert_eq!(result_formats(&plain, &[]).unwrap(), vec![Format::Text]);
        assert_eq!(result_formats(&plain, &[0]).unwrap(), vec![Format::Text]);
        assert!(result_formats(&plain, &[1, 1]).unwrap_err().contains("2 result formats"));
        assert!(result_formats(&plain, &[7]).unwrap_err().contains("invalid format code"));
    }

    /// `(name, oid, format code)`.
    type Field = (&'static str, TypeOid, i16);

    /// A decoder for rows of `fields`.
    fn decoder(fields: &[Field]) -> Result<BatchDecoder, RowError> {
        let fields: Vec<FieldDesc> = fields
            .iter()
            .map(|&(name, type_oid, format)| FieldDesc { name: name.to_string(), type_oid, format })
            .collect();
        BatchDecoder::new(&fields)
    }

    /// A `DataRow` body: field count, then `(length, bytes)` pairs.
    fn row(count: i16, fields: &[(i32, &[u8])]) -> Vec<u8> {
        let mut body = count.to_be_bytes().to_vec();
        for (len, bytes) in fields {
            body.extend_from_slice(&len.to_be_bytes());
            body.extend_from_slice(bytes);
        }
        body
    }

    #[test]
    fn malformed_rows_are_typed_errors_naming_column_and_type() {
        /// `body` must be refused with a message containing `want`, the
        /// fault placed in a binary field or not.
        fn refused(fields: &[Field], body: Vec<u8>, want: &str, binary: bool) {
            let err = decoder(fields).unwrap().push_row(&body).unwrap_err();
            assert!(err.message.contains(want), "{err} does not mention {want:?}");
            assert_eq!(err.binary, binary, "{err}");
        }
        let price = [("Price", TypeOid::Float8, 1)];
        let named = "column \"Price\" (double precision): ";

        // Fixed-width field with the wrong length.
        let want = format!("{named}binary field is 7 bytes, expected 8");
        refused(&price, row(1, &[(7, &[0; 7])]), &want, true);
        let want = "column \"n\" (integer): binary field is 8 bytes, expected 4";
        refused(&[("n", TypeOid::Int4, 1)], row(1, &[(8, &[0; 8])]), want, true);
        let want = "column \"d\" (date): binary field is 0 bytes, expected 4";
        refused(&[("d", TypeOid::Date, 1)], row(1, &[(0, &[])]), want, true);

        // Field count that is not RowDescription's.
        let two = row(2, &[(8, &[0; 8]), (8, &[0; 8])]);
        refused(&price, two, "DataRow has 2 fields, RowDescription declared 1", false);
        refused(&price, row(-1, &[]), "DataRow has -1 fields", false);

        // Negative length other than -1.
        let want = format!("{named}field length -2 is negative");
        refused(&price, row(1, &[(-2, &[])]), &want, true);

        // Field running past the frame.
        let want = "field of 8 bytes runs past the end of the DataRow (3 left)";
        refused(&price, row(1, &[(8, &[0; 3])]), want, true);
        refused(&price, row(1, &[]), "DataRow ends before the field's length", true);
        refused(&price, vec![0], "DataRow shorter than its field count", false);

        // Bytes nobody declared.
        refused(&price, row(1, &[(8, &[0; 9])]), "1 bytes after its last field", false);

        // Values that are not values.
        let want = "column \"b\" (boolean): binary boolean is 2";
        refused(&[("b", TypeOid::Bool, 1)], row(1, &[(1, &[2])]), want, true);
        let want = "column \"b\" (boolean): cannot decode text \"yes\"";
        refused(&[("b", TypeOid::Bool, 0)], row(1, &[(3, b"yes")]), want, false);
        let want = "column \"x\" (bigint): cannot decode text \"notanumber\"";
        refused(&[("x", TypeOid::Int8, 0)], row(1, &[(10, b"notanumber")]), want, false);
        let bad_utf8 = || row(1, &[(2, &[0xC3, 0x28])]);
        let want = "column \"s\" (varchar): field is not UTF-8";
        refused(&[("s", TypeOid::Varchar, 1)], bad_utf8(), want, true);
        let want = "column \"s\" (text): field is not UTF-8";
        refused(&[("s", TypeOid::Text, 0)], bad_utf8(), want, false);

        // A format code that is neither text nor binary.
        let err = decoder(&[("Price", TypeOid::Float8, 2)]).unwrap_err();
        assert_eq!(err.message, format!("{named}unknown format code 2"));
    }

    #[test]
    fn fields_are_counted_by_format() {
        let fields = [("a", TypeOid::Int8, 1), ("b", TypeOid::Int8, 0), ("c", TypeOid::Date, 1)];
        let mut d = decoder(&fields).unwrap();
        for _ in 0..3 {
            d.push_row(&row(3, &[(8, &[0; 8]), (1, b"7"), (-1, &[])])).unwrap();
        }
        assert_eq!((d.rows(), d.fields_decoded()), (3, (6, 3)));
        let batch = d.finish();
        assert_eq!(batch.row(0), vec![Cell::Int(0), Cell::Int(7), Cell::Null]);
    }
}
