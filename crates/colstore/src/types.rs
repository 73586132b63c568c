//! Runtime value and type model for the SQL engine.
//!
//! A cell carries its storage [`Class`] (integers unify to `i64`, floats
//! to `f64`); a column's declared SQL type names the class every one of
//! its values has ([`PgType::class`]) and the width the wire and the
//! catalog report. Temporal conventions match the translation stack:
//! dates are days since 2000-01-01, times/timestamps are microseconds.

use std::fmt::{self, Write as _};

/// Declared SQL column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PgType {
    /// `boolean`
    Bool,
    /// `smallint`
    Int2,
    /// `integer`
    Int4,
    /// `bigint`
    Int8,
    /// `real`
    Float4,
    /// `double precision`
    Float8,
    /// `varchar`
    Varchar,
    /// `text`
    Text,
    /// `date`
    Date,
    /// `time`
    Time,
    /// `timestamp`
    Timestamp,
}

impl PgType {
    /// Parse a SQL type name (as it appears in DDL or casts).
    pub fn parse(name: &str) -> Option<PgType> {
        Some(match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => PgType::Bool,
            "smallint" | "int2" => PgType::Int2,
            "int" | "integer" | "int4" => PgType::Int4,
            "bigint" | "int8" => PgType::Int8,
            "real" | "float4" => PgType::Float4,
            "double precision" | "float8" | "double" => PgType::Float8,
            "varchar" | "character varying" => PgType::Varchar,
            "text" => PgType::Text,
            "date" => PgType::Date,
            "time" => PgType::Time,
            "timestamp" => PgType::Timestamp,
            _ => return None,
        })
    }

    /// Canonical SQL name (used by `information_schema.columns`).
    pub fn sql_name(&self) -> &'static str {
        match self {
            PgType::Bool => "boolean",
            PgType::Int2 => "smallint",
            PgType::Int4 => "integer",
            PgType::Int8 => "bigint",
            PgType::Float4 => "real",
            PgType::Float8 => "double precision",
            PgType::Varchar => "varchar",
            PgType::Text => "text",
            PgType::Date => "date",
            PgType::Time => "time",
            PgType::Timestamp => "timestamp",
        }
    }

    /// Is this a numeric type?
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            PgType::Int2 | PgType::Int4 | PgType::Int8 | PgType::Float4 | PgType::Float8
        )
    }

    /// The storage class every value of this type has.
    pub fn class(self) -> Class {
        match self {
            PgType::Bool => Class::Bool,
            PgType::Int2 | PgType::Int4 | PgType::Int8 => Class::Int,
            PgType::Float4 | PgType::Float8 => Class::Float,
            PgType::Varchar | PgType::Text => Class::Text,
            PgType::Date => Class::Date,
            PgType::Time => Class::Time,
            PgType::Timestamp => Class::Timestamp,
        }
    }
}

/// Storage class: how a value is held — the [`Cell`] variant, and the
/// typed vector of a column (`ColumnVec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Bool,
    Int,
    Float,
    Text,
    Date,
    Time,
    Timestamp,
}

/// A value whose storage class is not its column's: what building a
/// column of a declared type refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMismatch {
    /// The column's declared type.
    pub declared: PgType,
    /// The value's natural type ([`Cell::natural_type`]).
    pub found: PgType,
}

impl fmt::Display for ClassMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (found, declared) = (self.found.sql_name(), self.declared.sql_name());
        write!(f, "a {found} value cannot be stored in a {declared} column")
    }
}

impl std::error::Error for ClassMismatch {}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any integer.
    Int(i64),
    /// Any float.
    Float(f64),
    /// varchar/text.
    Text(String),
    /// Days since 2000-01-01.
    Date(i32),
    /// Microseconds since midnight.
    Time(i64),
    /// Microseconds since 2000-01-01 00:00.
    Timestamp(i64),
}

impl Cell {
    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Storage class; `None` for NULL, which every class holds.
    pub fn class(&self) -> Option<Class> {
        (!self.is_null()).then(|| self.natural_type().class())
    }

    /// This cell as a value of `ty`: NULL and cells of `ty`'s class as
    /// they are, an integer widened into a float class, anything else a
    /// [`ClassMismatch`].
    pub fn into_class(self, ty: PgType) -> Result<Cell, ClassMismatch> {
        match (self.class(), ty.class()) {
            (None, _) => Ok(self),
            (Some(c), want) if c == want => Ok(self),
            (Some(Class::Int), Class::Float) => Ok(Cell::Float(self.as_f64().expect("an integer"))),
            _ => Err(ClassMismatch { declared: ty, found: self.natural_type() }),
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(v) => Some(*v as f64),
            Cell::Float(v) => Some(*v),
            Cell::Bool(b) => Some(*b as i64 as f64),
            Cell::Date(v) => Some(*v as f64),
            Cell::Time(v) => Some(*v as f64),
            Cell::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic: NULL yields `None`.
    pub fn sql_eq(&self, other: &Cell) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.eq_not_null(other))
    }

    /// `IS NOT DISTINCT FROM`: two-valued — NULLs are equal.
    pub fn not_distinct(&self, other: &Cell) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.eq_not_null(other),
        }
    }

    fn eq_not_null(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::Text(a), Cell::Text(b)) => a == b,
            (Cell::Bool(a), Cell::Bool(b)) => a == b,
            // PostgreSQL float semantics: NaN equals NaN, unlike IEEE.
            // This keeps GROUP BY / DISTINCT / set-op bucketing total
            // and consistent with the hashed CellKey projection.
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b || (a.is_nan() && b.is_nan()),
                _ => false,
            },
        }
    }

    /// SQL ordering (for ORDER BY and min/max); `None` when either side
    /// is NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Cell) -> Option<std::cmp::Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Cell::Text(a), Cell::Text(b)) => Some(a.cmp(b)),
            (Cell::Bool(a), Cell::Bool(b)) => Some(a.cmp(b)),
            _ => self.as_f64()?.partial_cmp(&other.as_f64()?),
        }
    }

    /// Total order for sorting: NULLS FIRST (matching the Q convention
    /// Hyper-Q expects from its generated ORDER BY).
    pub fn sort_cmp(&self, other: &Cell) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Render in the PG text wire format.
    pub fn to_wire_text(&self) -> Option<String> {
        let mut s = String::new();
        match self {
            Cell::Null => return None,
            Cell::Bool(b) => s.write_char(if *b { 't' } else { 'f' }),
            Cell::Int(v) => write!(s, "{v}"),
            Cell::Float(v) => wire_text::write_float(*v, &mut s),
            Cell::Text(t) => s.write_str(t),
            Cell::Date(d) => wire_text::write_date(*d, &mut s),
            Cell::Time(us) => wire_text::write_time(*us, &mut s),
            Cell::Timestamp(us) => wire_text::write_timestamp(*us, &mut s),
        }
        .expect("writing to a String cannot fail");
        Some(s)
    }

    /// Parse from the PG text wire format given the declared type.
    /// `None` when the text is not a value of that type — booleans are
    /// `t/true/1` or `f/false/0` (any case) and nothing else; floats
    /// accept PostgreSQL's `Infinity`/`-Infinity`/`NaN` spellings as
    /// well as Rust's.
    pub fn from_wire_text(text: &str, ty: PgType) -> Option<Cell> {
        Some(match ty {
            PgType::Bool => {
                if ["t", "true", "1"].iter().any(|s| text.eq_ignore_ascii_case(s)) {
                    Cell::Bool(true)
                } else if ["f", "false", "0"].iter().any(|s| text.eq_ignore_ascii_case(s)) {
                    Cell::Bool(false)
                } else {
                    return None;
                }
            }
            PgType::Int2 | PgType::Int4 | PgType::Int8 => Cell::Int(text.parse().ok()?),
            PgType::Float4 | PgType::Float8 => Cell::Float(text.parse().ok()?),
            PgType::Varchar | PgType::Text => Cell::Text(text.to_string()),
            PgType::Date => Cell::Date(parse_date(text)?),
            PgType::Time => Cell::Time(parse_time_us(text)?),
            PgType::Timestamp => {
                let (date_part, time_part) = text.split_once(' ')?;
                let days = parse_date(date_part)? as i64;
                Cell::Timestamp(days * 86_400_000_000 + parse_time_us(time_part)?)
            }
        })
    }

    /// The most natural declared type for this runtime value.
    pub fn natural_type(&self) -> PgType {
        match self {
            Cell::Null => PgType::Text,
            Cell::Bool(_) => PgType::Bool,
            Cell::Int(_) => PgType::Int8,
            Cell::Float(_) => PgType::Float8,
            Cell::Text(_) => PgType::Varchar,
            Cell::Date(_) => PgType::Date,
            Cell::Time(_) => PgType::Time,
            Cell::Timestamp(_) => PgType::Timestamp,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_wire_text() {
            Some(s) => f.write_str(&s),
            None => f.write_str("NULL"),
        }
    }
}

/// PG text-format renderers for the storage classes whose text is not
/// just `Display`: one definition shared by [`Cell::to_wire_text`] and
/// the columnar `DataRow` encoder (which writes into the connection's
/// output buffer without building a `String` per field).
pub mod wire_text {
    use super::days_to_ymd;
    use std::fmt::{self, Write};

    /// PostgreSQL's spellings for the non-finite values (Rust's `inf`
    /// is not PG text); finite values in the shortest form that parses
    /// back to the same `f64`.
    pub fn write_float(v: f64, out: &mut impl Write) -> fmt::Result {
        if v.is_nan() {
            out.write_str("NaN")
        } else if v.is_infinite() {
            out.write_str(if v > 0.0 { "Infinity" } else { "-Infinity" })
        } else {
            write!(out, "{v}")
        }
    }

    /// `YYYY-MM-DD` from days since 2000-01-01.
    pub fn write_date(days: i32, out: &mut impl Write) -> fmt::Result {
        let (y, m, d) = days_to_ymd(days);
        write!(out, "{y:04}-{m:02}-{d:02}")
    }

    /// `HH:MM:SS.ffffff` from microseconds since midnight.
    pub fn write_time(us: i64, out: &mut impl Write) -> fmt::Result {
        let total_secs = us.div_euclid(1_000_000);
        let frac = us.rem_euclid(1_000_000);
        write!(
            out,
            "{:02}:{:02}:{:02}.{:06}",
            total_secs / 3600,
            (total_secs / 60) % 60,
            total_secs % 60,
            frac
        )
    }

    /// `YYYY-MM-DD HH:MM:SS.ffffff` from microseconds since 2000-01-01.
    pub fn write_timestamp(us: i64, out: &mut impl Write) -> fmt::Result {
        write_date(us.div_euclid(86_400_000_000) as i32, out)?;
        out.write_char(' ')?;
        write_time(us.rem_euclid(86_400_000_000), out)
    }
}

fn parse_date(text: &str) -> Option<i32> {
    let mut it = text.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    ymd_to_days(y, m, d)
}

fn parse_time_us(text: &str) -> Option<i64> {
    let (hms, frac) = match text.split_once('.') {
        Some((a, b)) => (a, b),
        None => (text, ""),
    };
    let mut it = hms.split(':');
    let h: i64 = it.next()?.parse().ok()?;
    let m: i64 = it.next()?.parse().ok()?;
    let s: i64 = it.next().map(|p| p.parse().ok()).unwrap_or(Some(0))?;
    let micros: i64 = if frac.is_empty() {
        0
    } else {
        let f6: String = format!("{frac:0<6}").chars().take(6).collect();
        f6.parse().ok()?
    };
    Some(h * 3_600_000_000 + m * 60_000_000 + s * 1_000_000 + micros)
}

/// Days since 2000-01-01 → `(y, m, d)`.
pub fn days_to_ymd(mut days: i32) -> (i32, u32, u32) {
    fn leap(y: i32) -> bool {
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }
    fn dim(y: i32, m: u32) -> i32 {
        match m {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if leap(y) {
                    29
                } else {
                    28
                }
            }
            _ => unreachable!(),
        }
    }
    let mut year = 2000;
    loop {
        let len = if leap(year) { 366 } else { 365 };
        if days >= 0 && days < len {
            break;
        }
        if days < 0 {
            year -= 1;
            days += if leap(year) { 366 } else { 365 };
        } else {
            days -= len;
            year += 1;
        }
    }
    let mut month = 1u32;
    while days >= dim(year, month) {
        days -= dim(year, month);
        month += 1;
    }
    (year, month, days as u32 + 1)
}

/// `(y, m, d)` → days since 2000-01-01.
pub fn ymd_to_days(year: i32, month: u32, day: u32) -> Option<i32> {
    fn leap(y: i32) -> bool {
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }
    fn dim(y: i32, m: u32) -> i32 {
        match m {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if leap(y) {
                    29
                } else {
                    28
                }
            }
            _ => 0,
        }
    }
    if !(1..=12).contains(&month) || day < 1 || day as i32 > dim(year, month) {
        return None;
    }
    let mut days = 0i32;
    if year >= 2000 {
        for y in 2000..year {
            days += if leap(y) { 366 } else { 365 };
        }
    } else {
        for y in year..2000 {
            days -= if leap(y) { 366 } else { 365 };
        }
    }
    for m in 1..month {
        days += dim(year, m);
    }
    Some(days + day as i32 - 1)
}

/// A result/table column: name plus declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case preserved).
    pub name: String,
    /// Declared type.
    pub ty: PgType,
}

impl Column {
    /// Construct a column.
    pub fn new(name: impl Into<String>, ty: PgType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// A row set: schema plus row-major data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rows {
    /// Output schema.
    pub columns: Vec<Column>,
    /// Row data; every row has `columns.len()` cells.
    pub data: Vec<Vec<Cell>>,
}

impl Rows {
    /// Row count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_valued_equality() {
        assert_eq!(Cell::Int(1).sql_eq(&Cell::Int(1)), Some(true));
        assert_eq!(Cell::Int(1).sql_eq(&Cell::Int(2)), Some(false));
        assert_eq!(Cell::Null.sql_eq(&Cell::Int(1)), None, "NULL = x is unknown");
        assert_eq!(Cell::Null.sql_eq(&Cell::Null), None, "NULL = NULL is unknown in SQL");
    }

    #[test]
    fn is_not_distinct_from_is_two_valued() {
        assert!(Cell::Null.not_distinct(&Cell::Null));
        assert!(!Cell::Null.not_distinct(&Cell::Int(1)));
        assert!(Cell::Int(1).not_distinct(&Cell::Int(1)));
        assert!(Cell::Text("a".into()).not_distinct(&Cell::Text("a".into())));
    }

    #[test]
    fn nan_equals_nan_like_postgres() {
        assert_eq!(Cell::Float(f64::NAN).sql_eq(&Cell::Float(f64::NAN)), Some(true));
        assert!(Cell::Float(f64::NAN).not_distinct(&Cell::Float(f64::NAN)));
        assert_eq!(Cell::Float(f64::NAN).sql_eq(&Cell::Float(1.0)), Some(false));
        assert!(!Cell::Float(f64::NAN).not_distinct(&Cell::Null));
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Cell::Int(2).sql_cmp(&Cell::Float(2.5)), Some(std::cmp::Ordering::Less));
        assert_eq!(Cell::Int(3).sql_eq(&Cell::Float(3.0)), Some(true));
    }

    #[test]
    fn nulls_sort_first() {
        let mut v = [Cell::Int(2), Cell::Null, Cell::Int(1)];
        v.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(v[0], Cell::Null);
        assert_eq!(v[1], Cell::Int(1));
    }

    #[test]
    fn wire_text_round_trip() {
        let cases = [
            (Cell::Bool(true), PgType::Bool),
            (Cell::Int(42), PgType::Int8),
            (Cell::Float(1.5), PgType::Float8),
            (Cell::Text("GOOG".into()), PgType::Varchar),
            (Cell::Date(6021), PgType::Date),
            (Cell::Time(34_200_000_000), PgType::Time),
            (Cell::Timestamp(6021 * 86_400_000_000 + 34_200_000_000), PgType::Timestamp),
        ];
        for (cell, ty) in cases {
            let text = cell.to_wire_text().unwrap();
            let back = Cell::from_wire_text(&text, ty).unwrap();
            assert_eq!(back, cell, "{text}");
        }
    }

    #[test]
    fn date_wire_format_is_iso() {
        assert_eq!(Cell::Date(6021).to_wire_text().unwrap(), "2016-06-26");
        assert_eq!(Cell::Date(0).to_wire_text().unwrap(), "2000-01-01");
        assert_eq!(Cell::Date(-1).to_wire_text().unwrap(), "1999-12-31");
    }

    #[test]
    fn null_has_no_wire_text() {
        assert_eq!(Cell::Null.to_wire_text(), None);
    }

    #[test]
    fn nan_float_round_trips() {
        let t = Cell::Float(f64::NAN).to_wire_text().unwrap();
        assert_eq!(t, "NaN");
        match Cell::from_wire_text(&t, PgType::Float8).unwrap() {
            Cell::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_use_postgres_spellings_and_parse_both() {
        assert_eq!(Cell::Float(f64::INFINITY).to_wire_text().unwrap(), "Infinity");
        assert_eq!(Cell::Float(f64::NEG_INFINITY).to_wire_text().unwrap(), "-Infinity");
        for (text, want) in [
            ("Infinity", f64::INFINITY),
            ("-Infinity", f64::NEG_INFINITY),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
        ] {
            assert_eq!(Cell::from_wire_text(text, PgType::Float8), Some(Cell::Float(want)), "{text}");
        }
        assert!(matches!(
            Cell::from_wire_text("nan", PgType::Float8),
            Some(Cell::Float(f)) if f.is_nan()
        ));
    }

    #[test]
    fn boolean_text_is_strict() {
        for t in ["t", "true", "TRUE", "1"] {
            assert_eq!(Cell::from_wire_text(t, PgType::Bool), Some(Cell::Bool(true)), "{t}");
        }
        for f in ["f", "false", "FALSE", "0"] {
            assert_eq!(Cell::from_wire_text(f, PgType::Bool), Some(Cell::Bool(false)), "{f}");
        }
        // Unrecognized text used to read as `false`.
        for bad in ["", "yes", "2", "tr", "GOOG"] {
            assert_eq!(Cell::from_wire_text(bad, PgType::Bool), None, "{bad:?}");
        }
    }

    #[test]
    fn type_parsing() {
        assert_eq!(PgType::parse("BIGINT"), Some(PgType::Int8));
        assert_eq!(PgType::parse("double precision"), Some(PgType::Float8));
        assert_eq!(PgType::parse("varchar"), Some(PgType::Varchar));
        assert_eq!(PgType::parse("nope"), None);
    }

    #[test]
    fn rows_helpers() {
        let r = Rows {
            columns: vec![Column::new("a", PgType::Int8)],
            data: vec![vec![Cell::Int(1)]],
        };
        assert_eq!(r.len(), 1);
        assert_eq!(r.column_index("a"), Some(0));
        assert_eq!(r.column_index("b"), None);
    }
}
