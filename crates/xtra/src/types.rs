//! SQL-side type system, column names and constant datums.
//!
//! These are the types of the *target* dialect (PostgreSQL-compatible).
//! The Algebrizer maps Q types onto them when binding literals and table
//! columns: Q symbols become `VARCHAR`, Q strings become `TEXT`, Q longs
//! become `BIGINT`, and Q temporal types map onto the PG temporal types
//! (with epoch conversion handled at the protocol boundary).

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A PostgreSQL-compatible column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// `BOOLEAN`
    Bool,
    /// `SMALLINT`
    Int2,
    /// `INTEGER`
    Int4,
    /// `BIGINT`
    Int8,
    /// `REAL`
    Float4,
    /// `DOUBLE PRECISION`
    Float8,
    /// `VARCHAR` — target type for Q symbols.
    Varchar,
    /// `TEXT` — target type for Q strings (char vectors).
    Text,
    /// `DATE`
    Date,
    /// `TIME`
    Time,
    /// `TIMESTAMP`
    Timestamp,
}

impl SqlType {
    /// The SQL spelling of this type, as used in casts and DDL.
    pub fn sql_name(&self) -> &'static str {
        match self {
            SqlType::Bool => "boolean",
            SqlType::Int2 => "smallint",
            SqlType::Int4 => "integer",
            SqlType::Int8 => "bigint",
            SqlType::Float4 => "real",
            SqlType::Float8 => "double precision",
            SqlType::Varchar => "varchar",
            SqlType::Text => "text",
            SqlType::Date => "date",
            SqlType::Time => "time",
            SqlType::Timestamp => "timestamp",
        }
    }

    /// Is this a numeric type (arithmetic applies)?
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            SqlType::Int2 | SqlType::Int4 | SqlType::Int8 | SqlType::Float4 | SqlType::Float8
        )
    }

    /// Is this a temporal type?
    pub fn is_temporal(&self) -> bool {
        matches!(self, SqlType::Date | SqlType::Time | SqlType::Timestamp)
    }

    /// Result type of arithmetic between two numeric/temporal types
    /// (wider type wins; float beats integer).
    pub fn promote(a: SqlType, b: SqlType) -> SqlType {
        use SqlType::*;
        if a == b {
            return a;
        }
        match (a, b) {
            (Float8, _) | (_, Float8) => Float8,
            (Float4, _) | (_, Float4) => Float8,
            (Int8, _) | (_, Int8) => Int8,
            (Int4, _) | (_, Int4) => Int4,
            (Int2, _) | (_, Int2) => Int2,
            _ => a,
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// An identifier in a plan: a column name or an item alias. Cloning is a
/// reference-count bump, so a wide table's names are allocated once, by
/// the metadata lookup, and shared by every scan, projection and schema
/// derived from it.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Arc<str>);

impl Name {
    /// The identifier's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `prefix` followed by `name`, in one allocation when it fits 64 bytes.
    pub fn prefixed(prefix: &str, name: &str) -> Name {
        let mut buf = [0u8; 64];
        let Some(joined) = buf.get_mut(..prefix.len() + name.len()) else {
            return Name::from([prefix, name].concat());
        };
        let (head, tail) = joined.split_at_mut(prefix.len());
        head.copy_from_slice(prefix.as_bytes());
        tail.copy_from_slice(name.as_bytes());
        Name::from(std::str::from_utf8(joined).expect("two strs join to a str"))
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(s.into())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(s.into())
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name(s.as_str().into())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A column definition: name, type, nullability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-sensitive; Hyper-Q quotes identifiers).
    pub name: Name,
    /// Column type.
    pub ty: SqlType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl ColumnDef {
    /// Construct a nullable column.
    pub fn new(name: impl Into<Name>, ty: SqlType) -> Self {
        ColumnDef { name: name.into(), ty, nullable: true }
    }

    /// Construct a NOT NULL column.
    pub fn not_null(name: impl Into<Name>, ty: SqlType) -> Self {
        ColumnDef { name: name.into(), ty, nullable: false }
    }
}

/// A set of column names, hashed with [`NameHasher`].
pub type NameSet<'a> = HashSet<&'a str, BuildHasherDefault<NameHasher>>;

/// The hasher of [`NameSet`]: FNV-1a, several times cheaper than the
/// default SipHash on short keys, and translation hashes every column of
/// every wide table it joins. It is not DoS-resistant: names crafted to
/// collide turn a set into the linear scan per lookup that the binder
/// did before it had sets, bounded by the widths of the tables one
/// statement reads.
#[derive(Debug, Clone, Copy)]
pub struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A constant value in an XTRA expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Typed NULL.
    Null(SqlType),
    /// Boolean.
    Bool(bool),
    /// 16-bit integer.
    I16(i16),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// String (varchar/text).
    Str(String),
    /// Days since 2000-01-01 (Q epoch; converted at the protocol boundary).
    Date(i32),
    /// Microseconds since midnight.
    Time(i64),
    /// Microseconds since 2000-01-01.
    Timestamp(i64),
}

impl Datum {
    /// The SQL type of this datum.
    pub fn sql_type(&self) -> SqlType {
        match self {
            Datum::Null(t) => *t,
            Datum::Bool(_) => SqlType::Bool,
            Datum::I16(_) => SqlType::Int2,
            Datum::I32(_) => SqlType::Int4,
            Datum::I64(_) => SqlType::Int8,
            Datum::F32(_) => SqlType::Float4,
            Datum::F64(_) => SqlType::Float8,
            Datum::Str(_) => SqlType::Varchar,
            Datum::Date(_) => SqlType::Date,
            Datum::Time(_) => SqlType::Time,
            Datum::Timestamp(_) => SqlType::Timestamp,
        }
    }

    /// Is this datum NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null(_))
    }

    /// Render as a SQL literal (with cast for unambiguous typing, the way
    /// Hyper-Q's generated SQL in the paper casts `` `GOOG``::varchar`).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Datum::Null(t) => format!("NULL::{}", t.sql_name()),
            Datum::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Datum::I16(v) => format!("{v}::smallint"),
            Datum::I32(v) => format!("{v}::integer"),
            Datum::I64(v) => format!("{v}"),
            Datum::F32(v) => format!("{v}::real"),
            Datum::F64(v) => {
                if v.is_nan() {
                    "'NaN'::double precision".to_string()
                } else if v.fract() == 0.0 && v.is_finite() {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Datum::Str(s) => format!("'{}'::varchar", s.replace('\'', "''")),
            Datum::Date(d) => {
                let (y, m, dd) = crate::types::days_to_ymd(*d);
                format!("DATE '{y:04}-{m:02}-{dd:02}'")
            }
            Datum::Time(us) => {
                let total_secs = us / 1_000_000;
                let frac = us % 1_000_000;
                format!(
                    "TIME '{:02}:{:02}:{:02}.{:06}'",
                    total_secs / 3600,
                    (total_secs / 60) % 60,
                    total_secs % 60,
                    frac
                )
            }
            Datum::Timestamp(us) => {
                let days = us.div_euclid(86_400_000_000);
                let intraday = us.rem_euclid(86_400_000_000);
                let (y, m, d) = days_to_ymd(days as i32);
                let total_secs = intraday / 1_000_000;
                let frac = intraday % 1_000_000;
                format!(
                    "TIMESTAMP '{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}.{:06}'",
                    total_secs / 3600,
                    (total_secs / 60) % 60,
                    total_secs % 60,
                    frac
                )
            }
        }
    }
}

/// Convert days-since-2000-01-01 to `(year, month, day)`.
///
/// Duplicated from `qlang::temporal` so that `xtra` stays independent of
/// the Q front end (the algebra is language-agnostic by design — the paper
/// envisions plugins for other source languages).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_prefers_floats_and_width() {
        assert_eq!(SqlType::promote(SqlType::Int4, SqlType::Int8), SqlType::Int8);
        assert_eq!(SqlType::promote(SqlType::Int8, SqlType::Float8), SqlType::Float8);
        assert_eq!(SqlType::promote(SqlType::Float4, SqlType::Int2), SqlType::Float8);
        assert_eq!(SqlType::promote(SqlType::Varchar, SqlType::Varchar), SqlType::Varchar);
    }

    #[test]
    fn datum_types() {
        assert_eq!(Datum::I64(1).sql_type(), SqlType::Int8);
        assert_eq!(Datum::Null(SqlType::Date).sql_type(), SqlType::Date);
        assert!(Datum::Null(SqlType::Bool).is_null());
        assert!(!Datum::Bool(false).is_null());
    }

    #[test]
    fn sql_literals() {
        assert_eq!(Datum::I64(42).to_sql_literal(), "42");
        assert_eq!(Datum::Str("GOOG".into()).to_sql_literal(), "'GOOG'::varchar");
        assert_eq!(Datum::Str("O'Neil".into()).to_sql_literal(), "'O''Neil'::varchar");
        assert_eq!(Datum::Bool(true).to_sql_literal(), "TRUE");
        assert_eq!(Datum::Null(SqlType::Int8).to_sql_literal(), "NULL::bigint");
    }

    #[test]
    fn temporal_literals() {
        // 2016-06-26 is 6021 days after 2000-01-01.
        assert_eq!(Datum::Date(6021).to_sql_literal(), "DATE '2016-06-26'");
        assert_eq!(
            Datum::Time(9 * 3_600_000_000 + 30 * 60_000_000).to_sql_literal(),
            "TIME '09:30:00.000000'"
        );
    }

    #[test]
    fn days_to_ymd_matches_qlang() {
        assert_eq!(days_to_ymd(0), (2000, 1, 1));
        assert_eq!(days_to_ymd(6021), (2016, 6, 26));
        assert_eq!(days_to_ymd(-1), (1999, 12, 31));
    }

    #[test]
    fn names_compare_as_text_and_share_it_when_cloned() {
        let n = Name::from("Price");
        assert_eq!(n, "Price");
        assert_eq!(n, "Price".to_string());
        assert_eq!(n, Name::from(String::from("Price")));
        assert_eq!(format!("{n} {n:?}"), r#"Price "Price""#);
        let copy = n.clone();
        assert!(std::ptr::eq(copy.as_str(), n.as_str()));
    }

    #[test]
    fn name_sets_find_names_by_text() {
        let cols = [ColumnDef::new("a", SqlType::Int8), ColumnDef::new("b", SqlType::Int8)];
        let set: NameSet = cols.iter().map(|c| c.name.as_str()).collect();
        assert!(set.contains("a") && set.contains("b") && !set.contains("c"));
    }

    #[test]
    fn type_names() {
        assert_eq!(SqlType::Int8.sql_name(), "bigint");
        assert_eq!(SqlType::Varchar.sql_name(), "varchar");
        assert!(SqlType::Float8.is_numeric());
        assert!(SqlType::Date.is_temporal());
        assert!(!SqlType::Text.is_numeric());
    }
}
