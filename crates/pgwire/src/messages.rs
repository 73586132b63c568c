//! Typed PG v3 protocol messages.
//!
//! Start-up/auth, the simple-query sub-protocol and the slice of the
//! extended-query sub-protocol the Gateway needs to ask for binary
//! results (`Parse`/`Bind`/`Describe`/`Execute`/`Sync` on the unnamed
//! statement and portal) — the surface Hyper-Q exercises (paper §4.2:
//! start-up, query, function call, copy data and shutdown requests; we
//! implement the subset the Gateway uses).

/// PostgreSQL type OIDs for the types Hyper-Q emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeOid {
    /// `boolean` (16)
    Bool,
    /// `bytea` (17)
    Bytea,
    /// `int8` (20)
    Int8,
    /// `int2` (21)
    Int2,
    /// `int4` (23)
    Int4,
    /// `text` (25)
    Text,
    /// `float4` (700)
    Float4,
    /// `float8` (701)
    Float8,
    /// `varchar` (1043)
    Varchar,
    /// `date` (1082)
    Date,
    /// `time` (1083)
    Time,
    /// `timestamp` (1114)
    Timestamp,
}

impl TypeOid {
    /// Numeric OID as transmitted on the wire.
    pub fn as_u32(self) -> u32 {
        match self {
            TypeOid::Bool => 16,
            TypeOid::Bytea => 17,
            TypeOid::Int8 => 20,
            TypeOid::Int2 => 21,
            TypeOid::Int4 => 23,
            TypeOid::Text => 25,
            TypeOid::Float4 => 700,
            TypeOid::Float8 => 701,
            TypeOid::Varchar => 1043,
            TypeOid::Date => 1082,
            TypeOid::Time => 1083,
            TypeOid::Timestamp => 1114,
        }
    }

    /// Parse a wire OID.
    pub fn from_u32(v: u32) -> Option<TypeOid> {
        Some(match v {
            16 => TypeOid::Bool,
            17 => TypeOid::Bytea,
            20 => TypeOid::Int8,
            21 => TypeOid::Int2,
            23 => TypeOid::Int4,
            25 => TypeOid::Text,
            700 => TypeOid::Float4,
            701 => TypeOid::Float8,
            1043 => TypeOid::Varchar,
            1082 => TypeOid::Date,
            1083 => TypeOid::Time,
            1114 => TypeOid::Timestamp,
            _ => return None,
        })
    }
}

/// How a `DataRow` field's bytes are to be read. A per-column property
/// carried by `RowDescription`, never a connection setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// The type's text representation (format code 0).
    Text,
    /// The type's binary representation (format code 1): big-endian
    /// integers and IEEE floats at the declared width.
    Binary,
}

impl Format {
    /// Wire format code.
    pub fn code(self) -> i16 {
        match self {
            Format::Text => 0,
            Format::Binary => 1,
        }
    }

    /// Parse a wire format code.
    pub fn from_code(code: i16) -> Option<Format> {
        match code {
            0 => Some(Format::Text),
            1 => Some(Format::Binary),
            _ => None,
        }
    }
}

/// One column in a `RowDescription`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Column name.
    pub name: String,
    /// Type OID.
    pub type_oid: TypeOid,
    /// Format code exactly as it crossed the wire ([`Format::code`]);
    /// kept raw so the row decoder can name the column when a peer
    /// sends a code that is neither text nor binary.
    pub format: i16,
}

impl FieldDesc {
    /// A text-format field.
    pub fn text(name: impl Into<String>, type_oid: TypeOid) -> FieldDesc {
        FieldDesc { name: name.into(), type_oid, format: Format::Text.code() }
    }
}

/// Authentication request codes carried by the `R` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthRequest {
    /// Authentication successful.
    Ok,
    /// Server wants the password in clear text.
    CleartextPassword,
    /// Server wants an MD5-hashed password with this salt.
    Md5Password {
        /// Per-connection salt.
        salt: [u8; 4],
    },
}

/// Backend transaction status in `ReadyForQuery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransactionStatus {
    /// Idle (not in a transaction block).
    Idle,
    /// In a transaction block.
    InTransaction,
    /// In a failed transaction block.
    Failed,
}

impl TransactionStatus {
    /// Wire byte.
    pub fn as_byte(self) -> u8 {
        match self {
            TransactionStatus::Idle => b'I',
            TransactionStatus::InTransaction => b'T',
            TransactionStatus::Failed => b'E',
        }
    }
}

/// Messages sent by the client (Hyper-Q's Gateway acts as the client).
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendMessage {
    /// Untyped start-up packet: protocol version + parameters.
    Startup {
        /// `(name, value)` parameters (`user`, `database`, ...).
        params: Vec<(String, String)>,
    },
    /// `p` — password response (clear text or `md5...`).
    Password(String),
    /// `Q` — simple query.
    Query(String),
    /// `P` — parse `sql` into a prepared statement.
    Parse {
        /// Statement name (empty = the unnamed statement).
        statement: String,
        /// Statement text.
        sql: String,
        /// Pre-declared parameter type OIDs.
        param_types: Vec<u32>,
    },
    /// `B` — bind a prepared statement into a portal, choosing the
    /// result formats.
    Bind {
        /// Portal name (empty = the unnamed portal).
        portal: String,
        /// Statement name.
        statement: String,
        /// Parameter format codes (none, one for all, or one each).
        param_formats: Vec<i16>,
        /// Parameter values; `None` is NULL.
        params: Vec<Option<Vec<u8>>>,
        /// Result-column format codes (none = all text, one = applies
        /// to every column, else one per column).
        result_formats: Vec<i16>,
    },
    /// `D` — describe a statement (`S`) or portal (`P`).
    Describe {
        /// `b'S'` or `b'P'`.
        kind: u8,
        /// Statement or portal name.
        name: String,
    },
    /// `E` — execute a portal.
    Execute {
        /// Portal name.
        portal: String,
        /// Row limit (0 = no limit).
        max_rows: i32,
    },
    /// `S` — end of an extended-query batch.
    Sync,
    /// `X` — terminate.
    Terminate,
}

/// Messages sent by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendMessage {
    /// `R` — authentication request/outcome.
    Authentication(AuthRequest),
    /// `S` — run-time parameter report.
    ParameterStatus {
        /// Parameter name.
        name: String,
        /// Parameter value.
        value: String,
    },
    /// `K` — cancellation key data.
    BackendKeyData {
        /// Server process id.
        pid: i32,
        /// Cancellation secret.
        secret: i32,
    },
    /// `Z` — ready for a new query.
    ReadyForQuery(TransactionStatus),
    /// `T` — result-set schema.
    RowDescription(Vec<FieldDesc>),
    /// `D` — one row of text-format fields; `None` cells are NULL.
    /// (Rows with binary fields are read from the raw frame by
    /// [`crate::rows::BatchDecoder`], never through this variant.)
    DataRow(Vec<Option<String>>),
    /// `C` — statement finished, with its command tag.
    CommandComplete(String),
    /// `I` — empty query.
    EmptyQueryResponse,
    /// `1` — `Parse` succeeded.
    ParseComplete,
    /// `2` — `Bind` succeeded.
    BindComplete,
    /// `n` — the described portal returns no rows.
    NoData,
    /// `E` — error report.
    ErrorResponse {
        /// Severity (`ERROR`, `FATAL`).
        severity: String,
        /// SQLSTATE code.
        code: String,
        /// Human-readable message.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_round_trip() {
        for oid in [
            TypeOid::Bool,
            TypeOid::Int8,
            TypeOid::Int2,
            TypeOid::Int4,
            TypeOid::Text,
            TypeOid::Float4,
            TypeOid::Float8,
            TypeOid::Varchar,
            TypeOid::Date,
            TypeOid::Time,
            TypeOid::Timestamp,
        ] {
            assert_eq!(TypeOid::from_u32(oid.as_u32()), Some(oid));
        }
        assert_eq!(TypeOid::from_u32(9999), None);
    }

    #[test]
    fn format_codes_round_trip() {
        for f in [Format::Text, Format::Binary] {
            assert_eq!(Format::from_code(f.code()), Some(f));
        }
        assert_eq!(Format::from_code(2), None);
        assert_eq!(Format::from_code(-1), None);
    }

    #[test]
    fn transaction_status_bytes() {
        assert_eq!(TransactionStatus::Idle.as_byte(), b'I');
        assert_eq!(TransactionStatus::InTransaction.as_byte(), b'T');
        assert_eq!(TransactionStatus::Failed.as_byte(), b'E');
    }
}
