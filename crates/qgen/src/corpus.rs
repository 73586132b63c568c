//! Self-contained repro files (`tests/corpus/*.q`).
//!
//! A repro is a plain Q script: comment header lines (`/ ...`), table
//! definitions as Q table literals, a `/ ---` separator, then the
//! statements that diverge. The file needs nothing but itself — data is
//! inlined, so a repro pinned years later still replays bit-identically.
//!
//! ```text
//! / qgen shrunk repro
//! / divergence: qengine vs cold session
//! trades: ([] Sym: `A`B; Price: 1.5 0n)
//! / ---
//! select c: count Price from trades
//! ```
//!
//! [`replay`] evaluates the setup in a scratch reference interpreter,
//! extracts the defined tables, and re-runs the statements on the fuzz
//! row's arms ([`crate::fuzz::check`]) — the same row the fuzzer ran
//! when it found the bug.

use hyperq::side_by_side::Report;
use qengine::Interp;
use qlang::value::{Table, Value};
use qlang::{QError, QResult};
use std::path::Path;

/// Render a Q date literal (`2016.06.26`, null → `0Nd`) from days since
/// 2000.01.01.
pub fn date_literal(days: i32) -> String {
    if days == i32::MIN {
        return "0Nd".to_string();
    }
    let (y, m, d) = xtra::types::days_to_ymd(days);
    format!("{y:04}.{m:02}.{d:02}")
}

/// Render a Q time literal (`09:30:00.000`, null → `0Nt`) from
/// milliseconds since midnight.
pub fn time_literal(ms: i32) -> String {
    if ms == i32::MIN {
        return "0Nt".to_string();
    }
    let (h, rem) = (ms / 3_600_000, ms % 3_600_000);
    let (mi, rem) = (rem / 60_000, rem % 60_000);
    let (s, milli) = (rem / 1000, rem % 1000);
    format!("{h:02}:{mi:02}:{s:02}.{milli:03}")
}

fn float_literal(v: f64) -> String {
    if v.is_nan() {
        return "0n".to_string();
    }
    let s = format!("{v}");
    // Bare integers would parse as longs; force the float domain.
    if s.contains('.') || s.contains('e') || s.contains("inf") {
        s
    } else {
        format!("{s}.0")
    }
}

fn long_literal(v: i64) -> String {
    if v == i64::MIN {
        "0N".to_string()
    } else {
        v.to_string()
    }
}

/// Render one column vector as a Q literal expression. Single-element
/// vectors are wrapped in `enlist` so they stay lists, not atoms.
pub fn column_literal(col: &Value) -> QResult<String> {
    let (body, n) = match col {
        Value::Symbols(xs) => {
            (xs.iter().map(|s| format!("`{s}")).collect::<String>(), xs.len())
        }
        Value::Longs(xs) => (
            xs.iter().map(|v| long_literal(*v)).collect::<Vec<_>>().join(" "),
            xs.len(),
        ),
        Value::Floats(xs) => (
            xs.iter().map(|v| float_literal(*v)).collect::<Vec<_>>().join(" "),
            xs.len(),
        ),
        Value::Dates(xs) => (
            xs.iter().map(|v| date_literal(*v)).collect::<Vec<_>>().join(" "),
            xs.len(),
        ),
        Value::Times(xs) => (
            xs.iter().map(|v| time_literal(*v)).collect::<Vec<_>>().join(" "),
            xs.len(),
        ),
        other => {
            return Err(QError::type_err(format!(
                "corpus renderer does not support {} columns",
                other.type_name()
            )))
        }
    };
    Ok(if n == 1 { format!("enlist {body}") } else { body })
}

/// Render `name: ([] c1: ...; c2: ...)` for a table.
pub fn table_literal(name: &str, table: &Table) -> QResult<String> {
    let mut cols = Vec::with_capacity(table.width());
    for (n, c) in table.names.iter().zip(&table.columns) {
        cols.push(format!("{n}: {}", column_literal(c)?));
    }
    Ok(format!("{name}: ([] {})", cols.join("; ")))
}

/// A parsed repro file.
#[derive(Debug, Clone, Default)]
pub struct Repro {
    /// Header comment lines (without the leading `/ `).
    pub header: Vec<String>,
    /// Table-definition statements (before the `/ ---` separator).
    pub setup: Vec<String>,
    /// The diverging statements (after the separator).
    pub statements: Vec<String>,
}

impl Repro {
    /// Build a repro from tables and statements.
    pub fn new(
        header: Vec<String>,
        tables: &[(String, Table)],
        statements: Vec<String>,
    ) -> QResult<Self> {
        let mut setup = Vec::with_capacity(tables.len());
        for (name, t) in tables {
            setup.push(table_literal(name, t)?);
        }
        Ok(Repro { header, setup, statements })
    }

    /// Serialize to the `.q` file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for h in &self.header {
            out.push_str("/ ");
            out.push_str(h);
            out.push('\n');
        }
        for s in &self.setup {
            out.push_str(s);
            out.push('\n');
        }
        out.push_str("/ ---\n");
        for s in &self.statements {
            out.push_str(s);
            out.push('\n');
        }
        out
    }

    /// Parse the `.q` file format.
    pub fn parse(text: &str) -> Repro {
        let mut repro = Repro::default();
        let mut after_sep = false;
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if line.trim() == "/ ---" {
                after_sep = true;
            } else if let Some(rest) = line.strip_prefix("/ ") {
                if !after_sep {
                    repro.header.push(rest.to_string());
                }
            } else if line == "/" {
                // blank comment
            } else if after_sep {
                repro.statements.push(line.to_string());
            } else {
                repro.setup.push(line.to_string());
            }
        }
        repro
    }

    /// The tables this repro defines, materialized by evaluating the
    /// setup statements in a scratch reference interpreter.
    pub fn tables(&self) -> QResult<Vec<(String, Table)>> {
        let mut scratch = Interp::new();
        let mut out = Vec::with_capacity(self.setup.len());
        for stmt in &self.setup {
            scratch.run(stmt)?;
            let name = stmt
                .split(':')
                .next()
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .ok_or_else(|| {
                    QError::parse(format!("corpus setup line has no name: {stmt}"))
                })?;
            match scratch.env.lookup(name) {
                Some(Value::Table(t)) => out.push((name.to_string(), (**t).clone())),
                Some(other) => {
                    return Err(QError::type_err(format!(
                        "corpus setup {name} is {}, expected a table",
                        other.type_name()
                    )))
                }
                None => {
                    return Err(QError::parse(format!(
                        "corpus setup did not define {name}"
                    )))
                }
            }
        }
        Ok(out)
    }
}

/// Load a repro file.
pub fn load_repro(path: &Path) -> std::io::Result<Repro> {
    Ok(Repro::parse(&std::fs::read_to_string(path)?))
}

/// Write a repro file.
pub fn write_repro(path: &Path, repro: &Repro) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, repro.render())
}

/// Replay a repro on the fuzz row's arms and return the row's report.
pub fn replay(repro: &Repro) -> QResult<Report> {
    Ok(crate::fuzz::check(repro.tables()?, vec![repro.statements.clone()]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        Table::new(
            vec!["Sym".into(), "D".into(), "T".into(), "P".into(), "L".into()],
            vec![
                Value::Symbols(vec!["A".into(), "B".into(), "".into()]),
                Value::Dates(vec![6021, 6022, i32::MIN]),
                Value::Times(vec![34_200_000, 35_000_500, i32::MIN]),
                Value::Floats(vec![1.5, f64::NAN, 250.0]),
                Value::Longs(vec![0, i64::MIN, 999]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn literals_round_trip_through_the_reference_parser() {
        let t = sample_table();
        let lit = table_literal("t", &t).unwrap();
        let mut interp = Interp::new();
        interp.run(&lit).unwrap();
        match interp.env.lookup("t") {
            Some(Value::Table(parsed)) => {
                assert!(
                    Value::Table(parsed.clone()).q_eq(&Value::Table(Box::new(t))),
                    "round-trip mismatch:\n{lit}\n{parsed:?}"
                );
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn single_row_tables_use_enlist() {
        let t = Table::new(
            vec!["S".into(), "V".into()],
            vec![Value::Symbols(vec!["A".into()]), Value::Longs(vec![7])],
        )
        .unwrap();
        let lit = table_literal("one", &t).unwrap();
        assert!(lit.contains("enlist"), "{lit}");
        let mut interp = Interp::new();
        interp.run(&lit).unwrap();
        match interp.env.lookup("one") {
            Some(Value::Table(parsed)) => assert_eq!(parsed.rows(), 1),
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn repro_format_round_trips() {
        let t = sample_table();
        let repro = Repro::new(
            vec!["qgen shrunk repro".into(), "divergence: qengine vs cold session".into()],
            &[("t".to_string(), t)],
            vec!["select from t".into()],
        )
        .unwrap();
        let parsed = Repro::parse(&repro.render());
        assert_eq!(parsed.header, repro.header);
        assert_eq!(parsed.setup, repro.setup);
        assert_eq!(parsed.statements, repro.statements);
        let tables = parsed.tables().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].1.rows(), 3);
    }

    #[test]
    fn replay_runs_the_tri_executor_harness() {
        let repro = Repro::parse(
            "/ header\nt: ([] S: `a`b; V: 1 2)\n/ ---\nselect s: sum V by S from t\n",
        );
        let report = replay(&repro).unwrap();
        report.assert_clean(3);
        assert_eq!(report.outcomes.len(), 1);
    }
}
