//! Vector primitives: dyadic and monadic operators with Q semantics.
//!
//! The rules implemented here are the ones the paper calls out as
//! translation hazards (§2.2):
//!
//! * **pairwise broadcasting** — `x+y` is scalar addition, list+scalar
//!   broadcast, or pairwise list addition depending on runtime types, with
//!   a `'length` error for mismatched list lengths;
//! * **two-valued logic** — `=` on two nulls yields `1b`;
//! * **null propagation** — arithmetic over a typed null yields null;
//! * **temporal arithmetic** — date ± int stays a date, date − date is a
//!   day count, and so on.

use qlang::value::{Atom, Dict, Table, Value};
use qlang::{QError, QResult};

/// Apply a dyadic operator with broadcasting.
pub fn dyad(op: &str, a: &Value, b: &Value) -> QResult<Value> {
    match op {
        "+" | "-" | "*" | "%" | "&" | "|" | "mod" | "div" | "and" | "or" => arith(op, a, b),
        "=" | "<" | ">" | "<=" | ">=" | "<>" => compare(op, a, b),
        "~" => Ok(Value::bool(a.q_eq(b))),
        "," => concat(a, b),
        "^" => fill(a, b),
        "in" => in_op(a, b),
        "within" => within_op(a, b),
        "like" => like_op(a, b),
        "#" => take(a, b),
        "_" => drop_op(a, b),
        "?" => find_or_rand(a, b),
        "!" => bang(a, b),
        "@" => index_apply(a, b),
        other => Err(QError::type_err(format!("unknown dyadic operator {other}"))),
    }
}

/// Broadcast a dyadic atom operation over two values.
fn broadcast(a: &Value, b: &Value, f: &mut impl FnMut(&Atom, &Atom) -> QResult<Atom>) -> QResult<Value> {
    match (a, b) {
        (Value::Atom(x), Value::Atom(y)) => Ok(Value::Atom(f(x, y)?)),
        (Value::Atom(_), _) if b.len().is_some() => {
            let n = b.len().unwrap();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let bi = b.index(i).unwrap();
                out.push(apply_atom(a, &bi, f)?);
            }
            Ok(Value::from_elements(out))
        }
        (_, Value::Atom(_)) if a.len().is_some() => {
            let n = a.len().unwrap();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let ai = a.index(i).unwrap();
                out.push(apply_atom(&ai, b, f)?);
            }
            Ok(Value::from_elements(out))
        }
        _ => {
            let (la, lb) = (a.len(), b.len());
            match (la, lb) {
                (Some(la), Some(lb)) if la == lb => {
                    let mut out = Vec::with_capacity(la);
                    for i in 0..la {
                        let ai = a.index(i).unwrap();
                        let bi = b.index(i).unwrap();
                        out.push(apply_atom(&ai, &bi, f)?);
                    }
                    Ok(Value::from_elements(out))
                }
                (Some(la), Some(lb)) => Err(QError::length(format!(
                    "length mismatch: {la} vs {lb}"
                ))),
                _ => Err(QError::type_err(format!(
                    "cannot apply operator to {} and {}",
                    a.type_name(),
                    b.type_name()
                ))),
            }
        }
    }
}

fn apply_atom(
    a: &Value,
    b: &Value,
    f: &mut impl FnMut(&Atom, &Atom) -> QResult<Atom>,
) -> QResult<Value> {
    match (a, b) {
        (Value::Atom(x), Value::Atom(y)) => Ok(Value::Atom(f(x, y)?)),
        // Nested lists recurse.
        _ => broadcast(a, b, f),
    }
}

/// Arithmetic and min/max with type promotion, null propagation and
/// temporal rules.
fn arith(op: &str, a: &Value, b: &Value) -> QResult<Value> {
    broadcast(a, b, &mut |x, y| atom_arith(op, x, y))
}

fn atom_arith(op: &str, x: &Atom, y: &Atom) -> QResult<Atom> {
    use Atom::*;
    // Boolean logic via and/or/&/| on bools.
    if let (Bool(p), Bool(q)) = (x, y) {
        match op {
            "&" | "and" => return Ok(Bool(*p && *q)),
            "|" | "or" => return Ok(Bool(*p || *q)),
            _ => {}
        }
    }
    // Null propagation.
    let result_null = |x: &Atom, y: &Atom| -> Atom {
        // Null of the promoted type.
        match (x, y) {
            (Float(_), _) | (_, Float(_)) | (Real(_), _) | (_, Real(_)) => Float(f64::NAN),
            (Timestamp(_), _) | (_, Timestamp(_)) => Timestamp(i64::MIN),
            (Date(_), _) | (_, Date(_)) => Date(i32::MIN),
            (Time(_), _) | (_, Time(_)) => Time(i32::MIN),
            _ => Long(i64::MIN),
        }
    };
    if x.is_null() || y.is_null() {
        if op == "%" {
            return Ok(Float(f64::NAN));
        }
        return Ok(result_null(x, y));
    }

    // Temporal arithmetic.
    match (x, y, op) {
        (Date(d), _, "+") if y.as_i64().is_some() && !matches!(y, Date(_)) => {
            return Ok(Date(d + y.as_i64().unwrap() as i32))
        }
        (_, Date(d), "+") if x.as_i64().is_some() && !matches!(x, Date(_)) => {
            return Ok(Date(d + x.as_i64().unwrap() as i32))
        }
        (Date(d), Date(e), "-") => return Ok(Long((d - e) as i64)),
        (Date(d), _, "-") if y.as_i64().is_some() && !matches!(y, Date(_)) => {
            return Ok(Date(d - y.as_i64().unwrap() as i32))
        }
        (Timestamp(t), Timestamp(u), "-") => return Ok(Long(t - u)),
        (Timestamp(t), _, "+") if y.as_i64().is_some() && !matches!(y, Timestamp(_)) => {
            return Ok(Timestamp(t + y.as_i64().unwrap()))
        }
        (Timestamp(t), _, "-") if y.as_i64().is_some() && !matches!(y, Timestamp(_)) => {
            return Ok(Timestamp(t - y.as_i64().unwrap()))
        }
        (Time(t), Time(u), "-") => return Ok(Long((t - u) as i64)),
        (Time(t), _, "+") if y.as_i64().is_some() && !matches!(y, Time(_)) => {
            return Ok(Time(t + y.as_i64().unwrap() as i32))
        }
        (Time(t), _, "-") if y.as_i64().is_some() && !matches!(y, Time(_)) => {
            return Ok(Time(t - y.as_i64().unwrap() as i32))
        }
        _ => {}
    }

    let float_mode = matches!(x, Float(_) | Real(_)) || matches!(y, Float(_) | Real(_)) || op == "%";
    if float_mode {
        let (fx, fy) = match (x.as_f64(), y.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(QError::type_err(format!(
                    "cannot apply {op} to {x:?} and {y:?}"
                )))
            }
        };
        let r = match op {
            "+" => fx + fy,
            "-" => fx - fy,
            "*" => fx * fy,
            "%" => fx / fy,
            "&" | "and" => fx.min(fy),
            "|" | "or" => fx.max(fy),
            "mod" => fx.rem_euclid(fy),
            "div" => (fx / fy).floor(),
            _ => return Err(QError::type_err(format!("bad arithmetic op {op}"))),
        };
        Ok(Float(r))
    } else {
        let (ix, iy) = match (x.as_i64(), y.as_i64()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(QError::type_err(format!(
                    "cannot apply {op} to {x:?} and {y:?}"
                )))
            }
        };
        let r = match op {
            "+" => ix.wrapping_add(iy),
            "-" => ix.wrapping_sub(iy),
            "*" => ix.wrapping_mul(iy),
            "&" | "and" => ix.min(iy),
            "|" | "or" => ix.max(iy),
            "mod" => {
                if iy == 0 {
                    return Ok(Long(i64::MIN));
                }
                ix.rem_euclid(iy)
            }
            "div" => {
                if iy == 0 {
                    return Ok(Long(i64::MIN));
                }
                ix.div_euclid(iy)
            }
            _ => return Err(QError::type_err(format!("bad arithmetic op {op}"))),
        };
        Ok(Long(r))
    }
}

/// Comparisons (`=`, `<>`, `<`, `<=`, `>`, `>=`). Q equality is
/// two-valued: nulls compare equal.
fn compare(op: &str, a: &Value, b: &Value) -> QResult<Value> {
    broadcast(a, b, &mut |x, y| {
        let r = match op {
            "=" => x.q_eq(y),
            "<>" => !x.q_eq(y),
            "<" => x.q_cmp(y) == std::cmp::Ordering::Less,
            ">" => x.q_cmp(y) == std::cmp::Ordering::Greater,
            "<=" => x.q_cmp(y) != std::cmp::Ordering::Greater,
            ">=" => x.q_cmp(y) != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        Ok(Atom::Bool(r))
    })
}

/// `,` — join (concatenation). Atoms are enlisted first; tables union.
pub fn concat(a: &Value, b: &Value) -> QResult<Value> {
    if let (Value::Table(t1), Value::Table(t2)) = (a, b) {
        return crate::joins::union_tables(t1, t2);
    }
    let la = a.clone();
    let lb = b.clone();
    let la = if la.is_atom() { la.enlist() } else { la };
    let lb = if lb.is_atom() { lb.enlist() } else { lb };
    let na = la.len().unwrap_or(0);
    let nb = lb.len().unwrap_or(0);
    let mut out = Vec::with_capacity(na + nb);
    for i in 0..na {
        out.push(la.index(i).unwrap());
    }
    for i in 0..nb {
        out.push(lb.index(i).unwrap());
    }
    Ok(Value::from_elements(out))
}

/// `^` — fill: replace nulls in `b` with `a`.
fn fill(a: &Value, b: &Value) -> QResult<Value> {
    broadcast(a, b, &mut |filler, x| {
        Ok(if x.is_null() { filler.clone() } else { x.clone() })
    })
}

/// `in` — membership of left elements in the right list.
fn in_op(a: &Value, b: &Value) -> QResult<Value> {
    let contains = |needle: &Value| -> bool {
        match b.len() {
            Some(n) => (0..n).any(|i| b.index(i).map(|x| x.q_eq(needle)).unwrap_or(false)),
            None => b.q_eq(needle),
        }
    };
    match a {
        Value::Atom(_) => Ok(Value::bool(contains(a))),
        _ => {
            let n = a.len().ok_or_else(|| QError::type_err("in: bad left operand"))?;
            Ok(Value::Bools((0..n).map(|i| contains(&a.index(i).unwrap())).collect()))
        }
    }
}

/// `within` — range containment: `x within (lo;hi)` is `lo<=x and x<=hi`.
fn within_op(a: &Value, b: &Value) -> QResult<Value> {
    let lo = b.index(0).ok_or_else(|| QError::length("within: need (lo;hi)"))?;
    let hi = b.index(1).ok_or_else(|| QError::length("within: need (lo;hi)"))?;
    let ge = compare(">=", a, &lo)?;
    let le = compare("<=", a, &hi)?;
    arith("&", &ge, &le)
}

/// `like` — glob match with `*` and `?` wildcards.
fn like_op(a: &Value, b: &Value) -> QResult<Value> {
    let pattern = match b {
        Value::Chars(s) => s.clone(),
        Value::Atom(Atom::Symbol(s)) => s.clone(),
        _ => return Err(QError::type_err("like: pattern must be a string")),
    };
    let matches = |text: &str| glob_match(&pattern, text);
    let as_text = |v: &Value| -> Option<String> {
        match v {
            Value::Chars(s) => Some(s.clone()),
            Value::Atom(Atom::Symbol(s)) => Some(s.clone()),
            Value::Atom(Atom::Char(c)) => Some(c.to_string()),
            _ => None,
        }
    };
    match a {
        Value::Symbols(v) => Ok(Value::Bools(v.iter().map(|s| matches(s)).collect())),
        Value::Mixed(items) => Ok(Value::Bools(
            items
                .iter()
                .map(|i| as_text(i).map(|t| matches(&t)).unwrap_or(false))
                .collect(),
        )),
        other => match as_text(other) {
            Some(t) => Ok(Value::bool(matches(&t))),
            None => Err(QError::type_err("like: left operand must be textual")),
        },
    }
}

/// Glob matching with `*` (any run) and `?` (any single char).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    fn go(p: &[char], t: &[char]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some('*'), _) => go(&p[1..], t) || (!t.is_empty() && go(p, &t[1..])),
            (Some('?'), Some(_)) => go(&p[1..], &t[1..]),
            (Some(c), Some(d)) if c == d => go(&p[1..], &t[1..]),
            _ => false,
        }
    }
    go(&p, &t)
}

/// `#` — take: `n#list` (cyclic), `-n#list` (from the end), `syms#table`
/// (column subset), `n#atom` (replicate).
fn take(a: &Value, b: &Value) -> QResult<Value> {
    // Column subset of a table.
    if let (Value::Symbols(cols), Value::Table(t)) = (a, b) {
        let mut names = Vec::new();
        let mut columns = Vec::new();
        for c in cols {
            let idx = t
                .column_index(c)
                .ok_or_else(|| QError::type_err(format!("take: no column {c}")))?;
            names.push(c.clone());
            columns.push(t.columns[idx].clone());
        }
        return Ok(Value::Table(Box::new(Table { names, columns })));
    }
    let n = match a {
        Value::Atom(at) => at
            .as_i64()
            .ok_or_else(|| QError::type_err("take: count must be integral"))?,
        _ => return Err(QError::type_err("take: left operand must be an integer")),
    };
    let src = if b.is_atom() { b.clone().enlist() } else { b.clone() };
    if let Value::Table(t) = &src {
        let rows = t.rows();
        let indices = take_indices(n, rows);
        return Ok(Value::Table(Box::new(t.take_rows(&indices))));
    }
    let len = src.len().unwrap_or(0);
    let indices = take_indices(n, len);
    Ok(src.take_indices(&indices))
}

fn take_indices(n: i64, len: usize) -> Vec<usize> {
    if len == 0 {
        return vec![];
    }
    if n >= 0 {
        (0..n as usize).map(|i| i % len).collect()
    } else {
        let k = (-n) as usize;
        if k >= len {
            // Cyclic from the end.
            (0..k).map(|i| (len - (k % len) + i) % len).collect()
        } else {
            (len - k..len).collect()
        }
    }
}

/// `_` — drop: `n_list` drops the first n, `-n_list` the last n;
/// `syms _ table` drops columns.
fn drop_op(a: &Value, b: &Value) -> QResult<Value> {
    if let (Value::Symbols(cols), Value::Table(t)) = (a, b) {
        let mut names = Vec::new();
        let mut columns = Vec::new();
        for (n, c) in t.names.iter().zip(&t.columns) {
            if !cols.contains(n) {
                names.push(n.clone());
                columns.push(c.clone());
            }
        }
        return Ok(Value::Table(Box::new(Table { names, columns })));
    }
    if let (Value::Atom(Atom::Symbol(col)), Value::Table(_)) = (a, b) {
        return drop_op(&Value::Symbols(vec![col.clone()]), b);
    }
    let n = match a {
        Value::Atom(at) => at
            .as_i64()
            .ok_or_else(|| QError::type_err("drop: count must be integral"))?,
        _ => return Err(QError::type_err("drop: left operand must be an integer")),
    };
    if let Value::Table(t) = b {
        let rows = t.rows();
        let indices = drop_indices(n, rows);
        return Ok(Value::Table(Box::new(t.take_rows(&indices))));
    }
    let len = b.len().ok_or_else(|| QError::type_err("drop: right operand must be a list"))?;
    Ok(b.take_indices(&drop_indices(n, len)))
}

fn drop_indices(n: i64, len: usize) -> Vec<usize> {
    if n >= 0 {
        let k = (n as usize).min(len);
        (k..len).collect()
    } else {
        let k = ((-n) as usize).min(len);
        (0..len - k).collect()
    }
}

/// `?` — find (`list?x` → first index of x, or count if absent) or
/// deterministic "roll" (`n?m` → n pseudo-random longs below m).
fn find_or_rand(a: &Value, b: &Value) -> QResult<Value> {
    match a {
        Value::Atom(at) => {
            let n = at.as_i64().ok_or_else(|| QError::type_err("?: bad left operand"))?;
            roll(n, b)
        }
        _ => {
            let la = a.len().unwrap_or(0);
            let find_one = |needle: &Value| -> i64 {
                for i in 0..la {
                    if a.index(i).map(|x| x.q_eq(needle)).unwrap_or(false) {
                        return i as i64;
                    }
                }
                la as i64
            };
            match b {
                Value::Atom(_) => Ok(Value::long(find_one(b))),
                _ => {
                    let lb = b.len().unwrap_or(0);
                    Ok(Value::Longs((0..lb).map(|i| find_one(&b.index(i).unwrap())).collect()))
                }
            }
        }
    }
}

/// Deterministic xorshift-based roll: `n?m`. Uses a fixed seed so the
/// reference engine is reproducible (the real kdb+ seeds from `\S`).
fn roll(n: i64, b: &Value) -> QResult<Value> {
    if n < 0 {
        return Err(QError::domain("?: negative roll count"));
    }
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    match b {
        Value::Atom(Atom::Long(m)) if *m > 0 => {
            Ok(Value::Longs((0..n).map(|_| (next() % (*m as u64)) as i64).collect()))
        }
        Value::Atom(Atom::Float(m)) if *m > 0.0 => Ok(Value::Floats(
            (0..n).map(|_| (next() as f64 / u64::MAX as f64) * m).collect(),
        )),
        // n?list — sample with replacement.
        _ if b.len().is_some() => {
            let len = b.len().unwrap();
            if len == 0 {
                return Err(QError::domain("?: empty list"));
            }
            let idx: Vec<usize> = (0..n).map(|_| (next() % len as u64) as usize).collect();
            Ok(b.take_indices(&idx))
        }
        _ => Err(QError::type_err("?: bad right operand")),
    }
}

/// `!` — dictionary construction (`keys!values`) or table keying
/// (`n!table`).
fn bang(a: &Value, b: &Value) -> QResult<Value> {
    match (a, b) {
        (Value::Atom(Atom::Long(n)), Value::Table(t)) => {
            let n = *n as usize;
            if n > t.width() {
                return Err(QError::length("!: key count exceeds column count"));
            }
            let key = Table {
                names: t.names[..n].to_vec(),
                columns: t.columns[..n].to_vec(),
            };
            let value = Table {
                names: t.names[n..].to_vec(),
                columns: t.columns[n..].to_vec(),
            };
            Ok(Value::KeyedTable(Box::new(qlang::KeyedTable { key, value })))
        }
        (Value::Symbols(keys), Value::Table(t)) => {
            // `cols xkey t` equivalent.
            crate::joins::xkey(keys, t)
        }
        _ => {
            let d = Dict::new(a.clone(), b.clone())?;
            Ok(Value::Dict(Box::new(d)))
        }
    }
}

/// `@` — indexing (list@indices) / dict lookup.
fn index_apply(a: &Value, b: &Value) -> QResult<Value> {
    match a {
        Value::Dict(d) => match b {
            Value::Atom(_) => Ok(d.get(b)),
            _ => {
                let n = b.len().unwrap_or(0);
                let items: Vec<Value> = (0..n).map(|i| d.get(&b.index(i).unwrap())).collect();
                Ok(Value::from_elements(items))
            }
        },
        _ if a.len().is_some() => match b {
            Value::Atom(at) => {
                let i = at.as_i64().ok_or_else(|| QError::type_err("@: bad index"))?;
                if i < 0 {
                    return Ok(a.null_element());
                }
                Ok(a.index(i as usize).unwrap_or_else(|| a.null_element()))
            }
            _ => {
                let n = b.len().unwrap_or(0);
                let mut idx = Vec::with_capacity(n);
                for i in 0..n {
                    match b.index(i).and_then(|v| match v {
                        Value::Atom(at) => at.as_i64(),
                        _ => None,
                    }) {
                        Some(j) if j >= 0 => idx.push(j as usize),
                        _ => idx.push(usize::MAX),
                    }
                }
                Ok(a.take_indices(&idx))
            }
        },
        _ => Err(QError::type_err(format!("@: cannot index {}", a.type_name()))),
    }
}

/// Apply a monadic operator.
pub fn monad(op: &str, a: &Value) -> QResult<Value> {
    match op {
        "-" => dyad("-", &Value::long(0), a),
        "+" => match a {
            // Monadic `+` is flip (transpose) on tables/dicts.
            Value::Dict(d) => crate::builtins::flip_dict(d),
            other => Ok(other.clone()),
        },
        "#" => Ok(Value::long(a.count() as i64)),
        "?" => crate::builtins::distinct(a),
        "_" => Ok(match a {
            Value::Atom(Atom::Float(f)) => Value::long(f.floor() as i64),
            other => other.clone(),
        }),
        "~" => Ok(Value::bool(false)),
        "," => Ok(a.clone().enlist()),
        "!" => match a {
            Value::Dict(d) => Ok(d.keys.clone()),
            Value::KeyedTable(k) => Ok(Value::Table(Box::new(k.key.clone()))),
            _ => Err(QError::type_err("!: monadic key needs dict")),
        },
        "=" => crate::builtins::group(a),
        "|" => crate::builtins::reverse(a),
        "&" => crate::builtins::where_op(a),
        "*" => Ok(a.index(0).unwrap_or_else(|| a.clone())),
        other => Err(QError::type_err(format!("unknown monadic operator {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_addition() {
        assert!(dyad("+", &Value::long(1), &Value::long(2)).unwrap().q_eq(&Value::long(3)));
    }

    #[test]
    fn broadcast_atom_list() {
        let r = dyad("+", &Value::long(10), &Value::Longs(vec![1, 2, 3])).unwrap();
        assert!(r.q_eq(&Value::Longs(vec![11, 12, 13])));
        let r = dyad("*", &Value::Longs(vec![1, 2, 3]), &Value::long(2)).unwrap();
        assert!(r.q_eq(&Value::Longs(vec![2, 4, 6])));
    }

    #[test]
    fn pairwise_list_addition() {
        let r = dyad("+", &Value::Longs(vec![1, 2]), &Value::Longs(vec![10, 20])).unwrap();
        assert!(r.q_eq(&Value::Longs(vec![11, 22])));
    }

    #[test]
    fn length_mismatch_errors() {
        let e = dyad("+", &Value::Longs(vec![1, 2]), &Value::Longs(vec![1, 2, 3]));
        assert!(e.is_err());
        assert_eq!(e.unwrap_err().kind, qlang::error::QErrorKind::Length);
    }

    #[test]
    fn division_is_float() {
        let r = dyad("%", &Value::long(1), &Value::long(2)).unwrap();
        assert!(r.q_eq(&Value::float(0.5)));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let null = Value::Atom(Atom::Long(i64::MIN));
        let r = dyad("+", &null, &Value::long(5)).unwrap();
        assert!(matches!(r, Value::Atom(a) if a.is_null()));
    }

    #[test]
    fn two_valued_equality_on_nulls() {
        let null = Value::Atom(Atom::Long(i64::MIN));
        let r = dyad("=", &null, &null).unwrap();
        assert!(r.q_eq(&Value::bool(true)), "Q nulls compare equal (2VL)");
    }

    #[test]
    fn comparisons_broadcast() {
        let r = dyad("<", &Value::Longs(vec![1, 5, 3]), &Value::long(3)).unwrap();
        assert!(r.q_eq(&Value::Bools(vec![true, false, false])));
    }

    #[test]
    fn temporal_arithmetic() {
        let d = Value::Atom(Atom::Date(100));
        let r = dyad("+", &d, &Value::long(5)).unwrap();
        assert!(matches!(r, Value::Atom(Atom::Date(105))));
        let diff = dyad("-", &Value::Atom(Atom::Date(105)), &Value::Atom(Atom::Date(100))).unwrap();
        assert!(diff.q_eq(&Value::long(5)));
    }

    #[test]
    fn min_max_via_amp_pipe() {
        assert!(dyad("&", &Value::long(3), &Value::long(5)).unwrap().q_eq(&Value::long(3)));
        assert!(dyad("|", &Value::long(3), &Value::long(5)).unwrap().q_eq(&Value::long(5)));
        assert!(dyad("&", &Value::bool(true), &Value::bool(false)).unwrap().q_eq(&Value::bool(false)));
    }

    #[test]
    fn match_operator() {
        assert!(dyad("~", &Value::Longs(vec![1, 2]), &Value::Longs(vec![1, 2]))
            .unwrap()
            .q_eq(&Value::bool(true)));
        assert!(dyad("~", &Value::long(1), &Value::Longs(vec![1]))
            .unwrap()
            .q_eq(&Value::bool(false)));
    }

    #[test]
    fn concat_lists_and_atoms() {
        let r = concat(&Value::long(1), &Value::Longs(vec![2, 3])).unwrap();
        assert!(r.q_eq(&Value::Longs(vec![1, 2, 3])));
        let r = concat(&Value::symbol("a"), &Value::symbol("b")).unwrap();
        assert!(r.q_eq(&Value::Symbols(vec!["a".into(), "b".into()])));
    }

    #[test]
    fn fill_replaces_nulls() {
        let v = Value::Longs(vec![1, i64::MIN, 3]);
        let r = dyad("^", &Value::long(0), &v).unwrap();
        assert!(r.q_eq(&Value::Longs(vec![1, 0, 3])));
    }

    #[test]
    fn membership() {
        let list = Value::Symbols(vec!["GOOG".into(), "IBM".into()]);
        assert!(dyad("in", &Value::symbol("GOOG"), &list).unwrap().q_eq(&Value::bool(true)));
        assert!(dyad("in", &Value::symbol("AAPL"), &list).unwrap().q_eq(&Value::bool(false)));
        let r = dyad("in", &Value::Symbols(vec!["IBM".into(), "X".into()]), &list).unwrap();
        assert!(r.q_eq(&Value::Bools(vec![true, false])));
    }

    #[test]
    fn within_range() {
        let r = dyad("within", &Value::Longs(vec![1, 5, 10]), &Value::Longs(vec![2, 6])).unwrap();
        assert!(r.q_eq(&Value::Bools(vec![false, true, false])));
    }

    #[test]
    fn like_globs() {
        assert!(glob_match("GO*", "GOOG"));
        assert!(glob_match("?BM", "IBM"));
        assert!(!glob_match("GO*", "IBM"));
        let r = dyad(
            "like",
            &Value::Symbols(vec!["GOOG".into(), "IBM".into()]),
            &Value::Chars("GO*".into()),
        )
        .unwrap();
        assert!(r.q_eq(&Value::Bools(vec![true, false])));
    }

    #[test]
    fn take_cyclic_and_negative() {
        let v = Value::Longs(vec![1, 2, 3]);
        assert!(dyad("#", &Value::long(2), &v).unwrap().q_eq(&Value::Longs(vec![1, 2])));
        assert!(dyad("#", &Value::long(5), &v).unwrap().q_eq(&Value::Longs(vec![1, 2, 3, 1, 2])));
        assert!(dyad("#", &Value::long(-2), &v).unwrap().q_eq(&Value::Longs(vec![2, 3])));
        // Atom replication.
        assert!(dyad("#", &Value::long(3), &Value::long(7)).unwrap().q_eq(&Value::Longs(vec![7, 7, 7])));
    }

    #[test]
    fn take_columns_from_table() {
        let t = Table::new(
            vec!["a".into(), "b".into()],
            vec![Value::Longs(vec![1]), Value::Longs(vec![2])],
        )
        .unwrap();
        let r = dyad("#", &Value::Symbols(vec!["b".into()]), &Value::Table(Box::new(t))).unwrap();
        match r {
            Value::Table(t) => assert_eq!(t.names, vec!["b".to_string()]),
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn drop_rows_and_columns() {
        let v = Value::Longs(vec![1, 2, 3, 4]);
        assert!(dyad("_", &Value::long(2), &v).unwrap().q_eq(&Value::Longs(vec![3, 4])));
        assert!(dyad("_", &Value::long(-1), &v).unwrap().q_eq(&Value::Longs(vec![1, 2, 3])));
    }

    #[test]
    fn find_returns_first_index_or_count() {
        let v = Value::Symbols(vec!["a".into(), "b".into(), "a".into()]);
        assert!(dyad("?", &v, &Value::symbol("a")).unwrap().q_eq(&Value::long(0)));
        assert!(dyad("?", &v, &Value::symbol("z")).unwrap().q_eq(&Value::long(3)));
    }

    #[test]
    fn roll_is_deterministic_and_bounded() {
        let r1 = dyad("?", &Value::long(10), &Value::long(5)).unwrap();
        let r2 = dyad("?", &Value::long(10), &Value::long(5)).unwrap();
        assert!(r1.q_eq(&r2));
        if let Value::Longs(v) = r1 {
            assert!(v.iter().all(|&x| (0..5).contains(&x)));
        } else {
            panic!("expected longs");
        }
    }

    #[test]
    fn bang_builds_dict_and_keyed_table() {
        let d = dyad(
            "!",
            &Value::Symbols(vec!["a".into(), "b".into()]),
            &Value::Longs(vec![1, 2]),
        )
        .unwrap();
        assert!(matches!(d, Value::Dict(_)));

        let t = Table::new(
            vec!["k".into(), "v".into()],
            vec![Value::Longs(vec![1]), Value::Longs(vec![10])],
        )
        .unwrap();
        let kt = dyad("!", &Value::long(1), &Value::Table(Box::new(t))).unwrap();
        match kt {
            Value::KeyedTable(k) => {
                assert_eq!(k.key.names, vec!["k".to_string()]);
                assert_eq!(k.value.names, vec!["v".to_string()]);
            }
            other => panic!("expected keyed table, got {other:?}"),
        }
    }

    #[test]
    fn at_indexes_lists_and_dicts() {
        let v = Value::Longs(vec![10, 20, 30]);
        assert!(dyad("@", &v, &Value::long(1)).unwrap().q_eq(&Value::long(20)));
        // Out-of-range yields typed null.
        let miss = dyad("@", &v, &Value::long(9)).unwrap();
        assert!(matches!(miss, Value::Atom(a) if a.is_null()));
        let idx = dyad("@", &v, &Value::Longs(vec![2, 0])).unwrap();
        assert!(idx.q_eq(&Value::Longs(vec![30, 10])));
    }

    #[test]
    fn monadic_negate_and_count() {
        assert!(monad("-", &Value::long(5)).unwrap().q_eq(&Value::long(-5)));
        assert!(monad("#", &Value::Longs(vec![1, 2, 3])).unwrap().q_eq(&Value::long(3)));
    }
}
