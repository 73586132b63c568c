//! Named built-in functions of the Q vocabulary.
//!
//! These are the primitives the Algebrizer must map onto SQL aggregates
//! and expressions; the reference engine implements them natively over the
//! columnar value model so the side-by-side framework (paper §5) has a
//! ground truth to compare Hyper-Q's translations against.

use crate::hashkey::{atom_keys, QKey};
use qlang::value::{Atom, Dict, KeyedTable, Table, Value};
use qlang::{QError, QResult};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// `til n` — the first n naturals.
pub fn til(a: &Value) -> QResult<Value> {
    match a {
        Value::Atom(at) => {
            let n = at.as_i64().ok_or_else(|| QError::type_err("til: need integer"))?;
            if n < 0 {
                return Err(QError::domain("til: negative"));
            }
            Ok(Value::Longs((0..n).collect()))
        }
        _ => Err(QError::type_err("til: need integer atom")),
    }
}

/// `count x` — list length (atoms count 1).
pub fn count(a: &Value) -> QResult<Value> {
    Ok(Value::long(a.count() as i64))
}

/// `first x`.
pub fn first(a: &Value) -> QResult<Value> {
    Ok(a.index(0).unwrap_or_else(|| match a {
        Value::Atom(_) => a.clone(),
        _ => a.null_element(),
    }))
}

/// `last x`.
pub fn last(a: &Value) -> QResult<Value> {
    match a.len() {
        Some(0) => Ok(a.null_element()),
        Some(n) => Ok(a.index(n - 1).unwrap()),
        None => Ok(a.clone()),
    }
}

/// Iterate the *non-null* numeric elements of a list.
fn numeric_elems(a: &Value) -> QResult<Vec<f64>> {
    let n = a.len().ok_or_else(|| QError::type_err("expected a list"))?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if let Some(Value::Atom(at)) = a.index(i) {
            if !at.is_null() {
                if let Some(f) = at.as_f64() {
                    out.push(f);
                }
            }
        }
    }
    Ok(out)
}

/// Is this list integral (so sums stay longs)?
fn is_integral(a: &Value) -> bool {
    matches!(
        a,
        Value::Longs(_) | Value::Ints(_) | Value::Shorts(_) | Value::Bools(_) | Value::Bytes(_)
    )
}

/// `sum x` — nulls ignored (kdb+ aggregation semantics).
pub fn sum(a: &Value) -> QResult<Value> {
    if a.is_atom() {
        return Ok(a.clone());
    }
    let elems = numeric_elems(a)?;
    let s: f64 = elems.iter().sum();
    Ok(if is_integral(a) { Value::long(s as i64) } else { Value::float(s) })
}

/// `avg x` — mean over non-null elements.
pub fn avg(a: &Value) -> QResult<Value> {
    if a.is_atom() {
        return Ok(Value::float(
            match a {
                Value::Atom(at) => at.as_f64().unwrap_or(f64::NAN),
                _ => unreachable!(),
            },
        ));
    }
    let elems = numeric_elems(a)?;
    if elems.is_empty() {
        return Ok(Value::float(f64::NAN));
    }
    Ok(Value::float(elems.iter().sum::<f64>() / elems.len() as f64))
}

/// `min x`.
pub fn min(a: &Value) -> QResult<Value> {
    fold_extreme(a, false)
}

/// `max x`.
pub fn max(a: &Value) -> QResult<Value> {
    fold_extreme(a, true)
}

fn fold_extreme(a: &Value, want_max: bool) -> QResult<Value> {
    if a.is_atom() {
        return Ok(a.clone());
    }
    let n = a.len().ok_or_else(|| QError::type_err("min/max: expected list"))?;
    let mut best: Option<Atom> = None;
    for i in 0..n {
        if let Some(Value::Atom(at)) = a.index(i) {
            if at.is_null() {
                continue;
            }
            best = Some(match best {
                None => at,
                Some(b) => {
                    let take_new = if want_max {
                        at.q_cmp(&b) == std::cmp::Ordering::Greater
                    } else {
                        at.q_cmp(&b) == std::cmp::Ordering::Less
                    };
                    if take_new {
                        at
                    } else {
                        b
                    }
                }
            });
        }
    }
    Ok(best.map(Value::Atom).unwrap_or_else(|| a.null_element()))
}

/// `med x` — median.
pub fn med(a: &Value) -> QResult<Value> {
    let mut elems = numeric_elems(a)?;
    if elems.is_empty() {
        return Ok(Value::float(f64::NAN));
    }
    elems.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let n = elems.len();
    let m = if n % 2 == 1 { elems[n / 2] } else { (elems[n / 2 - 1] + elems[n / 2]) / 2.0 };
    Ok(Value::float(m))
}

/// Sum of squared deviations from the mean over the non-null
/// elements, and how many there are.
fn squared_deviations(a: &Value) -> QResult<(f64, usize)> {
    let elems = numeric_elems(a)?;
    let mean = elems.iter().sum::<f64>() / elems.len() as f64;
    Ok((elems.iter().map(|x| (x - mean) * (x - mean)).sum(), elems.len()))
}

/// `var x` — population variance (as kdb+); null over no values.
pub fn var(a: &Value) -> QResult<Value> {
    let (ss, n) = squared_deviations(a)?;
    Ok(Value::float(if n == 0 { f64::NAN } else { ss / n as f64 }))
}

/// `svar x` — sample variance (n − 1 denominator); null below two
/// values.
pub fn svar(a: &Value) -> QResult<Value> {
    let (ss, n) = squared_deviations(a)?;
    Ok(Value::float(if n < 2 { f64::NAN } else { ss / (n - 1) as f64 }))
}

/// The square root of a float atom (`dev` of `var`, `sdev` of `svar`).
fn sqrt_atom(v: Value) -> Value {
    match v {
        Value::Atom(Atom::Float(f)) => Value::float(f.sqrt()),
        other => other,
    }
}

/// `dev x` — population standard deviation (as kdb+).
pub fn dev(a: &Value) -> QResult<Value> {
    var(a).map(sqrt_atom)
}

/// `sdev x` — sample standard deviation.
pub fn sdev(a: &Value) -> QResult<Value> {
    svar(a).map(sqrt_atom)
}

/// `sums x` — running sums.
pub fn sums(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("sums: expected list"))?;
    let mut acc = 0f64;
    let integral = is_integral(a);
    let mut longs = Vec::new();
    let mut floats = Vec::new();
    for i in 0..n {
        if let Some(Value::Atom(at)) = a.index(i) {
            if let Some(f) = at.as_f64() {
                if !at.is_null() {
                    acc += f;
                }
            }
        }
        if integral {
            longs.push(acc as i64);
        } else {
            floats.push(acc);
        }
    }
    Ok(if integral { Value::Longs(longs) } else { Value::Floats(floats) })
}

/// `deltas x` — successive differences (first element unchanged).
pub fn deltas(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("deltas: expected list"))?;
    if n == 0 {
        return Ok(a.clone());
    }
    let mut out = Vec::with_capacity(n);
    out.push(a.index(0).unwrap());
    for i in 1..n {
        let prev = a.index(i - 1).unwrap();
        let cur = a.index(i).unwrap();
        out.push(crate::ops::dyad("-", &cur, &prev)?);
    }
    Ok(Value::from_elements(out))
}

/// `prev x` — shift right: `(null; x0; x1; ...)`.
pub fn prev(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("prev: expected list"))?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i == 0 {
            out.push(a.null_element());
        } else {
            out.push(a.index(i - 1).unwrap());
        }
    }
    Ok(Value::from_elements(out))
}

/// `next x` — shift left: `(x1; ...; null)`.
pub fn next(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("next: expected list"))?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i + 1 < n {
            out.push(a.index(i + 1).unwrap());
        } else {
            out.push(a.null_element());
        }
    }
    Ok(Value::from_elements(out))
}

/// `where x` — indices of nonzero/true entries; on a dict of counts,
/// replicated keys.
pub fn where_op(a: &Value) -> QResult<Value> {
    match a {
        Value::Bools(v) => Ok(Value::Longs(
            v.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as i64).collect(),
        )),
        Value::Longs(v) => {
            let mut out = Vec::new();
            for (i, &c) in v.iter().enumerate() {
                for _ in 0..c.max(0) {
                    out.push(i as i64);
                }
            }
            Ok(Value::Longs(out))
        }
        _ => Err(QError::type_err(format!("where: cannot apply to {}", a.type_name()))),
    }
}

/// `distinct x` — unique elements in first-seen order.
///
/// All-atom lists (every typed vector) go through a [`QKey`] hash set;
/// mixed lists containing non-atoms fall back to the quadratic `q_eq`
/// scan, which also handles list elements.
pub fn distinct(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("distinct: expected list"))?;
    if let Some(keys) = atom_keys(a, n) {
        let mut seen: HashSet<QKey> = HashSet::with_capacity(n);
        let mut out: Vec<Value> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            if seen.insert(key) {
                out.push(a.index(i).unwrap());
            }
        }
        return Ok(Value::from_elements(out));
    }
    let mut seen: Vec<Value> = Vec::new();
    for i in 0..n {
        let v = a.index(i).unwrap();
        if !seen.iter().any(|s| s.q_eq(&v)) {
            seen.push(v);
        }
    }
    Ok(Value::from_elements(seen))
}

/// `group x` — dict from distinct values to index lists.
///
/// Same hash fast path / naive fallback split as [`distinct`].
pub fn group(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("group: expected list"))?;
    let mut keys: Vec<Value> = Vec::new();
    let mut groups: Vec<Vec<i64>> = Vec::new();
    if let Some(row_keys) = atom_keys(a, n) {
        let mut index: HashMap<QKey, usize> = HashMap::with_capacity(n);
        for (i, key) in row_keys.into_iter().enumerate() {
            match index.entry(key) {
                Entry::Occupied(e) => groups[*e.get()].push(i as i64),
                Entry::Vacant(e) => {
                    e.insert(keys.len());
                    keys.push(a.index(i).unwrap());
                    groups.push(vec![i as i64]);
                }
            }
        }
    } else {
        for i in 0..n {
            let v = a.index(i).unwrap();
            match keys.iter().position(|k| k.q_eq(&v)) {
                Some(g) => groups[g].push(i as i64),
                None => {
                    keys.push(v);
                    groups.push(vec![i as i64]);
                }
            }
        }
    }
    let values = Value::Mixed(groups.into_iter().map(Value::Longs).collect());
    Ok(Value::Dict(Box::new(Dict::new(Value::from_elements(keys), values)?)))
}

/// `reverse x`.
pub fn reverse(a: &Value) -> QResult<Value> {
    let n = a.len().ok_or_else(|| QError::type_err("reverse: expected list"))?;
    let idx: Vec<usize> = (0..n).rev().collect();
    Ok(a.take_indices(&idx))
}

/// Stable sort permutation of a list, ascending (nulls first).
pub fn sort_indices(a: &Value) -> QResult<Vec<usize>> {
    let n = a.len().ok_or_else(|| QError::type_err("sort: expected list"))?;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| {
        match (a.index(i), a.index(j)) {
            (Some(Value::Atom(x)), Some(Value::Atom(y))) => x.q_cmp(&y),
            _ => std::cmp::Ordering::Equal,
        }
    });
    Ok(idx)
}

/// `asc x` — sorted ascending.
pub fn asc(a: &Value) -> QResult<Value> {
    Ok(a.take_indices(&sort_indices(a)?))
}

/// `desc x` — sorted descending.
pub fn desc(a: &Value) -> QResult<Value> {
    let mut idx = sort_indices(a)?;
    idx.reverse();
    Ok(a.take_indices(&idx))
}

/// `iasc x` — ascending sort permutation.
pub fn iasc(a: &Value) -> QResult<Value> {
    Ok(Value::Longs(sort_indices(a)?.into_iter().map(|i| i as i64).collect()))
}

/// `idesc x` — descending sort permutation.
pub fn idesc(a: &Value) -> QResult<Value> {
    let mut idx = sort_indices(a)?;
    idx.reverse();
    Ok(Value::Longs(idx.into_iter().map(|i| i as i64).collect()))
}

/// `raze x` — flatten one level.
pub fn raze(a: &Value) -> QResult<Value> {
    match a {
        Value::Mixed(items) => {
            let mut out = Value::Mixed(vec![]);
            for item in items {
                out = crate::ops::concat(&out, item)?;
            }
            Ok(out)
        }
        _ => Ok(a.clone()),
    }
}

/// `flip x` — table ↔ column-dict transpose.
pub fn flip(a: &Value) -> QResult<Value> {
    match a {
        Value::Dict(d) => flip_dict(d),
        Value::Table(t) => {
            let d = Dict::new(
                Value::Symbols(t.names.clone()),
                Value::Mixed(t.columns.clone()),
            )?;
            Ok(Value::Dict(Box::new(d)))
        }
        _ => Err(QError::type_err(format!("flip: cannot flip {}", a.type_name()))),
    }
}

/// Flip a column dictionary into a table.
pub fn flip_dict(d: &Dict) -> QResult<Value> {
    let names = match &d.keys {
        Value::Symbols(s) => s.clone(),
        _ => return Err(QError::type_err("flip: dict keys must be symbols")),
    };
    let columns = match &d.values {
        Value::Mixed(cols) => cols.clone(),
        _ => return Err(QError::type_err("flip: dict values must be a list of columns")),
    };
    Ok(Value::Table(Box::new(Table::new(names, columns)?)))
}

/// `key x` — keys of a dict / key table of a keyed table.
pub fn key(a: &Value) -> QResult<Value> {
    match a {
        Value::Dict(d) => Ok(d.keys.clone()),
        Value::KeyedTable(k) => Ok(Value::Table(Box::new(k.key.clone()))),
        _ => Ok(Value::Mixed(vec![])),
    }
}

/// `value x` — values of a dict / value table of a keyed table.
pub fn value(a: &Value) -> QResult<Value> {
    match a {
        Value::Dict(d) => Ok(d.values.clone()),
        Value::KeyedTable(k) => Ok(Value::Table(Box::new(k.value.clone()))),
        _ => Ok(a.clone()),
    }
}

/// `cols t` — column names.
pub fn cols(a: &Value) -> QResult<Value> {
    match a {
        Value::Table(t) => Ok(Value::Symbols(t.names.clone())),
        Value::KeyedTable(k) => Ok(Value::Symbols(
            k.key.names.iter().chain(&k.value.names).cloned().collect(),
        )),
        _ => Err(QError::type_err("cols: expected table")),
    }
}

/// `meta t` — table describing each column's name and type char.
pub fn meta(a: &Value) -> QResult<Value> {
    let t = match a {
        Value::Table(t) => t.as_ref().clone(),
        Value::KeyedTable(k) => Table {
            names: k.key.names.iter().chain(&k.value.names).cloned().collect(),
            columns: k.key.columns.iter().chain(&k.value.columns).cloned().collect(),
        },
        _ => return Err(QError::type_err("meta: expected table")),
    };
    let type_char = |v: &Value| -> String {
        match v.type_code() {
            1 => "b",
            4 => "x",
            5 => "h",
            6 => "i",
            7 => "j",
            8 => "e",
            9 => "f",
            10 => "c",
            11 => "s",
            12 => "p",
            14 => "d",
            19 => "t",
            _ => " ",
        }
        .to_string()
    };
    let names = Value::Symbols(t.names.clone());
    let types = Value::Symbols(t.columns.iter().map(type_char).collect());
    Ok(Value::KeyedTable(Box::new(KeyedTable {
        key: Table::new(vec!["c".into()], vec![names])?,
        value: Table::new(vec!["t".into()], vec![types])?,
    })))
}

/// `ungroup` a keyed table back to a plain table (key + value columns).
pub fn unkey(a: &Value) -> QResult<Value> {
    match a {
        Value::KeyedTable(k) => Ok(Value::Table(Box::new(Table {
            names: k.key.names.iter().chain(&k.value.names).cloned().collect(),
            columns: k.key.columns.iter().chain(&k.value.columns).cloned().collect(),
        }))),
        other => Ok(other.clone()),
    }
}

/// `not x`.
pub fn not(a: &Value) -> QResult<Value> {
    match a {
        Value::Atom(Atom::Bool(b)) => Ok(Value::bool(!b)),
        Value::Bools(v) => Ok(Value::Bools(v.iter().map(|b| !b).collect())),
        _ => {
            // not 0 = 1b, not nonzero = 0b.
            let n = a.len();
            match n {
                None => match a {
                    Value::Atom(at) => {
                        Ok(Value::bool(at.as_f64().map(|f| f == 0.0).unwrap_or(false)))
                    }
                    _ => Err(QError::type_err("not: bad operand")),
                },
                Some(len) => {
                    let mut out = Vec::with_capacity(len);
                    for i in 0..len {
                        match a.index(i) {
                            Some(Value::Atom(at)) => {
                                out.push(at.as_f64().map(|f| f == 0.0).unwrap_or(false))
                            }
                            _ => out.push(false),
                        }
                    }
                    Ok(Value::Bools(out))
                }
            }
        }
    }
}

/// `null x` — per-element null test.
pub fn null(a: &Value) -> QResult<Value> {
    match a {
        Value::Atom(at) => Ok(Value::bool(at.is_null())),
        _ => {
            let n = a.len().unwrap_or(0);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match a.index(i) {
                    Some(Value::Atom(at)) => at.is_null(),
                    _ => false,
                });
            }
            Ok(Value::Bools(out))
        }
    }
}

/// Numeric monadics: `abs`, `neg`, `sqrt`, `exp`, `log`, `floor`,
/// `ceiling`, `signum`.
pub fn numeric_monad(name: &str, a: &Value) -> QResult<Value> {
    let apply = |at: &Atom| -> QResult<Atom> {
        if at.is_null() {
            return Ok(at.clone());
        }
        let f = at.as_f64().ok_or_else(|| QError::type_err(format!("{name}: non-numeric")))?;
        let integral = matches!(at, Atom::Long(_) | Atom::Int(_) | Atom::Short(_) | Atom::Bool(_));
        Ok(match name {
            "abs" => {
                if integral {
                    Atom::Long(f.abs() as i64)
                } else {
                    Atom::Float(f.abs())
                }
            }
            "neg" => {
                if integral {
                    Atom::Long(-(f as i64))
                } else {
                    Atom::Float(-f)
                }
            }
            "sqrt" => Atom::Float(f.sqrt()),
            "exp" => Atom::Float(f.exp()),
            "log" => Atom::Float(f.ln()),
            "floor" => Atom::Long(f.floor() as i64),
            "ceiling" => Atom::Long(f.ceil() as i64),
            "signum" => Atom::Long(if f > 0.0 {
                1
            } else if f < 0.0 {
                -1
            } else {
                0
            }),
            _ => return Err(QError::type_err(format!("unknown numeric monad {name}"))),
        })
    };
    match a {
        Value::Atom(at) => Ok(Value::Atom(apply(at)?)),
        _ => {
            let n = a.len().ok_or_else(|| QError::type_err(format!("{name}: bad operand")))?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match a.index(i) {
                    Some(Value::Atom(at)) => out.push(Value::Atom(apply(&at)?)),
                    Some(v) => out.push(numeric_monad(name, &v)?),
                    None => {}
                }
            }
            Ok(Value::from_elements(out))
        }
    }
}

/// `string x` — textual rendering as a char vector (or list thereof).
pub fn string(a: &Value) -> QResult<Value> {
    match a {
        Value::Atom(at) => {
            let s = match at {
                Atom::Symbol(s) => s.clone(),
                other => other.to_string(),
            };
            Ok(Value::Chars(s))
        }
        _ => {
            let n = a.len().unwrap_or(0);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(string(&a.index(i).unwrap())?);
            }
            Ok(Value::Mixed(out))
        }
    }
}

/// `upper` / `lower`.
pub fn case_fn(name: &str, a: &Value) -> QResult<Value> {
    let conv = |s: &str| {
        if name == "upper" {
            s.to_uppercase()
        } else {
            s.to_lowercase()
        }
    };
    match a {
        Value::Chars(s) => Ok(Value::Chars(conv(s))),
        Value::Atom(Atom::Symbol(s)) => Ok(Value::symbol(conv(s))),
        Value::Symbols(v) => Ok(Value::Symbols(v.iter().map(|s| conv(s)).collect())),
        _ => Err(QError::type_err(format!("{name}: expected text"))),
    }
}

/// `type x` — kdb+ type code as a short atom.
pub fn type_of(a: &Value) -> QResult<Value> {
    Ok(Value::Atom(Atom::Short(a.type_code() as i16)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn til_counts_from_zero() {
        assert!(til(&Value::long(4)).unwrap().q_eq(&Value::Longs(vec![0, 1, 2, 3])));
        assert!(til(&Value::long(-1)).is_err());
    }

    #[test]
    fn aggregates_ignore_nulls() {
        let v = Value::Longs(vec![1, i64::MIN, 3]);
        assert!(sum(&v).unwrap().q_eq(&Value::long(4)));
        assert!(avg(&v).unwrap().q_eq(&Value::float(2.0)));
        assert!(max(&v).unwrap().q_eq(&Value::Atom(Atom::Long(3))));
        assert!(min(&v).unwrap().q_eq(&Value::Atom(Atom::Long(1))));
    }

    #[test]
    fn sum_of_floats_stays_float() {
        let v = Value::Floats(vec![1.5, 2.5]);
        assert!(sum(&v).unwrap().q_eq(&Value::float(4.0)));
    }

    #[test]
    fn first_last_and_empties() {
        let v = Value::Longs(vec![10, 20]);
        assert!(first(&v).unwrap().q_eq(&Value::long(10)));
        assert!(last(&v).unwrap().q_eq(&Value::long(20)));
        let empty = Value::Longs(vec![]);
        assert!(matches!(first(&empty).unwrap(), Value::Atom(a) if a.is_null()));
        assert!(matches!(last(&empty).unwrap(), Value::Atom(a) if a.is_null()));
    }

    #[test]
    fn median_and_variance() {
        let v = Value::Longs(vec![1, 3, 2]);
        assert!(med(&v).unwrap().q_eq(&Value::float(2.0)));
        let v = Value::Longs(vec![1, 2, 3, 4]);
        assert!(med(&v).unwrap().q_eq(&Value::float(2.5)));
        assert!(var(&v).unwrap().q_eq(&Value::float(1.25)));
    }

    #[test]
    fn running_sums_and_deltas() {
        let v = Value::Longs(vec![1, 2, 3]);
        assert!(sums(&v).unwrap().q_eq(&Value::Longs(vec![1, 3, 6])));
        assert!(deltas(&v).unwrap().q_eq(&Value::Longs(vec![1, 1, 1])));
    }

    #[test]
    fn where_yields_indices() {
        let v = Value::Bools(vec![true, false, true]);
        assert!(where_op(&v).unwrap().q_eq(&Value::Longs(vec![0, 2])));
        // where on counts replicates indices.
        let v = Value::Longs(vec![2, 0, 1]);
        assert!(where_op(&v).unwrap().q_eq(&Value::Longs(vec![0, 0, 2])));
    }

    #[test]
    fn distinct_preserves_first_seen_order() {
        let v = Value::Symbols(vec!["b".into(), "a".into(), "b".into()]);
        assert!(distinct(&v).unwrap().q_eq(&Value::Symbols(vec!["b".into(), "a".into()])));
    }

    #[test]
    fn group_maps_values_to_indices() {
        let v = Value::Symbols(vec!["a".into(), "b".into(), "a".into()]);
        match group(&v).unwrap() {
            Value::Dict(d) => {
                assert!(d.get(&Value::symbol("a")).q_eq(&Value::Longs(vec![0, 2])));
                assert!(d.get(&Value::symbol("b")).q_eq(&Value::Longs(vec![1])));
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn sorting_family() {
        let v = Value::Longs(vec![3, 1, 2]);
        assert!(asc(&v).unwrap().q_eq(&Value::Longs(vec![1, 2, 3])));
        assert!(desc(&v).unwrap().q_eq(&Value::Longs(vec![3, 2, 1])));
        assert!(iasc(&v).unwrap().q_eq(&Value::Longs(vec![1, 2, 0])));
        assert!(idesc(&v).unwrap().q_eq(&Value::Longs(vec![0, 2, 1])));
    }

    #[test]
    fn sort_is_stable() {
        let v = Value::Longs(vec![2, 1, 2, 1]);
        assert!(iasc(&v).unwrap().q_eq(&Value::Longs(vec![1, 3, 0, 2])));
    }

    #[test]
    fn raze_flattens_one_level() {
        let nested = Value::Mixed(vec![Value::Longs(vec![1, 2]), Value::Longs(vec![3])]);
        assert!(raze(&nested).unwrap().q_eq(&Value::Longs(vec![1, 2, 3])));
    }

    #[test]
    fn flip_round_trips_tables() {
        let t = Table::new(
            vec!["a".into()],
            vec![Value::Longs(vec![1, 2])],
        )
        .unwrap();
        let tv = Value::Table(Box::new(t));
        let d = flip(&tv).unwrap();
        assert!(matches!(d, Value::Dict(_)));
        let back = flip(&d).unwrap();
        assert!(back.q_eq(&tv));
    }

    #[test]
    fn reverse_lists() {
        let v = Value::Longs(vec![1, 2, 3]);
        assert!(reverse(&v).unwrap().q_eq(&Value::Longs(vec![3, 2, 1])));
    }

    #[test]
    fn cols_and_meta() {
        let t = Value::Table(Box::new(
            Table::new(
                vec!["Sym".into(), "Px".into()],
                vec![Value::Symbols(vec!["a".into()]), Value::Floats(vec![1.0])],
            )
            .unwrap(),
        ));
        assert!(cols(&t).unwrap().q_eq(&Value::Symbols(vec!["Sym".into(), "Px".into()])));
        let m = meta(&t).unwrap();
        match m {
            Value::KeyedTable(k) => {
                assert!(k.value.column("t").unwrap().q_eq(&Value::Symbols(vec!["s".into(), "f".into()])));
            }
            other => panic!("expected keyed table, got {other:?}"),
        }
    }

    #[test]
    fn not_and_null() {
        assert!(not(&Value::bool(true)).unwrap().q_eq(&Value::bool(false)));
        assert!(not(&Value::Bools(vec![true, false])).unwrap().q_eq(&Value::Bools(vec![false, true])));
        let v = Value::Longs(vec![1, i64::MIN]);
        assert!(null(&v).unwrap().q_eq(&Value::Bools(vec![false, true])));
    }

    #[test]
    fn numeric_monads() {
        assert!(numeric_monad("abs", &Value::long(-3)).unwrap().q_eq(&Value::long(3)));
        assert!(numeric_monad("neg", &Value::long(3)).unwrap().q_eq(&Value::long(-3)));
        assert!(numeric_monad("sqrt", &Value::float(4.0)).unwrap().q_eq(&Value::float(2.0)));
        assert!(numeric_monad("floor", &Value::float(2.9)).unwrap().q_eq(&Value::long(2)));
        assert!(numeric_monad("ceiling", &Value::float(2.1)).unwrap().q_eq(&Value::long(3)));
        assert!(numeric_monad("signum", &Value::long(-9)).unwrap().q_eq(&Value::long(-1)));
        // Null passes through.
        let r = numeric_monad("abs", &Value::Atom(Atom::Long(i64::MIN))).unwrap();
        assert!(matches!(r, Value::Atom(a) if a.is_null()));
    }

    #[test]
    fn string_and_case() {
        assert!(string(&Value::symbol("GOOG")).unwrap().q_eq(&Value::Chars("GOOG".into())));
        assert!(case_fn("lower", &Value::symbol("GOOG")).unwrap().q_eq(&Value::symbol("goog")));
        assert!(case_fn("upper", &Value::Chars("abc".into())).unwrap().q_eq(&Value::Chars("ABC".into())));
    }

    #[test]
    fn type_codes() {
        assert!(type_of(&Value::long(1)).unwrap().q_eq(&Value::Atom(Atom::Short(-7))));
        assert!(type_of(&Value::Longs(vec![])).unwrap().q_eq(&Value::Atom(Atom::Short(7))));
    }
}
