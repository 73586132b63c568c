//! The Q evaluator.
//!
//! Evaluation is strictly right-to-left (the parser already encodes this
//! in the AST shape: the right operand of every verb is the entire rest of
//! the expression). Dyadic application evaluates its *right* argument
//! first, matching kdb+ — observable when both sides have side effects.

use crate::builtins;
use crate::env::Env;
use crate::joins;
use crate::ops;
use crate::qsql;
use qlang::ast::{Adverb, Expr, LambdaDef};
use qlang::value::{Atom, Table, Value};
use qlang::{QError, QResult};

/// A Q interpreter instance: one "server" with its scope hierarchy.
#[derive(Debug, Default)]
pub struct Interp {
    /// The variable environment (local/session/server scopes).
    pub env: Env,
    /// Set when a `:x` return statement fired; unwinds to the enclosing
    /// lambda invocation.
    returning: bool,
}

impl Interp {
    /// Create a fresh interpreter.
    pub fn new() -> Self {
        Interp::default()
    }

    /// Parse and evaluate a Q program; the value of the last statement is
    /// returned (kdb+ console behaviour).
    pub fn run(&mut self, src: &str) -> QResult<Value> {
        let stmts = qlang::parse(src)?;
        let mut last = Value::Nil;
        for stmt in &stmts {
            last = self.eval(stmt)?;
            if self.returning {
                self.returning = false;
                break;
            }
        }
        Ok(last)
    }

    /// Build a fresh interpreter preloaded with server-global tables —
    /// the reference-side constructor used by the qgen fuzz loop, which
    /// needs many short-lived engines over generated datasets.
    pub fn with_tables<'a>(tables: impl IntoIterator<Item = (&'a str, &'a Table)>) -> Self {
        let mut interp = Interp::new();
        for (name, table) in tables {
            interp.define_table(name, table.clone());
        }
        interp
    }

    /// Define a server-global table (used by hosts to load data).
    pub fn define_table(&mut self, name: &str, table: Table) {
        self.env.define_server(name, Value::Table(Box::new(table)));
    }

    /// Evaluate one expression.
    pub fn eval(&mut self, e: &Expr) -> QResult<Value> {
        match e {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Empty => Ok(Value::Nil),
            Expr::Var(name) => self.resolve(name),
            Expr::List(items) => {
                // Right-to-left evaluation of list elements.
                let mut vals = vec![Value::Nil; items.len()];
                for (i, item) in items.iter().enumerate().rev() {
                    vals[i] = self.eval(item)?;
                }
                Ok(Value::from_elements(vals))
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg)?;
                ops::monad(op, &v)
            }
            Expr::Binary { op, lhs, rhs } => {
                // Right argument first.
                let r = self.eval(rhs)?;
                let l = self.eval(lhs)?;
                self.dyadic(op, l, r)
            }
            Expr::Apply { func, arg } => {
                let a = self.eval(arg)?;
                self.apply_expr(func, vec![a])
            }
            Expr::Call { func, args } => {
                if args.iter().any(|a| a.is_none()) {
                    return Err(QError::rank(
                        "projection (elided arguments) is not supported by the reference engine",
                    ));
                }
                // Right-to-left argument evaluation.
                let mut vals = vec![Value::Nil; args.len()];
                for (i, a) in args.iter().enumerate().rev() {
                    vals[i] = self.eval(a.as_ref().unwrap())?;
                }
                self.apply_expr(func, vals)
            }
            Expr::Lambda(def) => Ok(Value::Lambda(Box::new(def.clone()))),
            Expr::AdverbApply { .. } => Err(QError::type_err(
                "derived verb used as a value; apply it to arguments instead",
            )),
            Expr::Assign { name, global, value } => {
                let v = self.eval(value)?;
                if *global {
                    self.env.assign_global(name.clone(), v.clone());
                } else {
                    self.env.assign(name.clone(), v.clone());
                }
                Ok(v)
            }
            Expr::IndexAssign { name, indices, value } => {
                let v = self.eval(value)?;
                let idx: Vec<Value> =
                    indices.iter().map(|i| self.eval(i)).collect::<QResult<_>>()?;
                let current = self.resolve(name)?;
                let updated = index_assign(&current, &idx, &v)?;
                self.env.assign(name.clone(), updated);
                Ok(v)
            }
            Expr::Return(inner) => {
                let v = self.eval(inner)?;
                self.returning = true;
                Ok(v)
            }
            Expr::Template(t) => qsql::exec_template(self, t),
            Expr::TableLit { keys, columns } => self.table_literal(keys, columns),
            Expr::Cond(items) => self.eval_cond(items),
        }
    }

    /// `$[c1;r1;c2;r2;...;else]` — conditions evaluated until one holds.
    fn eval_cond(&mut self, items: &[Expr]) -> QResult<Value> {
        if items.len() < 3 {
            return Err(QError::rank("$[;;]: need condition, then, else"));
        }
        let mut i = 0;
        while i + 1 < items.len() {
            let c = self.eval(&items[i])?;
            if self.returning {
                return Ok(c);
            }
            let truthy = match &c {
                Value::Atom(Atom::Bool(b)) => *b,
                Value::Atom(a) => a.as_f64().map(|f| f != 0.0).unwrap_or(false),
                _ => return Err(QError::type_err("$: condition must be an atom")),
            };
            if truthy {
                return self.eval(&items[i + 1]);
            }
            i += 2;
        }
        if i < items.len() {
            self.eval(&items[i])
        } else {
            Ok(Value::Nil)
        }
    }

    /// Build a table (or keyed table) from a literal.
    fn table_literal(
        &mut self,
        keys: &[(String, Expr)],
        columns: &[(String, Expr)],
    ) -> QResult<Value> {
        let eval_cols = |me: &mut Self, specs: &[(String, Expr)]| -> QResult<Vec<(String, Value)>> {
            let mut out = Vec::with_capacity(specs.len());
            for (name, e) in specs.iter().rev() {
                out.push((name.clone(), me.eval(e)?));
            }
            out.reverse();
            Ok(out)
        };
        let key_cols = eval_cols(self, keys)?;
        let val_cols = eval_cols(self, columns)?;

        // Atoms broadcast to the longest column.
        let max_len = key_cols
            .iter()
            .chain(&val_cols)
            .filter_map(|(_, v)| v.len())
            .max()
            .unwrap_or(1);
        let normalize = |v: Value| -> Value {
            match v.len() {
                Some(_) => v,
                None => {
                    let items = vec![v; max_len];
                    Value::from_elements(items)
                }
            }
        };
        let build = |cols: Vec<(String, Value)>| -> QResult<Table> {
            let mut t = Table::default();
            for (n, v) in cols {
                t.push_column(n, normalize(v))?;
            }
            Ok(t)
        };
        let value = build(val_cols)?;
        if keys.is_empty() {
            Ok(Value::Table(Box::new(value)))
        } else {
            let key = build(key_cols)?;
            Ok(Value::KeyedTable(Box::new(qlang::KeyedTable { key, value })))
        }
    }

    /// Resolve a name: environment first, then recognise builtins used as
    /// values (rare, e.g. `f: count`).
    fn resolve(&mut self, name: &str) -> QResult<Value> {
        if let Some(v) = self.env.lookup(name) {
            return Ok(v.clone());
        }
        Err(QError::undefined(name))
    }

    /// Dyadic dispatch: operator glyphs, named verbs, and table verbs.
    fn dyadic(&mut self, op: &str, l: Value, r: Value) -> QResult<Value> {
        match op {
            "xasc" | "xdesc" => {
                let cols = symbol_list(&l, op)?;
                let t = expect_table(&r, op)?;
                let sorted = if op == "xasc" {
                    joins::xasc(&cols, &t)?
                } else {
                    joins::xdesc(&cols, &t)?
                };
                Ok(Value::Table(Box::new(sorted)))
            }
            "xkey" => {
                let cols = symbol_list(&l, op)?;
                let t = expect_table(&r, op)?;
                joins::xkey(&cols, &t)
            }
            "xcol" => {
                let cols = symbol_list(&l, op)?;
                let t = expect_table(&r, op)?;
                Ok(Value::Table(Box::new(joins::xcol(&cols, &t)?)))
            }
            "xcols" => {
                // Reorder: named columns first.
                let cols = symbol_list(&l, op)?;
                let t = expect_table(&r, op)?;
                let mut names = cols.clone();
                for n in &t.names {
                    if !names.contains(n) {
                        names.push(n.clone());
                    }
                }
                let columns = names
                    .iter()
                    .map(|n| {
                        t.column(n)
                            .cloned()
                            .ok_or_else(|| QError::type_err(format!("xcols: no column {n}")))
                    })
                    .collect::<QResult<Vec<_>>>()?;
                Ok(Value::Table(Box::new(Table { names, columns })))
            }
            "lj" | "ij" => {
                let t = expect_table(&l, op)?;
                let kt = match r {
                    Value::KeyedTable(k) => *k,
                    _ => return Err(QError::type_err(format!("{op}: right operand must be keyed"))),
                };
                let out =
                    if op == "lj" { joins::lj(&t, &kt)? } else { joins::ij(&t, &kt)? };
                Ok(Value::Table(Box::new(out)))
            }
            "uj" => {
                let a = expect_table(&l, op)?;
                let b = expect_table(&r, op)?;
                joins::union_tables(&a, &b)
            }
            "cross" => cross(&l, &r),
            "except" => {
                let n = l.len().ok_or_else(|| QError::type_err("except: need list"))?;
                let mut out = Vec::new();
                for i in 0..n {
                    let v = l.index(i).unwrap();
                    let inside = ops::dyad("in", &v, &r)?;
                    if inside.q_eq(&Value::bool(false)) {
                        out.push(v);
                    }
                }
                Ok(Value::from_elements(out))
            }
            "inter" => {
                let n = l.len().ok_or_else(|| QError::type_err("inter: need list"))?;
                let mut out = Vec::new();
                for i in 0..n {
                    let v = l.index(i).unwrap();
                    let inside = ops::dyad("in", &v, &r)?;
                    if inside.q_eq(&Value::bool(true)) {
                        out.push(v);
                    }
                }
                Ok(Value::from_elements(out))
            }
            "union" => {
                let joined = ops::concat(&l, &r)?;
                builtins::distinct(&joined)
            }
            "each" => self.map_each(&l, &r),
            "over" => self.fold_over(&l, &r, false),
            "scan" => self.fold_over(&l, &r, true),
            "set" => {
                let name = match &l {
                    Value::Atom(Atom::Symbol(s)) => s.clone(),
                    _ => return Err(QError::type_err("set: left operand must be a symbol")),
                };
                self.env.assign_global(name, r.clone());
                Ok(l)
            }
            "insert" => {
                let name = match &l {
                    Value::Atom(Atom::Symbol(s)) => s.clone(),
                    _ => return Err(QError::type_err("insert: left operand must be a symbol")),
                };
                let existing = self.resolve(&name)?;
                let t = expect_table(&existing, "insert")?;
                let rows = expect_table(&r, "insert")?;
                let merged = joins::union_tables(&t, &rows)?;
                self.env.assign_global(name, merged);
                Ok(Value::Longs(vec![]))
            }
            "upsert" => {
                let t = expect_table(&l, op)?;
                let rows = expect_table(&r, op)?;
                joins::union_tables(&t, &rows)
            }
            "xbar" => {
                // `n xbar x` — round x down to the nearest multiple of n.
                let m = ops::dyad("mod", &r, &l)?;
                ops::dyad("-", &r, &m)
            }
            "bin" => bin_search(&l, &r, true),
            "binr" => bin_search(&l, &r, false),
            "$" => cast(&l, &r),
            "." => {
                // l . args — apply with argument list.
                let args: Vec<Value> = match &r {
                    Value::Mixed(items) => items.clone(),
                    other => vec![other.clone()],
                };
                self.apply_value(&l, args)
            }
            "@" if matches!(l, Value::Lambda(_)) => self.apply_value(&l, vec![r]),
            _ => ops::dyad(op, &l, &r),
        }
    }

    /// `f each list` — map a function over list elements.
    fn map_each(&mut self, f: &Value, list: &Value) -> QResult<Value> {
        let n = list
            .len()
            .ok_or_else(|| QError::type_err("each: right operand must be a list"))?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.apply_value(f, vec![list.index(i).unwrap()])?);
        }
        Ok(Value::from_elements(out))
    }

    /// `f over list` / `f scan list` — fold with first element as seed.
    fn fold_over(&mut self, f: &Value, list: &Value, emit_intermediate: bool) -> QResult<Value> {
        let n = list
            .len()
            .ok_or_else(|| QError::type_err("over: right operand must be a list"))?;
        if n == 0 {
            return Ok(Value::Nil);
        }
        let mut acc = list.index(0).unwrap();
        let mut trace = vec![acc.clone()];
        for i in 1..n {
            acc = self.apply_value(f, vec![acc, list.index(i).unwrap()])?;
            if emit_intermediate {
                trace.push(acc.clone());
            }
        }
        Ok(if emit_intermediate { Value::from_elements(trace) } else { acc })
    }

    /// Apply a callee *expression* to evaluated arguments. Handles named
    /// builtins, adverb-derived verbs and ordinary values.
    pub fn apply_expr(&mut self, func: &Expr, args: Vec<Value>) -> QResult<Value> {
        match func {
            Expr::Var(name) => {
                // User definitions shadow builtins.
                if let Some(v) = self.env.lookup(name) {
                    let v = v.clone();
                    return self.apply_value(&v, args);
                }
                self.call_builtin(name, args)
            }
            Expr::AdverbApply { verb, adverb } => self.apply_adverb(verb, *adverb, args),
            other => {
                let f = self.eval(other)?;
                self.apply_value(&f, args)
            }
        }
    }

    /// Apply an adverb-derived verb to arguments.
    fn apply_adverb(&mut self, verb: &Expr, adverb: Adverb, args: Vec<Value>) -> QResult<Value> {
        let call2 = |me: &mut Self, a: Value, b: Value| -> QResult<Value> {
            match verb {
                Expr::Var(op) if is_operator_glyph(op) => me.dyadic(op, a, b),
                _ => {
                    let f = me.eval(verb)?;
                    me.apply_value(&f, vec![a, b])
                }
            }
        };
        match (adverb, args.len()) {
            (Adverb::Over | Adverb::Scan, 1) => {
                let list = &args[0];
                let n = list.len().ok_or_else(|| QError::type_err("fold: need a list"))?;
                if n == 0 {
                    return Ok(Value::Nil);
                }
                let mut acc = list.index(0).unwrap();
                let mut trace = vec![acc.clone()];
                for i in 1..n {
                    acc = call2(self, acc, list.index(i).unwrap())?;
                    if adverb == Adverb::Scan {
                        trace.push(acc.clone());
                    }
                }
                Ok(if adverb == Adverb::Scan { Value::from_elements(trace) } else { acc })
            }
            (Adverb::Over | Adverb::Scan, 2) => {
                // Seeded fold: f/[seed; list].
                let mut acc = args[0].clone();
                let list = &args[1];
                let n = list.len().ok_or_else(|| QError::type_err("fold: need a list"))?;
                let mut trace = vec![];
                for i in 0..n {
                    acc = call2(self, acc, list.index(i).unwrap())?;
                    if adverb == Adverb::Scan {
                        trace.push(acc.clone());
                    }
                }
                Ok(if adverb == Adverb::Scan { Value::from_elements(trace) } else { acc })
            }
            (Adverb::Each, 1) => {
                let list = &args[0];
                let n = list.len().ok_or_else(|| QError::type_err("each: need a list"))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let item = list.index(i).unwrap();
                    let r = match verb {
                        Expr::Var(op) if is_operator_glyph(op) => ops::monad(op, &item)?,
                        Expr::Var(name) if self.env.lookup(name).is_none() => {
                            self.call_builtin(name, vec![item])?
                        }
                        _ => {
                            let f = self.eval(verb)?;
                            self.apply_value(&f, vec![item])?
                        }
                    };
                    out.push(r);
                }
                Ok(Value::from_elements(out))
            }
            (Adverb::Each, 2) => {
                // x f' y — pairwise.
                let (a, b) = (&args[0], &args[1]);
                let n = a.len().or(b.len()).ok_or_else(|| QError::type_err("each: need lists"))?;
                let get = |v: &Value, i: usize| -> Value {
                    if v.is_atom() {
                        v.clone()
                    } else {
                        v.index(i).unwrap_or(Value::Nil)
                    }
                };
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(call2(self, get(a, i), get(b, i))?);
                }
                Ok(Value::from_elements(out))
            }
            (Adverb::EachLeft, 2) => {
                let (a, b) = (&args[0], &args[1]);
                let n = a.len().ok_or_else(|| QError::type_err("\\: needs a left list"))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(call2(self, a.index(i).unwrap(), b.clone())?);
                }
                Ok(Value::from_elements(out))
            }
            (Adverb::EachRight, 2) => {
                let (a, b) = (&args[0], &args[1]);
                let n = b.len().ok_or_else(|| QError::type_err("/: needs a right list"))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(call2(self, a.clone(), b.index(i).unwrap())?);
                }
                Ok(Value::from_elements(out))
            }
            (Adverb::EachPrior, 1) => {
                let list = &args[0];
                let n = list.len().ok_or_else(|| QError::type_err("': needs a list"))?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    if i == 0 {
                        out.push(list.index(0).unwrap());
                    } else {
                        out.push(call2(self, list.index(i).unwrap(), list.index(i - 1).unwrap())?);
                    }
                }
                Ok(Value::from_elements(out))
            }
            (adv, n) => Err(QError::rank(format!("adverb {adv} applied to {n} arguments"))),
        }
    }

    /// Apply a first-class value (lambda, table, list, dict) to arguments.
    pub fn apply_value(&mut self, f: &Value, args: Vec<Value>) -> QResult<Value> {
        match f {
            Value::Lambda(def) => self.invoke_lambda(def, args),
            // Indexing tables/lists/dicts by application.
            Value::Table(_) | Value::Dict(_) | Value::KeyedTable(_) => {
                if args.len() != 1 {
                    return Err(QError::rank("indexing takes one argument"));
                }
                match f {
                    Value::KeyedTable(k) => keyed_lookup(k, &args[0]),
                    _ => ops::dyad("@", f, &args[0]),
                }
            }
            _ if f.len().is_some() => {
                if args.len() != 1 {
                    return Err(QError::rank("indexing takes one argument"));
                }
                ops::dyad("@", f, &args[0])
            }
            other => Err(QError::type_err(format!("cannot apply {}", other.type_name()))),
        }
    }

    /// Invoke a lambda: fresh local frame, parameters bound (implicit
    /// `x`/`y`/`z` when none declared), body evaluated statement by
    /// statement, early `:return` honoured.
    fn invoke_lambda(&mut self, def: &LambdaDef, args: Vec<Value>) -> QResult<Value> {
        let params: Vec<String> = if def.params.is_empty() {
            ["x", "y", "z"].iter().take(args.len()).map(|s| s.to_string()).collect()
        } else {
            def.params.clone()
        };
        if args.len() > params.len() {
            return Err(QError::rank(format!(
                "function takes {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        self.env.push_frame();
        for (p, a) in params.iter().zip(args) {
            self.env.assign(p.clone(), a);
        }
        let mut result = Value::Nil;
        for stmt in &def.body {
            match self.eval(stmt) {
                Ok(v) => {
                    result = v;
                    if self.returning {
                        self.returning = false;
                        break;
                    }
                }
                Err(e) => {
                    self.env.pop_frame();
                    return Err(e);
                }
            }
        }
        self.env.pop_frame();
        Ok(result)
    }

    /// Dispatch a named builtin.
    pub fn call_builtin(&mut self, name: &str, mut args: Vec<Value>) -> QResult<Value> {
        // Monadic builtins.
        if args.len() == 1 {
            let a = args.pop().unwrap();
            return match name {
                "til" => builtins::til(&a),
                "count" => builtins::count(&a),
                "first" => builtins::first(&a),
                "last" => builtins::last(&a),
                "sum" => builtins::sum(&a),
                "avg" => builtins::avg(&a),
                "min" => builtins::min(&a),
                "max" => builtins::max(&a),
                "med" => builtins::med(&a),
                "dev" => builtins::dev(&a),
                "var" => builtins::var(&a),
                "sdev" => builtins::sdev(&a),
                "svar" => builtins::svar(&a),
                "sums" => builtins::sums(&a),
                "deltas" => builtins::deltas(&a),
                "prev" => builtins::prev(&a),
                "next" => builtins::next(&a),
                "where" => builtins::where_op(&a),
                "distinct" => builtins::distinct(&a),
                "group" => builtins::group(&a),
                "reverse" => builtins::reverse(&a),
                "asc" => builtins::asc(&a),
                "desc" => builtins::desc(&a),
                "iasc" => builtins::iasc(&a),
                "idesc" => builtins::idesc(&a),
                "raze" => builtins::raze(&a),
                "enlist" => Ok(a.enlist()),
                "flip" => builtins::flip(&a),
                "key" => builtins::key(&a),
                "value" => builtins::value(&a),
                "cols" => builtins::cols(&a),
                "meta" => builtins::meta(&a),
                "ungroup" => builtins::unkey(&a),
                "not" => builtins::not(&a),
                "null" => builtins::null(&a),
                "abs" | "neg" | "sqrt" | "exp" | "log" | "floor" | "ceiling" | "signum" => {
                    builtins::numeric_monad(name, &a)
                }
                "string" => builtins::string(&a),
                "upper" | "lower" => builtins::case_fn(name, &a),
                "type" => builtins::type_of(&a),
                "get" => match &a {
                    Value::Atom(Atom::Symbol(s)) => self.resolve(s),
                    _ => Err(QError::type_err("get: need a symbol")),
                },
                _ => {
                    if let Some(v) = self.env.lookup(name) {
                        let v = v.clone();
                        self.apply_value(&v, vec![a])
                    } else {
                        Err(QError::undefined(name))
                    }
                }
            };
        }
        // Polyadic builtins.
        match (name, args.len()) {
            ("enlist", _) => Ok(Value::Mixed(args)),
            ("aj", 3) => {
                let cols = symbol_list(&args[0], "aj")?;
                let left = expect_table(&args[1], "aj")?;
                let right = expect_table(&args[2], "aj")?;
                Ok(Value::Table(Box::new(joins::aj(&cols, &left, &right)?)))
            }
            ("ej", 3) => {
                // Equi-join: ej[cols; t1; t2] — inner join on named columns.
                let cols = symbol_list(&args[0], "ej")?;
                let left = expect_table(&args[1], "ej")?;
                let right = expect_table(&args[2], "ej")?;
                let keyed = joins::xkey(&cols, &right)?;
                match keyed {
                    Value::KeyedTable(k) => Ok(Value::Table(Box::new(joins::ij(&left, &k)?))),
                    _ => unreachable!(),
                }
            }
            (_, n) => {
                if let Some(v) = self.env.lookup(name) {
                    let v = v.clone();
                    self.apply_value(&v, args)
                } else {
                    Err(QError::rank(format!("{name} applied to {n} arguments")))
                }
            }
        }
    }
}

/// Is this string an operator glyph (vs a named function)?
fn is_operator_glyph(s: &str) -> bool {
    matches!(
        s,
        "+" | "-" | "*" | "%" | "&" | "|" | "^" | "=" | "<" | ">" | "<=" | ">=" | "<>" | "~"
            | "!" | "?" | "@" | "." | "#" | "_" | "$" | ","
    )
}

/// Lookup into a keyed table by key value (dict-like application).
fn keyed_lookup(k: &qlang::KeyedTable, key: &Value) -> QResult<Value> {
    use crate::joins::KeyAtom;
    let target: Vec<KeyAtom> = match key {
        Value::Dict(d) => {
            let n = d.len();
            (0..n).map(|i| KeyAtom::from_value(&d.values.index(i).unwrap())).collect()
        }
        Value::Atom(_) => vec![KeyAtom::from_value(key)],
        other => {
            let n = other.len().unwrap_or(0);
            (0..n).map(|i| KeyAtom::from_value(&other.index(i).unwrap())).collect()
        }
    };
    for row in 0..k.key.rows() {
        let rk: Vec<KeyAtom> = k
            .key
            .columns
            .iter()
            .map(|c| KeyAtom::from_value(&c.index(row).unwrap()))
            .collect();
        if rk == target {
            let d = qlang::Dict::new(
                Value::Symbols(k.value.names.clone()),
                Value::Mixed(k.value.row(row)),
            )?;
            return Ok(Value::Dict(Box::new(d)));
        }
    }
    // Miss: dict of nulls.
    let d = qlang::Dict::new(
        Value::Symbols(k.value.names.clone()),
        Value::Mixed(k.value.columns.iter().map(|c| c.null_element()).collect()),
    )?;
    Ok(Value::Dict(Box::new(d)))
}

/// `x cross y` — cartesian product of two lists or tables.
fn cross(a: &Value, b: &Value) -> QResult<Value> {
    let na = a.len().ok_or_else(|| QError::type_err("cross: need lists"))?;
    let nb = b.len().ok_or_else(|| QError::type_err("cross: need lists"))?;
    let mut out = Vec::with_capacity(na * nb);
    for i in 0..na {
        for j in 0..nb {
            out.push(Value::Mixed(vec![a.index(i).unwrap(), b.index(j).unwrap()]));
        }
    }
    Ok(Value::Mixed(out))
}

/// `list bin x` — index of the last element ≤ x (binary search); `binr`
/// finds the first element ≥ x.
fn bin_search(list: &Value, x: &Value, last_le: bool) -> QResult<Value> {
    let n = list.len().ok_or_else(|| QError::type_err("bin: need a sorted list"))?;
    let one = |needle: &Value| -> i64 {
        let needle_atom = match needle {
            Value::Atom(a) => a.clone(),
            _ => return -1,
        };
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let v = match list.index(mid) {
                Some(Value::Atom(a)) => a,
                _ => return -1,
            };
            let le = v.q_cmp(&needle_atom) != std::cmp::Ordering::Greater;
            if le {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if last_le {
            lo as i64 - 1
        } else {
            lo as i64
        }
    };
    match x {
        Value::Atom(_) => Ok(Value::long(one(x))),
        _ => {
            let m = x.len().unwrap_or(0);
            Ok(Value::Longs((0..m).map(|i| one(&x.index(i).unwrap())).collect()))
        }
    }
}

/// `` `type$x`` — cast.
fn cast(target: &Value, v: &Value) -> QResult<Value> {
    let t = match target {
        Value::Atom(Atom::Symbol(s)) => s.clone(),
        _ => return Err(QError::type_err("$: cast target must be a symbol")),
    };
    let cast_atom = |a: &Atom| -> QResult<Atom> {
        if a.is_null() {
            // Null casts to the target's null.
            return Ok(match t.as_str() {
                "long" | "int" | "short" => Atom::Long(i64::MIN),
                "float" | "real" => Atom::Float(f64::NAN),
                "symbol" => Atom::Symbol(String::new()),
                "date" => Atom::Date(i32::MIN),
                "time" => Atom::Time(i32::MIN),
                "timestamp" => Atom::Timestamp(i64::MIN),
                _ => a.clone(),
            });
        }
        Ok(match t.as_str() {
            "long" | "int" | "short" => Atom::Long(
                a.as_i64()
                    .or_else(|| a.as_f64().map(|f| f as i64))
                    .ok_or_else(|| QError::type_err("$: cannot cast to long"))?,
            ),
            "float" | "real" => Atom::Float(
                a.as_f64().ok_or_else(|| QError::type_err("$: cannot cast to float"))?,
            ),
            "symbol" => Atom::Symbol(match a {
                Atom::Symbol(s) => s.clone(),
                other => other.to_string(),
            }),
            "boolean" => Atom::Bool(a.as_f64().map(|f| f != 0.0).unwrap_or(false)),
            "date" => match a {
                Atom::Timestamp(ns) => Atom::Date(qlang::temporal::timestamp_to_date(*ns)),
                Atom::Date(d) => Atom::Date(*d),
                other => Atom::Date(
                    other.as_i64().ok_or_else(|| QError::type_err("$: bad date cast"))? as i32,
                ),
            },
            "time" => match a {
                Atom::Timestamp(ns) => Atom::Time(qlang::temporal::timestamp_to_time(*ns)),
                Atom::Time(t) => Atom::Time(*t),
                other => Atom::Time(
                    other.as_i64().ok_or_else(|| QError::type_err("$: bad time cast"))? as i32,
                ),
            },
            "timestamp" => match a {
                Atom::Date(d) => Atom::Timestamp(qlang::temporal::date_to_timestamp(*d)),
                Atom::Timestamp(ts) => Atom::Timestamp(*ts),
                other => Atom::Timestamp(
                    other.as_i64().ok_or_else(|| QError::type_err("$: bad timestamp cast"))?,
                ),
            },
            "string" => {
                return Err(QError::type_err("$: cast to string not supported on atoms"))
            }
            other => return Err(QError::domain(format!("$: unknown cast target {other}"))),
        })
    };
    match v {
        Value::Atom(a) => Ok(Value::Atom(cast_atom(a)?)),
        Value::Chars(s) if t == "symbol" => Ok(Value::symbol(s.clone())),
        _ => {
            let n = v.len().ok_or_else(|| QError::type_err("$: bad cast operand"))?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match v.index(i) {
                    Some(Value::Atom(a)) => out.push(Value::Atom(cast_atom(&a)?)),
                    Some(other) => out.push(cast(target, &other)?),
                    None => {}
                }
            }
            Ok(Value::from_elements(out))
        }
    }
}

/// Assign into a list/table variable at the given indices.
fn index_assign(current: &Value, indices: &[Value], v: &Value) -> QResult<Value> {
    if indices.len() != 1 {
        return Err(QError::rank("indexed assignment takes one index"));
    }
    let n = current
        .len()
        .ok_or_else(|| QError::type_err("indexed assignment needs a list target"))?;
    let positions: Vec<usize> = match &indices[0] {
        Value::Atom(a) => {
            vec![a.as_i64().ok_or_else(|| QError::type_err("bad index"))? as usize]
        }
        other => {
            let m = other.len().unwrap_or(0);
            (0..m)
                .filter_map(|i| match other.index(i) {
                    Some(Value::Atom(a)) => a.as_i64().map(|x| x as usize),
                    _ => None,
                })
                .collect()
        }
    };
    let mut elems: Vec<Value> = (0..n).map(|i| current.index(i).unwrap()).collect();
    for (k, &p) in positions.iter().enumerate() {
        if p >= n {
            return Err(QError::length("index out of range"));
        }
        let newv = if v.is_atom() || positions.len() == 1 {
            v.clone()
        } else {
            v.index(k).unwrap_or(Value::Nil)
        };
        elems[p] = newv;
    }
    Ok(Value::from_elements(elems))
}

/// Coerce a value to a list of symbols.
pub fn symbol_list(v: &Value, ctx: &str) -> QResult<Vec<String>> {
    match v {
        Value::Atom(Atom::Symbol(s)) => Ok(vec![s.clone()]),
        Value::Symbols(ss) => Ok(ss.clone()),
        _ => Err(QError::type_err(format!("{ctx}: expected symbol(s), got {}", v.type_name()))),
    }
}

/// Coerce a value to a table (keyed tables are flattened).
pub fn expect_table(v: &Value, ctx: &str) -> QResult<Table> {
    match v {
        Value::Table(t) => Ok(t.as_ref().clone()),
        Value::KeyedTable(k) => Ok(Table {
            names: k.key.names.iter().chain(&k.value.names).cloned().collect(),
            columns: k.key.columns.iter().chain(&k.value.columns).cloned().collect(),
        }),
        _ => Err(QError::type_err(format!("{ctx}: expected table, got {}", v.type_name()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Value {
        Interp::new().run(src).unwrap_or_else(|e| panic!("run {src:?} failed: {e}"))
    }

    #[test]
    fn arithmetic_right_to_left() {
        assert!(run("2*3+4").q_eq(&Value::long(14)));
        assert!(run("10-3-2").q_eq(&Value::long(9)), "10-(3-2)");
    }

    #[test]
    fn variables_and_reassignment() {
        let mut i = Interp::new();
        i.run("x: 1").unwrap();
        i.run("x: 1 2 3").unwrap();
        // Paper §3.2.1: x can be rebound to any type.
        assert!(i.run("x").unwrap().q_eq(&Value::Longs(vec![1, 2, 3])));
        i.run("x: `sym").unwrap();
        assert!(i.run("x").unwrap().q_eq(&Value::symbol("sym")));
    }

    #[test]
    fn undefined_variable_errors() {
        let e = Interp::new().run("nosuch + 1").unwrap_err();
        assert_eq!(e.kind, qlang::error::QErrorKind::Value);
    }

    #[test]
    fn builtins_apply_by_juxtaposition() {
        assert!(run("til 5").q_eq(&Value::Longs(vec![0, 1, 2, 3, 4])));
        assert!(run("count 1 2 3").q_eq(&Value::long(3)));
        assert!(run("sum til 5").q_eq(&Value::long(10)));
        assert!(run("max 3 1 4").q_eq(&Value::Atom(Atom::Long(4))));
        assert!(run("avg 1 2 3").q_eq(&Value::float(2.0)));
    }

    #[test]
    fn lambda_invocation_and_locals() {
        let mut i = Interp::new();
        i.run("f: {[a;b] c: a+b; c*2}").unwrap();
        assert!(i.run("f[3;4]").unwrap().q_eq(&Value::long(14)));
        // Local c must not leak.
        assert!(i.run("c").is_err());
    }

    #[test]
    fn implicit_parameters() {
        assert!(run("{x+y}[3;4]").q_eq(&Value::long(7)));
        assert!(run("{2*x} 5").q_eq(&Value::long(10)));
    }

    #[test]
    fn early_return() {
        assert!(run("{:x+1; 99} 5").q_eq(&Value::long(6)));
    }

    #[test]
    fn locals_shadow_globals_paper_semantics() {
        let mut i = Interp::new();
        i.run("x: 100").unwrap();
        assert!(i.run("{x: 5; x} 0").unwrap().q_eq(&Value::long(5)));
        assert!(i.run("x").unwrap().q_eq(&Value::long(100)));
    }

    #[test]
    fn global_assignment_escapes_function() {
        let mut i = Interp::new();
        i.run("{g:: 42; 0} 0").unwrap();
        assert!(i.run("g").unwrap().q_eq(&Value::long(42)));
    }

    #[test]
    fn conditional_evaluation() {
        assert!(run("$[1>0; `yes; `no]").q_eq(&Value::symbol("yes")));
        assert!(run("$[1<0; `yes; `no]").q_eq(&Value::symbol("no")));
        // Multi-branch.
        assert!(run("$[0; `a; 1; `b; `c]").q_eq(&Value::symbol("b")));
    }

    #[test]
    fn adverb_fold_and_scan() {
        assert!(run("+/ 1 2 3 4").q_eq(&Value::long(10)));
        assert!(run("+\\ 1 2 3").q_eq(&Value::Longs(vec![1, 3, 6])));
        assert!(run("*/ 1 2 3 4").q_eq(&Value::long(24)));
    }

    #[test]
    fn adverb_each() {
        assert!(run("{x*x}' 1 2 3").q_eq(&Value::Longs(vec![1, 4, 9])));
    }

    #[test]
    fn each_left_right() {
        assert!(run("1 2 +\\: 10").q_eq(&Value::Longs(vec![11, 12])));
        assert!(run("10 +/: 1 2").q_eq(&Value::Longs(vec![11, 12])));
    }

    #[test]
    fn table_literal_and_indexing() {
        let v = run("t: ([] s:`a`b; p:1 2); t");
        match v {
            Value::Table(t) => {
                assert_eq!(t.rows(), 2);
                assert_eq!(t.names, vec!["s".to_string(), "p".into()]);
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn table_literal_broadcasts_atoms() {
        let v = run("([] s:`a`b`c; p:0)");
        match v {
            Value::Table(t) => {
                assert!(t.column("p").unwrap().q_eq(&Value::Longs(vec![0, 0, 0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn keyed_table_literal_and_lookup() {
        let v = run("kt: ([s:`a`b] p:10 20); kt[`b]");
        match v {
            Value::Dict(d) => assert!(d.get(&Value::symbol("p")).q_eq(&Value::long(20))),
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn dict_construction_and_lookup() {
        assert!(run("d: `a`b!1 2; d[`a]").q_eq(&Value::long(1)));
    }

    #[test]
    fn casting() {
        assert!(run("`float$3").q_eq(&Value::float(3.0)));
        assert!(run("`long$3.7").q_eq(&Value::long(3)));
        assert!(run("`symbol$\"abc\"").q_eq(&Value::symbol("abc")));
    }

    #[test]
    fn set_and_get() {
        let mut i = Interp::new();
        i.run("`tbl set ([] a:1 2)").unwrap();
        let v = i.run("get `tbl").unwrap();
        assert!(matches!(v, Value::Table(_)));
    }

    #[test]
    fn bin_finds_last_le() {
        assert!(run("1 3 5 7 bin 4").q_eq(&Value::long(1)));
        assert!(run("1 3 5 7 bin 0").q_eq(&Value::long(-1)));
        assert!(run("1 3 5 7 bin 7").q_eq(&Value::long(3)));
    }

    #[test]
    fn except_inter_union() {
        assert!(run("1 2 3 except 2").q_eq(&Value::Longs(vec![1, 3])));
        assert!(run("1 2 3 inter 2 3 4").q_eq(&Value::Longs(vec![2, 3])));
        assert!(run("1 2 union 2 3").q_eq(&Value::Longs(vec![1, 2, 3])));
    }

    #[test]
    fn index_assignment_updates_in_place() {
        let mut i = Interp::new();
        i.run("v: 1 2 3").unwrap();
        i.run("v[1]: 99").unwrap();
        assert!(i.run("v").unwrap().q_eq(&Value::Longs(vec![1, 99, 3])));
    }

    #[test]
    fn right_to_left_argument_evaluation() {
        // kdb+ evaluates the right argument first: the assignment in the
        // right operand is visible to the left operand.
        let mut i = Interp::new();
        let v = i.run("(x*2) + x: 10").unwrap();
        assert!(v.q_eq(&Value::long(30)));
    }

    #[test]
    fn aj_via_builtin_call() {
        let mut i = Interp::new();
        i.run("trades: ([] Symbol:`G`G; Time:10:00:00 10:05:00; Price:1.0 2.0)").unwrap();
        i.run("quotes: ([] Symbol:`G`G; Time:09:59:00 10:04:00; Bid:0.9 1.9)").unwrap();
        let v = i.run("aj[`Symbol`Time; trades; quotes]").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Bid").unwrap().q_eq(&Value::Floats(vec![0.9, 1.9])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn string_function() {
        assert!(run("string `GOOG").q_eq(&Value::Chars("GOOG".into())));
    }

    #[test]
    fn enlist_builds_singleton() {
        assert!(run("enlist 5").q_eq(&Value::Longs(vec![5])));
    }

    #[test]
    fn each_prior_pairwise() {
        // (-':) style: subtract each prior element.
        assert!(run("-': 1 3 6").q_eq(&Value::Longs(vec![1, 2, 3])));
    }

    #[test]
    fn seeded_fold() {
        assert!(run("+/[100; 1 2 3]").q_eq(&Value::long(106)));
        assert!(run("+\\[0; 1 2 3]").q_eq(&Value::Longs(vec![1, 3, 6])));
    }

    #[test]
    fn take_from_table_end() {
        let mut i = Interp::new();
        i.run("t: ([] x: 1 2 3 4 5)").unwrap();
        let v = i.run("-2#t").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("x").unwrap().q_eq(&Value::Longs(vec![4, 5])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn prev_next_builtins() {
        let v = run("prev 1 2 3");
        match v {
            Value::Longs(x) => assert_eq!(&x[1..], &[1, 2]),
            other => panic!("expected longs, got {other:?}"),
        }
        let v = run("next 1 2 3");
        match v {
            Value::Longs(x) => assert_eq!(&x[..2], &[2, 3]),
            other => panic!("expected longs, got {other:?}"),
        }
    }

    #[test]
    fn xbar_buckets() {
        assert!(run("5 xbar 0 3 5 7 12").q_eq(&Value::Longs(vec![0, 0, 5, 5, 10])));
    }

    #[test]
    fn cross_product() {
        let v = run("1 2 cross `a`b");
        assert_eq!(v.len(), Some(4));
    }
}
