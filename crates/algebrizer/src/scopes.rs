//! Binder-side variable scopes (paper Figure 3).
//!
//! Unlike the engine's scopes, which hold *values*, the binder's scopes
//! hold *definitions*: references to backend tables, logical views
//! (bound XTRA trees), constant scalars/lists kept in Hyper-Q's variable
//! store, and function bodies stored as source text for re-algebrization
//! at invocation time (paper §4.3).

use crate::mdi::TableMeta;
use qlang::ast::LambdaDef;
use std::collections::HashMap;
use xtra::{Datum, RelNode};

/// What a name is bound to.
#[derive(Debug, Clone, PartialEq)]
pub enum VarDef {
    /// A physical backend table (base table or materialized temp table).
    TableRef(TableMeta),
    /// A *logical* materialization: the defining XTRA tree is inlined at
    /// every reference (paper §4.3, "using PG views, or maintaining the
    /// variable definition ... in Hyper-Q's variable store").
    View(RelNode),
    /// A scalar constant held in Hyper-Q's variable store.
    Scalar(Datum),
    /// A constant list (e.g. a symbol list used with `in`).
    List(Vec<Datum>),
    /// A function, stored as parsed definition + source text.
    Function(LambdaDef),
}

/// The three-level scope hierarchy: local frames → session → server.
#[derive(Debug, Default, Clone)]
pub struct Scopes {
    server: HashMap<String, VarDef>,
    session: HashMap<String, VarDef>,
    locals: Vec<HashMap<String, VarDef>>,
}

impl Scopes {
    /// Create an empty hierarchy.
    pub fn new() -> Self {
        Scopes::default()
    }

    /// Lookup walking local frames innermost-out, then session, then
    /// server. Returns `None` when the name must be resolved through the
    /// MDI (the bottom of Figure 3).
    pub fn lookup(&self, name: &str) -> Option<&VarDef> {
        for frame in self.locals.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Some(v);
            }
        }
        self.session.get(name).or_else(|| self.server.get(name))
    }

    /// Upsert: local frame when inside a function, session otherwise.
    /// Local upserts never get promoted to higher scopes.
    pub fn upsert(&mut self, name: impl Into<String>, def: VarDef) {
        if let Some(frame) = self.locals.last_mut() {
            frame.insert(name.into(), def);
        } else {
            self.session.insert(name.into(), def);
        }
    }

    /// Global (`::`) upsert straight into the server scope.
    pub fn upsert_global(&mut self, name: impl Into<String>, def: VarDef) {
        self.server.insert(name.into(), def);
    }

    /// Enter a function body.
    pub fn push_frame(&mut self) {
        self.locals.push(HashMap::new());
    }

    /// Leave a function body, discarding its locals.
    pub fn pop_frame(&mut self) {
        self.locals.pop();
    }

    /// Are we inside a function?
    pub fn in_function(&self) -> bool {
        !self.locals.is_empty()
    }

    /// Session destruction: session variables are promoted to server
    /// scope (paper §3.2.3).
    pub fn end_session(&mut self) {
        let drained: Vec<(String, VarDef)> = self.session.drain().collect();
        for (k, v) in drained {
            self.server.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtra::Datum;

    #[test]
    fn lookup_prefers_inner_scopes() {
        let mut s = Scopes::new();
        s.upsert_global("x", VarDef::Scalar(Datum::I64(1)));
        s.upsert("x", VarDef::Scalar(Datum::I64(2))); // session
        s.push_frame();
        s.upsert("x", VarDef::Scalar(Datum::I64(3))); // local
        assert_eq!(s.lookup("x"), Some(&VarDef::Scalar(Datum::I64(3))));
        s.pop_frame();
        assert_eq!(s.lookup("x"), Some(&VarDef::Scalar(Datum::I64(2))));
    }

    #[test]
    fn locals_never_promote() {
        let mut s = Scopes::new();
        s.push_frame();
        s.upsert("loc", VarDef::Scalar(Datum::I64(1)));
        s.pop_frame();
        assert!(s.lookup("loc").is_none());
    }

    #[test]
    fn session_promotes_on_destruction() {
        let mut s = Scopes::new();
        s.upsert("v", VarDef::Scalar(Datum::Bool(true)));
        s.end_session();
        assert!(s.lookup("v").is_some());
        // A later session upsert shadows the promoted server variable.
        s.upsert("v", VarDef::Scalar(Datum::Bool(false)));
        assert_eq!(s.lookup("v"), Some(&VarDef::Scalar(Datum::Bool(false))));
    }

    #[test]
    fn in_function_tracks_frames() {
        let mut s = Scopes::new();
        assert!(!s.in_function());
        s.push_frame();
        assert!(s.in_function());
        s.pop_frame();
        assert!(!s.in_function());
    }
}
