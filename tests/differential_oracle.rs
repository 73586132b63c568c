//! Differential oracle suite: the paper's §5 side-by-side framework
//! wielded as a broad oracle. Every oracle statement runs on the
//! reference Q interpreter and through the full Hyper-Q translate → SQL
//! → pgdb pipeline, and the two must agree — with the translation cache
//! on, off, and hit on a second pass; and a session over the PG v3 wire
//! must answer exactly what an in-process one does.

mod common;

use common::corpus::{
    big, fixture, BIG_PROBES, ERROR_PROBES, JOIN_ERROR_PROBES, JOIN_SHAPES, ORACLE, TYPE_SHAPES,
};
use hyperq::side_by_side::{Arm, Baseline, Matrix, Rule};
use hyperq::SessionConfig;

fn session(translation_cache: usize) -> Arm {
    Arm::Session(SessionConfig { translation_cache, ..SessionConfig::default() })
}

#[test]
fn all_oracle_statements_agree_between_engines() {
    Matrix::new(&[Arm::Qengine, session(256)], Rule::Reference, 1)
        .statements(&fixture(), &[(ORACLE, Baseline::Succeeds)])
        .assert_clean(42);
}

/// The cached and uncached pipelines must be indistinguishable to the
/// application.
#[test]
fn oracle_statements_agree_with_translation_cache_disabled() {
    Matrix::new(&[Arm::Qengine, session(0)], Rule::Reference, 1)
        .statements(&fixture(), &[(ORACLE, Baseline::Succeeds)])
        .assert_clean(42);
}

/// The second pass (cache hits) answers what the first (cache misses)
/// did.
#[test]
fn oracle_statements_are_stable_across_repeated_execution() {
    Matrix::new(&[Arm::Qengine, session(256)], Rule::Reference, 2)
        .statements(&fixture(), &[(ORACLE, Baseline::Succeeds)])
        .assert_clean(84);
}

/// The result path over the PG v3 wire is the in-process one: every
/// oracle statement, error probe and one 70 000-row result comes back
/// with the `Value` an in-process session answers, bit for bit, and the
/// same error string — translation cache cold, then warm.
#[test]
fn oracle_statements_are_bit_identical_over_the_pg_wire() {
    let mut tables = fixture();
    tables.push(big());
    let reg = obs::global_registry();
    let binary = "hyperq_gateway_fields_decoded_total{format=\"binary\"}";
    let binary_before = reg.counter_value(binary);
    Matrix::new(&[session(256), Arm::Wire], Rule::Bits, 2)
        .statements(
            &tables,
            &[
                (ORACLE, Baseline::Succeeds),
                (ERROR_PROBES, Baseline::Fails),
                (BIG_PROBES, Baseline::Succeeds),
            ],
        )
        .assert_clean(92);
    assert!(
        reg.counter_value(binary) > binary_before,
        "the oracle's results must have crossed the wire in binary"
    );
}

/// The binder's narrowed path executes: statements over `ej` and `aj`
/// whose scans bind only the names a template reads answer what the
/// reference does.
#[test]
fn join_shapes_agree_between_engines() {
    Matrix::new(&[Arm::Qengine, session(256)], Rule::Reference, 1)
        .statements(
            &fixture(),
            &[(JOIN_SHAPES, Baseline::Succeeds), (JOIN_ERROR_PROBES, Baseline::Fails)],
        )
        .assert_clean(13);
}

/// Narrow against wide: a session whose templates bind only the names
/// they read answers what one binding every column (column pruning off)
/// does, error text verbatim.
#[test]
fn join_shapes_agree_with_column_pruning_off() {
    let mut wide = SessionConfig::default();
    wide.xform.column_pruning = false;
    Matrix::new(&[session(256), Arm::Session(wide)], Rule::SameErrors, 1)
        .statements(
            &fixture(),
            &[(JOIN_SHAPES, Baseline::Succeeds), (JOIN_ERROR_PROBES, Baseline::Fails)],
        )
        .assert_clean(13);
}

/// A column whose values have two types holds one: in process, over the
/// PG v3 wire, through a parked endpoint over the wire and through a
/// 2-shard router, each statement answers alike, error text verbatim.
/// The reference is not an arm: it answers general lists here.
#[test]
fn type_shapes_agree_across_connection_layers() {
    Matrix::new(&[session(256), Arm::Wire, Arm::ParkedWire, Arm::Router(2)], Rule::SameErrors, 1)
        .statements(&fixture(), &[(TYPE_SHAPES, Baseline::Succeeds)])
        .assert_clean(48);
}
