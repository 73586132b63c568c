//! Session-park differential: the connection layer must be *invisible*
//! — a Q application must get, through a socket, exactly what a session
//! in its own process would give it.
//!
//! The baseline is an in-process `HyperQSession` over the fixture, with
//! no connection layer at all. Two QIPC endpoints serve identical
//! fixtures beside it, both on a tiny worker pool — one over the
//! in-process engine, one whose sessions reach their data through a PG
//! v3 gateway connection to a `PgServer` — and every statement runs on
//! all three. The client pauses before each endpoint statement so the
//! endpoint sessions genuinely park in the poller and resume on a
//! (possibly different) worker each time. Results must agree
//! structurally, and failures must agree *verbatim*: identical error
//! strings, not merely matching error-ness. The result path over the
//! wire (binary `DataRow`s decoded into column vectors) is not allowed
//! to be observable either.
//!
//! Coverage is the repo's standing differential diet: the oracle
//! statements plus deliberate error probes, then a 200-program qgen
//! fuzz slice at a fixed seed.

mod common;

use common::corpus::{fixture, ERROR_PROBES, ORACLE};
use hyperq::side_by_side::{Arm, Baseline, Matrix, Rule};
use hyperq::SessionConfig;

fn arms() -> [Arm; 3] {
    [Arm::Session(SessionConfig::default()), Arm::Parked, Arm::ParkedWire]
}

/// The 42 oracle statements and 3 error probes, each on two endpoints
/// and compared across the three pairs of arms.
#[test]
fn oracle_is_bit_identical_through_parked_multiplexed_sessions() {
    let reg = obs::global_registry();
    let dispatches_before = reg.counter_value("net_dispatches_total");
    let report = Matrix::new(&arms(), Rule::SameErrors, 1)
        .statements(&fixture(), &[(ORACLE, Baseline::Succeeds), (ERROR_PROBES, Baseline::Fails)]);
    report.assert_clean(3 * 45);
    // Every statement on an endpoint connection was a park → dispatch →
    // re-park round trip, not a pinned thread.
    assert!(
        reg.counter_value("net_dispatches_total") - dispatches_before >= 2 * 45,
        "endpoint statements must each arrive as a scheduler dispatch"
    );
}

/// The slice's 664 statements, each on two endpoints and compared across
/// the three pairs of arms.
#[test]
fn fuzz_slice_agrees_between_connection_layers() {
    Matrix::new(&arms(), Rule::SameErrors, 1)
        .slice(qgen::slice(20260807, 200).map(qgen::Chunk::into_rendered))
        .assert_clean(3 * 664);
}
