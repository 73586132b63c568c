//! A differential row's arms stop the servers they start: a row over
//! many chunks, with PG wire and parked endpoint arms rebuilt for each
//! chunk, leaves the process with the threads it started with.
//!
//! One test function, in a test binary of its own: sibling tests would
//! start and stop threads of their own while this one counts.

use hyperq::side_by_side::{Arm, Matrix, Rule};
use hyperq::SessionConfig;
use qlang::value::{Table, Value};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// One chunk of a row: its tables and its programs.
type Chunk = (Vec<(String, Table)>, Vec<Vec<String>>);

/// `n` chunks of one small table and one three-statement program each.
fn chunks(n: i64) -> Vec<Chunk> {
    let program: Vec<String> =
        ["select from t", "select s: sum V by S from t", "exec V from t where S=`a"]
            .map(String::from)
            .to_vec();
    (0..n)
        .map(|i| {
            let t = Table::new(
                vec!["S".into(), "V".into()],
                vec![
                    Value::Symbols(vec!["a".into(), "b".into(), "a".into()]),
                    Value::Longs(vec![i, i + 1, i + 2]),
                ],
            )
            .unwrap();
            (vec![("t".to_string(), t)], vec![program.clone()])
        })
        .collect()
}

#[test]
fn a_row_with_server_arms_gives_back_every_thread_it_started() {
    let arms = [Arm::Session(SessionConfig::default()), Arm::Wire, Arm::Parked, Arm::ParkedWire];
    let row = || Matrix::new(&arms, Rule::SameErrors, 1);
    // One chunk first, so whatever starts once per process has started.
    row().slice(chunks(1)).assert_clean(6 * 3);
    let before = threads();
    // Each chunk starts two PG servers and two endpoints: 20 threads at
    // the default widths.
    row().slice(chunks(8)).assert_clean(8 * 6 * 3);
    let after = threads();
    assert!(after <= before + 2, "{before} threads before the row, {after} after it");
}
