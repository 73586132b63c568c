//! Side-by-side validation: the paper's §5 correctness framework.
//!
//! ```sh
//! cargo run --example side_by_side
//! ```
//!
//! The same market data is loaded into the reference Q engine (the kdb+
//! stand-in) and into the SQL backend through Hyper-Q; the workload runs
//! as one program on both arms of a differential-matrix row
//! (`hyperq::side_by_side::Matrix`, the driver every differential test
//! and the fuzz loop use), and every statement's results are diffed
//! under Q equality. "We needed a way to ensure the exact same behavior
//! to the application as before" — this is that tool.

use hyperq::side_by_side::{Arm, Baseline, Matrix, Rule};
use hyperq::SessionConfig;
use hyperq_workload::taq::{generate_trades, TaqConfig};

fn main() {
    let trades = generate_trades(&TaqConfig { rows: 400, symbols: 4, days: 2, seed: 7 });
    let workload = [
        "select from trades",
        "select Price, Size from trades where Symbol=`GOOG",
        "select Price from trades where Date=2016.06.26, Symbol in `GOOG`IBM",
        "select mx: max Price, mn: min Price, vwap: (sum Price*Size) % sum Size from trades",
        "select n: count i, avgPx: avg Price by Symbol from trades",
        "select s: sum Size by Date from trades",
        "update Notional: Price*Size from trades where Symbol=`IBM",
        "delete from trades where Size < 1000",
        "`Price xdesc trades",
        "SYMS: `GOOG`MSFT; select from trades where Symbol in SYMS",
        "f: {[s] dt: select Price from trades where Symbol=s; :select max Price from dt}; f[`GOOG]",
        "exec avg Price by Symbol from trades",
        "2#trades",
        "select from trades where Price within 40.0 80.0",
    ];

    let arms = [Arm::Qengine, Arm::Session(SessionConfig::default())];
    let report = Matrix::new(&arms, Rule::Reference, 1)
        .statements(&[("trades".into(), trades)], &[(&workload, Baseline::Succeeds)]);
    for failure in &report.failures {
        println!("FAILURE   {failure}");
    }
    let mut passed = 0;
    for (index, (q, outcomes)) in workload.iter().zip(&report.outcomes).enumerate() {
        let divergence = report.divergences.iter().find(|d| d.index == index);
        match divergence {
            None if outcomes[0].value().is_some() => {
                passed += 1;
                println!("MATCH     {q}");
            }
            None => println!("ERROR     {q}\n  -> {:?}", outcomes[0]),
            Some(d) => println!("MISMATCH  {d}"),
        }
    }
    println!("\n{passed}/{} queries behave identically on kdb+-reference and Hyper-Q paths", workload.len());
    if passed != workload.len() {
        std::process::exit(1);
    }
}
