//! Emit `BENCH_qgen.json`: throughput of the differential-fuzz
//! subsystem, so fuzz-budget sizing in CI rests on measured numbers.
//!
//!     cargo run --release --bin bench_qgen
//!
//! Measures wall clock for:
//! * **generation** — seeded datasets + grammar-driven programs, no
//!   execution (how fast the generator alone can feed the loop);
//! * **differential checking** — the fuzz row (reference interpreter,
//!   cache-cold session, cache-warm session; `qgen::fuzz::arms`) over a
//!   fixed budget, i.e. the per-program cost the CI gate pays. One pass
//!   takes a fifth of a second and single passes of one build spread by
//!   half their rate, so the row is timed [`CHECK_REPETITIONS`] times and
//!   the median is written with its quartiles.

use qgen::{slice, FuzzConfig, PROGRAMS_PER_DATASET};
use std::time::Instant;

const GEN_DATASETS: usize = 200;
const CHECK_BUDGET: usize = 200;
const CHECK_REPETITIONS: usize = 11;

/// The lower quartile, median and upper quartile of `xs` (nearest rank).
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: usize| xs[(q * (xs.len() - 1)).div_ceil(4)];
    [at(1), at(2), at(3)]
}

fn main() {
    // 1. Pure generation throughput: one dataset's worth of programs
    // from each of GEN_DATASETS seeds.
    let mut programs = 0usize;
    let mut statements = 0usize;
    let t0 = Instant::now();
    for seed in 0..GEN_DATASETS as u64 {
        for chunk in slice(seed, PROGRAMS_PER_DATASET) {
            programs += chunk.programs.len();
            statements += chunk.programs.iter().map(|p| p.stmts.len()).sum::<usize>();
            std::hint::black_box(&chunk);
        }
    }
    let gen_t = t0.elapsed();

    // 2. The fuzz row over a fixed budget, repeated. Same shape as the
    // CI gate (fresh arms every PROGRAMS_PER_DATASET programs), minus
    // shrinking — the clean-run path.
    let cfg = FuzzConfig { seed: 42, budget: CHECK_BUDGET, corpus_dir: None, shrink: false };
    let mut seconds = Vec::with_capacity(CHECK_REPETITIONS);
    let mut checked = (0, 0);
    for _ in 0..CHECK_REPETITIONS {
        let t0 = Instant::now();
        let report = qgen::run_fuzz(&cfg);
        seconds.push(t0.elapsed().as_secs_f64());
        assert_eq!(report.programs, CHECK_BUDGET);
        assert!(
            report.bugs.is_empty(),
            "bench expects a divergence-free run, got {} bug(s)",
            report.bugs.len()
        );
        checked = (report.programs, report.statements);
    }
    let rates = quartiles(seconds.iter().map(|s| CHECK_BUDGET as f64 / s).collect());
    let [_, median_s, _] = quartiles(seconds);

    // 3. Single-program check latency on a small fixed program, the
    // marginal cost of growing the budget by one.
    let (tables, programs_7) = slice(7, 1).next().expect("one chunk").into_rendered();
    let t0 = Instant::now();
    std::hint::black_box(qgen::fuzz::check(tables, programs_7));
    let single_t = t0.elapsed();

    let gen_rate = programs as f64 / gen_t.as_secs_f64();
    let json = format!(
        concat!(
            "{{\n",
            "  \"generation\": {{\"programs\": {}, \"statements\": {}, ",
            "\"seconds\": {:.6}, \"programs_per_s\": {:.1}}},\n",
            "  \"differential_check\": {{\"programs\": {}, \"statements\": {}, ",
            "\"repetitions\": {}, \"median_seconds\": {:.6}, ",
            "\"programs_per_s\": {:.1}, \"programs_per_s_q1\": {:.1}, ",
            "\"programs_per_s_q3\": {:.1}}},\n",
            "  \"single_program_check_s\": {:.6}\n",
            "}}\n"
        ),
        programs,
        statements,
        gen_t.as_secs_f64(),
        gen_rate,
        checked.0,
        checked.1,
        CHECK_REPETITIONS,
        median_s,
        rates[1],
        rates[0],
        rates[2],
        single_t.as_secs_f64(),
    );
    std::fs::write("BENCH_qgen.json", &json).expect("write BENCH_qgen.json");
    println!("wrote BENCH_qgen.json");
    println!(
        "generation: {gen_rate:.0} programs/s; differential check: {:.0} programs/s \
         (quartiles {:.0}–{:.0}, {CHECK_REPETITIONS} runs)",
        rates[1], rates[0], rates[2]
    );
}
