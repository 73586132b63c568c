//! Pass-by-pass differential gate for the Xformer (DESIGN §9).
//!
//! `XformConfig` has three switches — null logic, column pruning,
//! ordering elision — and `fuzz_differential` only ever runs them all
//! on. This suite runs the fixed-seed qgen slice through the
//! tri-executor `BatchDriver` at all eight settings, so a rewritten pass
//! that stops preserving semantics is caught pass by pass:
//!
//! * with null logic on (four settings), pruning and ordering elision
//!   are pure optimisations: turning either off may change the SQL text,
//!   never an answer — zero divergences;
//! * with null logic off (the other four), a statement may diverge only
//!   if its all-on translation reports at least one null rewrite (an
//!   equality the pass turns into `IS NOT DISTINCT FROM`); any other
//!   divergence means some other pass is carrying correctness.

use hyperq::{loader, BatchDriver, HyperQSession, SessionConfig};
use qgen::{gen_dataset, Coverage, Dataset, FuzzConfig, ProgramGen};
use qlang::value::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Programs per generated dataset, mirroring `qgen::run_fuzz`.
const PROGRAMS_PER_DATASET: usize = 10;
/// The slice: the first programs of `QGEN_SEED` (default 42).
const SLICE: usize = 200;

/// One dataset and the programs generated over it, in seed order.
struct Chunk {
    dataset: Dataset,
    programs: Vec<Vec<String>>,
}

fn slice(seed: u64) -> Vec<Chunk> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = ProgramGen::new();
    let mut coverage = Coverage::default();
    let mut chunks: Vec<Chunk> = Vec::new();
    for pi in 0..SLICE {
        if pi % PROGRAMS_PER_DATASET == 0 {
            chunks.push(Chunk { dataset: gen_dataset(&mut rng), programs: Vec::new() });
        }
        let chunk = chunks.last_mut().unwrap();
        let program = gen.gen_program(&mut rng, &chunk.dataset, &mut coverage);
        chunk.programs.push(program.render());
    }
    chunks
}

/// `null_rewrites` of each statement's all-on translation, in program
/// order (0 where translation fails), from a session that translates
/// without executing.
fn null_rewrites(tables: &[(String, Table)], program: &[String]) -> Vec<usize> {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct_config(&db, SessionConfig::default());
    for (name, table) in tables {
        loader::load_table(&mut s, name, table).unwrap();
    }
    program
        .iter()
        .map(|q| {
            s.translate_only(q)
                .map(|trs| trs.iter().map(|t| t.xform_report.null_rewrites).sum())
                .unwrap_or(0)
        })
        .collect()
}

fn config(null_logic: bool, column_pruning: bool, ordering: bool) -> SessionConfig {
    let mut cfg = SessionConfig { slow_query: std::time::Duration::ZERO, ..Default::default() };
    cfg.xform.null_logic = null_logic;
    cfg.xform.column_pruning = column_pruning;
    cfg.xform.ordering = ordering;
    cfg
}

#[test]
fn every_xform_setting_agrees_with_the_reference_outside_null_logic() {
    let seed = FuzzConfig::from_env().seed;
    let chunks = slice(seed);
    let rewrites: Vec<Vec<Vec<usize>>> = chunks
        .iter()
        .map(|c| c.programs.iter().map(|p| null_rewrites(&c.dataset.tables, p)).collect())
        .collect();

    let mut failures = Vec::new();
    let mut allowed = 0usize;
    for bits in 0..8u8 {
        let (null_logic, pruning, ordering) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let cfg = config(null_logic, pruning, ordering);
        let label = format!("null_logic={null_logic} pruning={pruning} ordering={ordering}");
        for (ci, chunk) in chunks.iter().enumerate() {
            let mut driver = BatchDriver::with_config(&chunk.dataset.tables, cfg.clone()).unwrap();
            for (pi, program) in chunk.programs.iter().enumerate() {
                let report = driver.run_program(program);
                if report.clean() {
                    continue;
                }
                for s in report.divergent() {
                    if !null_logic && rewrites[ci][pi][s.index] > 0 {
                        allowed += 1;
                        continue;
                    }
                    failures.push(format!(
                        "[{label}] program {} stmt {} `{}`: {:?}",
                        ci * PROGRAMS_PER_DATASET + pi,
                        s.index,
                        s.q,
                        s.divergences()
                    ));
                }
                // A divergent program may leave the executors in
                // different states; judge the next one from a clean slate.
                driver = BatchDriver::with_config(&chunk.dataset.tables, cfg.clone()).unwrap();
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s) not explained by null logic in {SLICE} programs at seed {seed} \
         ({allowed} explained):\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Null logic off must change some answer in the slice, or the
    // setting never reached the pipeline and the gate proves nothing.
    assert!(allowed > 0, "null logic off changed no answer in {SLICE} programs at seed {seed}");
}
