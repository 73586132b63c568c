//! Replay every checked-in corpus repro (`tests/corpus/*.q`) on the fuzz
//! row's arms (`qgen::fuzz::arms`) and require agreement.
//!
//! Checked-in repros are *fixed* bugs: each file pins a divergence the
//! differential fuzzer (or the PR-3 oracle suite) once caught, minimized
//! to a self-contained script. Replaying them on every test run turns
//! each past bug into a permanent regression gate.
//!
//! Every `.q` file in the corpus is replayed — there is no skip list.
//! (Historically, `found_`-prefixed files parked freshly-shrunk repros
//! for not-yet-fixed bugs; that backlog has been triaged to empty, and
//! the fuzzer's outputs now live only in CI artifacts until their bug
//! is fixed and a pinned, prefix-free repro lands here.)
//!
//! Replays are fully deterministic — data is inlined in each file and
//! the harness runs in-process, so no network or wall-clock enters.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn every_pinned_corpus_repro_replays_clean() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "q"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "corpus must contain at least the two pinned PR-3 repros"
    );
    assert!(
        entries.iter().all(|p| {
            !p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("found_"))
        }),
        "found_-prefixed repros are untriaged fuzzer output; fix the bug \
         and pin a prefix-free repro instead of checking them in"
    );

    let mut failures = Vec::new();
    for path in &entries {
        let repro = match qgen::load_repro(path) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        assert!(
            !repro.statements.is_empty(),
            "{}: no statements after the / --- separator",
            path.display()
        );
        match qgen::replay(&repro) {
            Ok(report) => {
                let divergences = report.divergences.iter().map(ToString::to_string);
                for line in report.failures.iter().cloned().chain(divergences) {
                    failures.push(format!("{}: {line}", path.display()));
                }
            }
            Err(e) => failures.push(format!("{}: replay error: {e}", path.display())),
        }
    }
    assert!(
        failures.is_empty(),
        "{} pinned repro failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn replay_is_deterministic_across_runs() {
    // Same file, two independent replays — identical outcome shape. This
    // guards against wall-clock or randomness sneaking into the harness.
    let path = corpus_dir().join("count_col_nulls.q");
    let repro = qgen::load_repro(&path).expect("pinned repro must load");
    let a = qgen::replay(&repro).expect("replay");
    let b = qgen::replay(&repro).expect("replay");
    assert_eq!(a.outcomes.len(), repro.statements.len());
    assert!(a.outcomes.iter().all(|arms| arms.len() == qgen::fuzz::arms().len()));
    assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
}
