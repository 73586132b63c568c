//! The seeded program stream every fuzz loop walks: one dataset, then
//! [`PROGRAMS_PER_DATASET`] programs drawn over it, then the next
//! dataset — all from one rng, so a seed names the same programs
//! wherever they run.

use crate::grammar::{Coverage, Program, ProgramGen};
use crate::schema::{gen_dataset, Dataset};
use qlang::value::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many programs share one generated dataset: the dataset is the
/// expensive part, and program variety — not dataset variety — is what
/// each seed mostly buys.
pub const PROGRAMS_PER_DATASET: usize = 10;

/// One dataset and the programs drawn over it, in seed order.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Index of the chunk's first program within the slice.
    pub first: usize,
    /// The dataset every program of the chunk reads.
    pub dataset: Dataset,
    /// The programs, at most [`PROGRAMS_PER_DATASET`].
    pub programs: Vec<Program>,
}

impl Chunk {
    /// The dataset's tables and every program rendered to statements.
    pub fn into_rendered(self) -> (Vec<(String, Table)>, Vec<Vec<String>>) {
        (self.dataset.tables, self.programs.iter().map(Program::render).collect())
    }
}

/// The first `programs` programs of `seed`, a chunk at a time.
pub fn slice(seed: u64, programs: usize) -> Slice {
    Slice {
        rng: StdRng::seed_from_u64(seed),
        gen: ProgramGen::new(),
        coverage: Coverage::default(),
        next: 0,
        programs,
    }
}

/// The iterator [`slice`] returns.
pub struct Slice {
    rng: StdRng,
    gen: ProgramGen,
    coverage: Coverage,
    next: usize,
    programs: usize,
}

impl Slice {
    /// Grammar coverage of the programs drawn so far.
    pub fn coverage(&self) -> Coverage {
        self.coverage
    }
}

impl Iterator for Slice {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.next >= self.programs {
            return None;
        }
        let first = self.next;
        let n = PROGRAMS_PER_DATASET.min(self.programs - first);
        self.next += n;
        let dataset = gen_dataset(&mut self.rng);
        let programs = (0..n)
            .map(|_| self.gen.gen_program(&mut self.rng, &dataset, &mut self.coverage))
            .collect();
        Some(Chunk { first, dataset, programs })
    }
}
