//! `hqbench`: the end-to-end benchmark of the Hyper-Q reproduction.
//! See `benchmark/README.md`.

pub mod cli;
pub mod client;
pub mod drive;
pub mod gen;
pub mod oracle;
pub mod run;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workload;
