//! Shared by the differential test binaries: the corpus and the arms.
//! Each binary uses only some of it.
#![allow(dead_code)]

pub mod arms;
pub mod corpus;
