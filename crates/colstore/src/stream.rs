//! A result as a one-chunk stream: a schema plus an iterator that yields
//! one [`Batch`]. Every result is one batch (DESIGN §12); this shape
//! exists for hqbench until ROADMAP item 8 step A.
//!
//! The error type is generic because this crate is dependency-free:
//! pgdb instantiates `BatchStream<DbError>`.

use crate::batch::Batch;
use crate::types::Column;
use std::marker::PhantomData;

/// One batch behind the iterator interface of a chunk stream. Exists
/// for hqbench until ROADMAP item 8 step A.
pub struct BatchStream<E> {
    /// Output schema, the batch's own.
    pub schema: Vec<Column>,
    batch: Option<Batch>,
    error: PhantomData<fn() -> E>,
}

impl<E> BatchStream<E> {
    /// A stream that yields `batch` once.
    pub fn once(batch: Batch) -> BatchStream<E> {
        BatchStream { schema: batch.schema.clone(), batch: Some(batch), error: PhantomData }
    }
}

impl<E> Iterator for BatchStream<E> {
    type Item = Result<Batch, E>;

    fn next(&mut self) -> Option<Self::Item> {
        self.batch.take().map(Ok)
    }
}

impl<E> std::fmt::Debug for BatchStream<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchStream").field("schema", &self.schema).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cell, PgType, Rows};

    #[test]
    fn once_yields_the_batch_and_its_schema() {
        let b = Batch::from_rows(Rows {
            columns: vec![Column::new("v", PgType::Int8)],
            data: (0..3).map(|i| vec![Cell::Int(i)]).collect(),
        });
        let s: BatchStream<()> = BatchStream::once(b.clone());
        assert_eq!(s.schema, b.schema);
        let chunks: Vec<Batch> = s.map(Result::unwrap).collect();
        assert_eq!(chunks, vec![b]);
    }
}
