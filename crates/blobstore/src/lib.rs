#![warn(missing_docs)]

//! # blobstore — the executable database
//!
//! onServe stores every uploaded executable "in the MySQL database,
//! together with its description and the details about the parameters"
//! (§VII-A); at invocation time the file is "loaded from the database and
//! then stored in a temporary location" (§VII-B), with a CPU burst "while
//! loading and decompressing the file from the database" (§VIII-B). This
//! crate is that database, rebuilt from scratch:
//!
//! * [`codec`] — an LZ77-family compression codec (blobs are stored
//!   compressed; decompression is the Figure 6 CPU peak).
//! * [`store`] — the table layer: executable records (name, description,
//!   parameter specs) plus compressed blob pages, with checksums. An
//!   upload travels as a [`Blob`], compressed once however many
//!   databases a fan-out stores it into; a row is decoded and verified
//!   on its first load and again whenever its bytes change.
//! * [`strategy`] — the *timed* storage paths on a [`simkit::Host`],
//!   including the paper's documented flaw: "the file is first stored
//!   temporarily and then in the database. ... at least two write
//!   operations and one read operation" (§VIII-D3) — reproduced as
//!   [`strategy::WriteStrategy::DoubleWrite`] and ablated against
//!   [`strategy::WriteStrategy::Direct`].

pub mod codec;
#[cfg(test)]
mod reference;
pub mod store;
pub mod strategy;

pub use codec::{compress, decompress, CodecError};
pub use store::{Blob, BlobDb, DbError, ExecutableRecord, ParamSpec};
pub use strategy::{StoreTiming, TimedDb, WriteStrategy};
