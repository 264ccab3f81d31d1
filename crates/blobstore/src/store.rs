//! The table layer: executable records and compressed blob pages.
//!
//! This is the `DbManager`/`dataIO` equivalent: one table of executable
//! metadata (name, description, declared parameters — the portal dialog's
//! fields, Figure 3) and one blob table holding the compressed payloads
//! with checksums. Pure data structure; timing lives in
//! [`crate::strategy`].

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;

use crate::codec::{compress, decompress, CodecError};

/// A declared service parameter (the portal's "Parameter-Name/Type" rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: String,
    /// Parameter type name (`string`, `int`, `double`, `boolean`,
    /// `base64`).
    pub type_name: String,
}

impl ParamSpec {
    /// Convenience constructor.
    pub fn new(name: &str, type_name: &str) -> ParamSpec {
        ParamSpec {
            name: name.to_owned(),
            type_name: type_name.to_owned(),
        }
    }
}

/// Metadata row for one stored executable.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutableRecord {
    /// Primary key.
    pub id: u64,
    /// Unique executable name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Declared parameters.
    pub params: Vec<ParamSpec>,
    /// Uncompressed payload size.
    pub original_len: usize,
    /// Stored (compressed) payload size.
    pub stored_len: usize,
    /// [`checksum64`] of the uncompressed payload: computed on insert,
    /// verified by every [`BlobDb::load`] and by the first
    /// [`BlobDb::verified_record`] of a row. In-memory only — not a stable
    /// format.
    pub checksum: u64,
}

/// Database errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Name already present.
    Duplicate(String),
    /// No row under that name/id.
    NotFound(String),
    /// Blob failed checksum or decode (storage corruption).
    Corrupt(String),
    /// A write was lost before it was durable (injected I/O fault).
    WriteFailed(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Duplicate(n) => write!(f, "duplicate executable name: {n}"),
            DbError::NotFound(n) => write!(f, "no such executable: {n}"),
            DbError::Corrupt(n) => write!(f, "corrupt blob for: {n}"),
            DbError::WriteFailed(n) => write!(f, "write failed for: {n}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Corrupt(e.to_string())
    }
}

/// Multiplier of the lane and fold steps (odd, so multiplying is a
/// bijection of `u64`).
const CHECKSUM_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;
/// Bytes per checksum block: one little-endian `u64` word per lane.
const CHECKSUM_BLOCK: usize = 32;

/// One absorb step: xor, odd multiply and rotate are each a bijection of
/// `h` for a fixed `word` and of `word` for a fixed `h`.
#[inline]
fn checksum_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(CHECKSUM_PRIME).rotate_left(29)
}

/// The blob checksum: four independent lanes, lane `i` absorbing word `i`
/// of every 32-byte block with [`checksum_step`] (the tail is zero-padded
/// to one last block), then folded in order into the byte length with the
/// same step and finished with an xor-shift. Four lanes keep four
/// multiplies in flight, where a byte-serial hash waits on one per byte.
///
/// A change confined to one word always changes the result: it changes
/// that lane's state at that step, and every later step — of the lane and
/// of the fold — is a bijection of the state it is handed.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = [
        CHECKSUM_PRIME,
        CHECKSUM_PRIME.rotate_left(16),
        CHECKSUM_PRIME.rotate_left(32),
        CHECKSUM_PRIME.rotate_left(48),
    ];
    let mut absorb = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = checksum_step(*lane, word);
        }
    };
    let mut blocks = data.chunks_exact(CHECKSUM_BLOCK);
    for block in &mut blocks {
        absorb(block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; CHECKSUM_BLOCK];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&padded);
    }
    let h = lanes.into_iter().fold(data.len() as u64, checksum_step);
    h ^ (h >> 32)
}

/// The stored form of a payload: the compressed stream a row keeps, and
/// the [`checksum64`] of the bytes it was made from.
fn pack(data: &[u8]) -> (Bytes, u64) {
    // an exact-fit copy: `compress` sizes its buffer for the worst case
    // (about twice a typical stream), and rows live as long as the table
    (Bytes::copy_from_slice(&compress(data)), checksum64(data))
}

/// One upload's bytes, and what has been derived from them. A fan-out
/// hands every replica a clone (an `Rc` bump): the first database to
/// insert it compresses and checksums, the others find that done and keep
/// the same packed buffer. Nothing is shared between two uploads, however
/// equal their bytes.
#[derive(Clone)]
pub struct Blob(Rc<BlobInner>);

struct BlobInner {
    raw: Bytes,
    packed: OnceCell<(Bytes, u64)>,
}

impl Blob {
    /// Uncompressed length in bytes.
    pub fn len(&self) -> usize {
        self.0.raw.len()
    }

    /// Whether the upload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.raw.is_empty()
    }

    /// Length of the compressed stream a row made from this upload holds.
    pub(crate) fn stored_len(&self) -> usize {
        self.packed().0.len()
    }

    /// The compressed stream and the checksum, derived on first use.
    fn packed(&self) -> &(Bytes, u64) {
        self.0.packed.get_or_init(|| pack(&self.0.raw))
    }
}

impl From<Bytes> for Blob {
    fn from(raw: Bytes) -> Blob {
        Blob(Rc::new(BlobInner {
            raw,
            packed: OnceCell::new(),
        }))
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blob(len={})", self.len())
    }
}

/// A blob-table entry: the compressed stream as stored, and whether it
/// has been decoded and checksum-verified since it was written. `Bytes`
/// is immutable, so the bit can only go stale where an entry is built —
/// and every entry is built unverified.
struct Row {
    packed: Bytes,
    verified: Cell<bool>,
}

impl Row {
    fn unverified(packed: Bytes) -> Row {
        Row {
            packed,
            verified: Cell::new(false),
        }
    }
}

/// The executable database.
#[derive(Default)]
pub struct BlobDb {
    records: BTreeMap<u64, ExecutableRecord>,
    by_name: BTreeMap<String, u64>,
    blobs: BTreeMap<u64, Row>,
    next_id: u64,
}

impl BlobDb {
    /// Empty database.
    pub fn new() -> BlobDb {
        BlobDb::default()
    }

    /// Insert an executable; the payload is compressed on the way in.
    /// Returns the new row id.
    pub fn insert(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: &[u8],
    ) -> Result<u64, DbError> {
        self.insert_row(name, description, params, data.len(), || pack(data))
    }

    /// [`BlobDb::insert`] of an upload that may be on its way into other
    /// databases too: compressed by whichever gets to it first, and every
    /// row made from it keeps the one packed buffer.
    pub fn insert_blob(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        blob: &Blob,
    ) -> Result<u64, DbError> {
        self.insert_row(name, description, params, blob.len(), || {
            blob.packed().clone()
        })
    }

    /// The one row-insert path; `packed` runs only once the name is known
    /// to be free.
    fn insert_row(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        original_len: usize,
        packed: impl FnOnce() -> (Bytes, u64),
    ) -> Result<u64, DbError> {
        if self.by_name.contains_key(name) {
            return Err(DbError::Duplicate(name.to_owned()));
        }
        self.next_id += 1;
        let id = self.next_id;
        let (packed, checksum) = packed();
        let record = ExecutableRecord {
            id,
            name: name.to_owned(),
            description: description.to_owned(),
            params,
            original_len,
            stored_len: packed.len(),
            checksum,
        };
        self.by_name.insert(name.to_owned(), id);
        self.blobs.insert(id, Row::unverified(packed));
        self.records.insert(id, record);
        Ok(id)
    }

    /// [`BlobDb::insert_blob`] over a row of the same name, if there is
    /// one: remove and insert under one `&mut self`, so no reader finds the
    /// name missing in between. The replacement gets a fresh row id.
    pub(crate) fn replace(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        blob: &Blob,
    ) -> Result<u64, DbError> {
        let _ = self.delete(name);
        self.insert_blob(name, description, params, blob)
    }

    /// Metadata by name.
    pub fn record(&self, name: &str) -> Result<&ExecutableRecord, DbError> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        Ok(&self.records[id])
    }

    /// Metadata by id.
    pub fn record_by_id(&self, id: u64) -> Result<&ExecutableRecord, DbError> {
        self.records
            .get(&id)
            .ok_or_else(|| DbError::NotFound(format!("id {id}")))
    }

    /// Decompress and verify a payload by name.
    pub fn load(&self, name: &str) -> Result<Vec<u8>, DbError> {
        self.load_with_record(name).map(|(_, data)| data)
    }

    /// [`BlobDb::load`] that also hands back the metadata row it looked
    /// up, for callers that need both (one lookup by name, not two).
    pub fn load_with_record(&self, name: &str) -> Result<(&ExecutableRecord, Vec<u8>), DbError> {
        let (rec, row) = self.row(name)?;
        Ok((rec, decode(rec, row)?))
    }

    /// Metadata of a row known to be intact: decoded and checksummed like
    /// [`BlobDb::load`] the first time, looked up only from then on — until
    /// the row's bytes change ([`BlobDb::corrupt_blob`]) or the row is
    /// replaced. For callers that charge a load from the record's sizes
    /// and never read the bytes.
    pub fn verified_record(&self, name: &str) -> Result<&ExecutableRecord, DbError> {
        let (rec, row) = self.row(name)?;
        if !row.verified.get() {
            decode(rec, row)?;
        }
        Ok(rec)
    }

    /// The compressed stream stored under `name`, as it sits in the blob
    /// table.
    pub fn stored_row(&self, name: &str) -> Result<&Bytes, DbError> {
        self.row(name).map(|(_, row)| &row.packed)
    }

    fn row(&self, name: &str) -> Result<(&ExecutableRecord, &Row), DbError> {
        let rec = self.record(name)?;
        let row = self
            .blobs
            .get(&rec.id)
            .ok_or_else(|| DbError::Corrupt(name.to_owned()))?;
        Ok((rec, row))
    }

    /// Delete by name; returns the freed record.
    pub fn delete(&mut self, name: &str) -> Result<ExecutableRecord, DbError> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        self.blobs.remove(&id);
        Ok(self.records.remove(&id).expect("record present"))
    }

    /// All records, ordered by id.
    pub fn list(&self) -> impl Iterator<Item = &ExecutableRecord> {
        self.records.values()
    }

    /// Number of stored executables.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes of compressed blob storage.
    pub fn stored_bytes(&self) -> usize {
        self.blobs.values().map(|row| row.packed.len()).sum()
    }

    /// Test/failure-injection hook: corrupt a stored blob.
    pub fn corrupt_blob(&mut self, name: &str) -> Result<(), DbError> {
        self.rewrite_blob(name, |v| {
            if let Some(last) = v.last_mut() {
                *last ^= 0xff;
            }
            // also flip a mid-stream byte so decoding or checksum must fail
            let mid = v.len() / 2;
            if mid > 4 {
                v[mid] ^= 0x55;
            }
        })
    }

    /// Test/failure-injection hook: let `edit` loose on a copy of the
    /// stored stream and store the result as a new, unverified entry. The
    /// copy matters: the old buffer may be the one a peer database's row
    /// shares, and damage to this disk is not damage to theirs.
    pub fn rewrite_blob(
        &mut self,
        name: &str,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), DbError> {
        let id = *self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        let row = self.blobs.get_mut(&id).expect("blob present");
        let mut v = row.packed.to_vec();
        edit(&mut v);
        *row = Row::unverified(Bytes::from(v));
        Ok(())
    }
}

/// Decompress `row` and check it against `rec`'s checksum; a row that
/// passes is marked verified.
fn decode(rec: &ExecutableRecord, row: &Row) -> Result<Vec<u8>, DbError> {
    let data = decompress(&row.packed)?;
    if checksum64(&data) != rec.checksum {
        return Err(DbError::Corrupt(rec.name.clone()));
    }
    row.verified.set(true);
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn insert_load_roundtrip() {
        let mut db = BlobDb::new();
        let data = payload(10_000);
        let id = db
            .insert(
                "solver",
                "finite element solver",
                vec![ParamSpec::new("mesh", "string")],
                &data,
            )
            .unwrap();
        let rec = db.record("solver").unwrap();
        assert_eq!(rec.id, id);
        assert_eq!(rec.original_len, 10_000);
        assert!(rec.stored_len < rec.original_len);
        assert_eq!(db.load("solver").unwrap(), data);
        assert_eq!(db.record_by_id(id).unwrap().name, "solver");
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], b"x").unwrap();
        assert_eq!(
            db.insert("a", "", vec![], b"y"),
            Err(DbError::Duplicate("a".into()))
        );
    }

    #[test]
    fn not_found_errors() {
        let db = BlobDb::new();
        assert!(matches!(db.record("ghost"), Err(DbError::NotFound(_))));
        assert!(matches!(db.load("ghost"), Err(DbError::NotFound(_))));
        assert!(matches!(db.record_by_id(9), Err(DbError::NotFound(_))));
    }

    #[test]
    fn delete_frees_name_and_space() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(5000)).unwrap();
        let before = db.stored_bytes();
        assert!(before > 0);
        let rec = db.delete("a").unwrap();
        assert_eq!(rec.name, "a");
        assert_eq!(db.stored_bytes(), 0);
        assert!(db.is_empty());
        // reinsert under the same name works
        db.insert("a", "", vec![], b"z").unwrap();
        assert_eq!(db.len(), 1);
        assert!(matches!(db.delete("ghost"), Err(DbError::NotFound(_))));
    }

    #[test]
    fn corruption_detected_on_load() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.corrupt_blob("a").unwrap();
        assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
    }

    /// The bit `verified_record` trusts is re-armed by damage that comes
    /// after a good load — whichever lookup did that load.
    #[test]
    fn corruption_after_a_good_load_is_detected() {
        for warm_with_load in [true, false] {
            let mut db = BlobDb::new();
            db.insert("a", "", vec![], &payload(4096)).unwrap();
            if warm_with_load {
                db.load("a").unwrap();
            }
            assert_eq!(db.verified_record("a").unwrap().original_len, 4096);
            // verified: the lookup no longer decodes
            assert!(db.blobs[&1].verified.get());
            db.corrupt_blob("a").unwrap();
            assert!(matches!(db.verified_record("a"), Err(DbError::Corrupt(_))));
            assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
            // and a failed check does not mark the row good
            assert!(matches!(db.verified_record("a"), Err(DbError::Corrupt(_))));
        }
    }

    #[test]
    fn a_name_reused_after_delete_or_replace_starts_unverified() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.verified_record("a").unwrap();
        db.delete("a").unwrap();
        let id = db.insert("a", "", vec![], &payload(100)).unwrap();
        assert!(!db.blobs[&id].verified.get());
        db.verified_record("a").unwrap();
        assert!(db.blobs[&id].verified.get());
        let blob = Blob::from(Bytes::from(payload(200)));
        let id = db.replace("a", "", vec![], &blob).unwrap();
        assert!(!db.blobs[&id].verified.get());
        assert_eq!(db.verified_record("a").unwrap().original_len, 200);
    }

    /// One upload fanned into four databases is one packed buffer, and
    /// damage to one database's row stays in that database.
    #[test]
    fn a_fanned_out_blob_shares_its_packed_buffer_and_corruption_stays_local() {
        let data = payload(10_000);
        let blob = Blob::from(Bytes::from(data.clone()));
        let mut dbs: Vec<BlobDb> = (0..4).map(|_| BlobDb::new()).collect();
        for db in &mut dbs {
            db.insert_blob("a", "", vec![], &blob).unwrap();
            db.verified_record("a").unwrap();
        }
        let shared = dbs[0].stored_row("a").unwrap().clone();
        for db in &dbs {
            assert_eq!(db.stored_row("a").unwrap().as_ptr(), shared.as_ptr());
        }
        dbs[2].corrupt_blob("a").unwrap();
        assert_ne!(dbs[2].stored_row("a").unwrap().as_ptr(), shared.as_ptr());
        for (i, db) in dbs.iter().enumerate() {
            if i == 2 {
                assert!(matches!(db.verified_record("a"), Err(DbError::Corrupt(_))));
                assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
            } else {
                assert_eq!(db.stored_row("a").unwrap().as_ptr(), shared.as_ptr());
                assert_eq!(db.load("a").unwrap(), data);
            }
        }
        // a duplicate name is refused before anything is derived
        let fresh = Blob::from(Bytes::from(data));
        assert!(matches!(
            dbs[0].insert_blob("a", "", vec![], &fresh),
            Err(DbError::Duplicate(_))
        ));
        assert!(fresh.0.packed.get().is_none());
    }

    #[test]
    fn empty_payload_ok() {
        let mut db = BlobDb::new();
        db.insert("empty", "", vec![], b"").unwrap();
        assert_eq!(db.load("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn list_is_ordered_by_id() {
        let mut db = BlobDb::new();
        db.insert("c", "", vec![], b"1").unwrap();
        db.insert("a", "", vec![], b"2").unwrap();
        db.insert("b", "", vec![], b"3").unwrap();
        let names: Vec<&str> = db.list().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    fn params_preserved() {
        let mut db = BlobDb::new();
        let params = vec![
            ParamSpec::new("alpha", "double"),
            ParamSpec::new("n", "int"),
        ];
        db.insert("p", "d", params.clone(), b"bin").unwrap();
        assert_eq!(db.record("p").unwrap().params, params);
        assert_eq!(db.record("p").unwrap().description, "d");
    }
}
