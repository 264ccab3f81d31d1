//! The table layer: executable records and compressed blob pages.
//!
//! This is the `DbManager`/`dataIO` equivalent: one table of executable
//! metadata (name, description, declared parameters — the portal dialog's
//! fields, Figure 3) and one blob table holding the compressed payloads
//! with checksums. Pure data structure; timing lives in
//! [`crate::strategy`].

use std::collections::BTreeMap;
use std::fmt;

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
    /// verified on every load. In-memory only — not a stable format.
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

/// The executable database.
#[derive(Default)]
pub struct BlobDb {
    records: BTreeMap<u64, ExecutableRecord>,
    by_name: BTreeMap<String, u64>,
    blobs: BTreeMap<u64, Bytes>,
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
        if self.by_name.contains_key(name) {
            return Err(DbError::Duplicate(name.to_owned()));
        }
        self.next_id += 1;
        let id = self.next_id;
        let compressed = compress(data);
        let record = ExecutableRecord {
            id,
            name: name.to_owned(),
            description: description.to_owned(),
            params,
            original_len: data.len(),
            stored_len: compressed.len(),
            checksum: checksum64(data),
        };
        self.by_name.insert(name.to_owned(), id);
        self.blobs.insert(id, Bytes::from(compressed));
        self.records.insert(id, record);
        Ok(id)
    }

    /// [`BlobDb::insert`] over a row of the same name, if there is one:
    /// remove and insert under one `&mut self`, so no reader finds the name
    /// missing in between. The replacement gets a fresh row id.
    pub(crate) fn replace(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: &[u8],
    ) -> Result<u64, DbError> {
        let _ = self.delete(name);
        self.insert(name, description, params, data)
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
        let rec = self.record(name)?;
        let blob = self
            .blobs
            .get(&rec.id)
            .ok_or_else(|| DbError::Corrupt(name.to_owned()))?;
        let data = decompress(blob)?;
        if checksum64(&data) != rec.checksum {
            return Err(DbError::Corrupt(name.to_owned()));
        }
        Ok((rec, data))
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
        self.blobs.values().map(Bytes::len).sum()
    }

    /// Test/failure-injection hook: corrupt a stored blob in place.
    pub fn corrupt_blob(&mut self, name: &str) -> Result<(), DbError> {
        let id = *self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        let blob = self.blobs.get_mut(&id).expect("blob present");
        let mut v = blob.to_vec();
        if let Some(last) = v.last_mut() {
            *last ^= 0xff;
        }
        // also flip a mid-stream byte so decoding or checksum must fail
        let mid = v.len() / 2;
        if mid > 4 {
            v[mid] ^= 0x55;
        }
        *blob = Bytes::from(v);
        Ok(())
    }
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
