//! Property-based invariants of the blob database and its codec.

use blobstore::store::checksum64;
use blobstore::{compress, decompress, Blob, BlobDb, ParamSpec, TimedDb, WriteStrategy};
use bytes::Bytes;
use proptest::prelude::*;
use simkit::{Host, HostSpec, Rng, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// The parent commit's byte-wise codec: the model the kernels must match.
#[path = "../src/reference.rs"]
mod reference;

/// The shape of `onserve::deployment::synth_payload`, the executable every
/// workload and golden stores: 32-byte records, six salted hex digits each.
fn synth_like(len: usize, seed: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(len + 32);
    let mut x = seed | 1;
    while data.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        data.extend_from_slice(format!("SEG{:08x}:PAYLOAD-DATA-BLOCK;", x >> 40).as_bytes());
    }
    data.truncate(len);
    data
}

/// `rounds` seeded edits of a valid stream: bit flips, byte inserts and
/// deletes anywhere, and rewrites of a header byte.
fn mutate(stream: &mut Vec<u8>, rng: &mut Rng, rounds: usize) {
    for _ in 0..rounds {
        let at = rng.below(stream.len() as u64) as usize;
        match rng.below(4) {
            0 => stream[at] ^= 1 << rng.below(8),
            1 => stream.insert(at, rng.next_u64() as u8),
            2 if stream.len() > 1 => {
                stream.remove(at);
            }
            _ => stream[at % 4] = rng.next_u64() as u8,
        }
    }
}

/// The decoder's whole contract on one stream, valid or not: what the
/// reference decodes it decodes to the same bytes, what the reference
/// rejects it rejects with a typed error, and it never holds more output
/// than 255 bytes per stream byte (so it cannot have allocated more).
fn assert_decodes_like_reference(stream: &[u8]) {
    let got = decompress(stream);
    if let Ok(out) = &got {
        assert!(out.len() <= 255 * stream.len());
    }
    assert_eq!(got.ok(), reference::decompress(stream));
}

/// Every lane and tail alignment of the checksum, exhaustively: all
/// lengths 0..=200, every single-bit flip of each, and every change of
/// length (each prefix against every other).
#[test]
fn checksum64_detects_every_bit_flip_and_length_change() {
    let data = synth_like(200, 7);
    let sums: Vec<u64> = (0..=data.len()).map(|n| checksum64(&data[..n])).collect();
    for (n, &sum) in sums.iter().enumerate() {
        assert!(!sums[..n].contains(&sum), "length {n} collides");
        let mut flipped = data[..n].to_vec();
        for bit in 0..n * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), sum, "length {n}, bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    // zero padding of the tail is told apart from real zero bytes
    let zero_sums: Vec<u64> = (0..=200).map(|n| checksum64(&vec![0u8; n])).collect();
    for (n, sum) in zero_sums.iter().enumerate() {
        assert!(!zero_sums[..n].contains(sum), "{n} zero bytes collide");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-wise compressor makes the parent's parse decisions exactly.
    #[test]
    fn compress_matches_reference_arbitrary(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        prop_assert_eq!(compress(&data), reference::compress(&data));
    }

    /// ... on periodic input, where matches overlap their own output and
    /// run to the end of the data, with noise so the period breaks.
    #[test]
    fn compress_matches_reference_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..65),
        len in 0usize..6_000,
        noise in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        let mut data: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
        for (at, byte) in noise {
            if let Some(b) = data.get_mut(at as usize) {
                *b = byte;
            }
        }
        let packed = compress(&data);
        prop_assert_eq!(&packed, &reference::compress(&data));
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// ... and on the payload shape the goldens store, at every alignment
    /// of the tail.
    #[test]
    fn compress_matches_reference_synth(len in 0usize..70_000, seed in any::<u64>()) {
        let data = synth_like(len, seed);
        let packed = compress(&data);
        prop_assert_eq!(&packed, &reference::compress(&data));
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// Mutated streams: typed error or identical output, never a panic, a
    /// hang or an allocation past the bound.
    #[test]
    fn decompress_matches_reference_on_mutations(
        seed in any::<u64>(),
        len in 0usize..3_000,
        period in 1usize..65,
        rounds in 1usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let sources = [
            synth_like(len, seed),
            (0..len).map(|i| (i % period) as u8).collect(),
            (0..len).map(|_| rng.next_u64() as u8).collect(),
        ];
        for data in sources {
            let mut stream = compress(&data);
            assert_decodes_like_reference(&stream);
            mutate(&mut stream, &mut rng, rounds);
            assert_decodes_like_reference(&stream);
        }
    }

    /// Arbitrary bytes as a stream, most of them invalid.
    #[test]
    fn decompress_matches_reference_on_garbage(
        mut stream in proptest::collection::vec(any::<u8>(), 0..300),
        small_header in any::<bool>(),
    ) {
        if small_header && stream.len() >= 4 {
            // a plausible length, so decoding gets past the header check
            stream[2] = 0;
            stream[3] = 0;
        }
        assert_decodes_like_reference(&stream);
    }
}

proptest! {
    /// Codec round-trips arbitrary bytes.
    #[test]
    fn codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Codec round-trips highly repetitive data (the LZ-heavy regime) and
    /// actually shrinks it.
    #[test]
    fn codec_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 64usize..512,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data.clone());
        prop_assert!(c.len() < data.len(), "repetitive data must compress");
    }

    /// Any *prefix* truncation of a compressed stream fails to decode (no
    /// silent partial results).
    #[test]
    fn codec_rejects_truncation(
        data in proptest::collection::vec(any::<u8>(), 1..2_000),
        cut_frac in 0.0f64..1.0,
    ) {
        let c = compress(&data);
        let cut = ((c.len() as f64) * cut_frac) as usize;
        if cut < c.len() {
            prop_assert!(decompress(&c[..cut]).is_err());
        }
    }

    /// Database insert → load is the identity and metadata is accurate.
    #[test]
    fn db_insert_load_identity(
        name in proptest::string::string_regex("[a-zA-Z0-9_.-]{1,24}").expect("regex"),
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        params in proptest::collection::vec(
            (
                proptest::string::string_regex("[a-z]{1,8}").expect("regex"),
                proptest::string::string_regex("(string|int|double|boolean)").expect("regex"),
            ),
            0..4,
        ),
    ) {
        let mut db = BlobDb::new();
        let specs: Vec<ParamSpec> = params.iter().map(|(n, t)| ParamSpec::new(n, t)).collect();
        let id = db.insert(&name, "desc", specs.clone(), &data).unwrap();
        let rec = db.record(&name).unwrap();
        prop_assert_eq!(rec.id, id);
        prop_assert_eq!(rec.original_len, data.len());
        prop_assert_eq!(&rec.params, &specs);
        prop_assert_eq!(db.load(&name).unwrap(), data);
        // delete frees everything
        db.delete(&name).unwrap();
        prop_assert!(db.is_empty());
        prop_assert_eq!(db.stored_bytes(), 0);
    }

    /// The slice insert and the `Blob` insert write the same row.
    #[test]
    fn blob_insert_equals_slice_insert(
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
    ) {
        let (mut by_slice, mut by_blob) = (BlobDb::new(), BlobDb::new());
        by_slice.insert("x", "d", vec![], &data).unwrap();
        by_blob.insert_blob("x", "d", vec![], &Blob::from(Bytes::from(data.clone()))).unwrap();
        prop_assert_eq!(by_slice.record("x").unwrap(), by_blob.record("x").unwrap());
        prop_assert_eq!(by_slice.record("x").unwrap().original_len, data.len());
        prop_assert_eq!(by_slice.stored_bytes(), by_blob.stored_bytes());
        prop_assert_eq!(by_slice.stored_row("x").unwrap(), by_blob.stored_row("x").unwrap());
        prop_assert_eq!(by_blob.load("x").unwrap(), data);
    }

    /// One `Blob` fanned into any number of databases is packed once —
    /// every row is the same buffer — and every database round-trips.
    #[test]
    fn fanned_out_blob_packs_once(
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        fanout in 1usize..7,
    ) {
        let blob = Blob::from(Bytes::from(data.clone()));
        let mut dbs: Vec<BlobDb> = (0..fanout).map(|_| BlobDb::new()).collect();
        for db in &mut dbs {
            db.insert_blob("x", "", vec![], &blob).unwrap();
        }
        let first = dbs[0].stored_row("x").unwrap().as_ptr();
        for db in &dbs {
            prop_assert_eq!(db.stored_row("x").unwrap().as_ptr(), first);
            prop_assert_eq!(db.verified_record("x").unwrap().original_len, data.len());
            prop_assert_eq!(&db.load("x").unwrap(), &data);
        }
    }

    /// However a stored row is damaged, and whether or not it had been
    /// verified before, the verified lookup and `load` reach one verdict.
    #[test]
    fn verified_lookup_agrees_with_load_on_mutated_rows(
        seed in any::<u64>(),
        len in 1usize..3_000,
        rounds in 1usize..4,
        verified_before in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let mut db = BlobDb::new();
        db.insert("x", "", vec![], &synth_like(len, seed)).unwrap();
        if verified_before {
            db.verified_record("x").unwrap();
        }
        db.rewrite_blob("x", |row| mutate(row, &mut rng, rounds)).unwrap();
        let verdict = db.verified_record("x").map(|rec| rec.original_len);
        prop_assert_eq!(&verdict, &db.load("x").map(|data| data.len()));
        // and keeps to it once `load` has had its say
        prop_assert_eq!(verdict, db.verified_record("x").map(|rec| rec.original_len));
    }

    /// Timed store → timed load is the identity under both write
    /// strategies, and the double-write path always touches at least as
    /// much disk.
    #[test]
    fn timed_strategies_identity_and_ordering(
        data in proptest::collection::vec(any::<u8>(), 1..50_000),
    ) {
        let mut writes = Vec::new();
        for strategy in [WriteStrategy::DoubleWrite, WriteStrategy::Direct] {
            let mut sim = Sim::new(1);
            let host = Host::new(&HostSpec::commodity("h"));
            let db = TimedDb::new(Rc::new(RefCell::new(BlobDb::new())), host, strategy);
            let payload = Bytes::from(data.clone());
            let expect = payload.clone();
            let loaded: Rc<RefCell<Option<usize>>> = Rc::new(RefCell::new(None));
            let l2 = loaded.clone();
            let db2 = Rc::clone(&db);
            db.store(&mut sim, "x", "", vec![], payload, move |sim, r, _| {
                r.expect("store");
                db2.load_for_use(sim, "x", move |_, r, _| {
                    *l2.borrow_mut() = Some(r.expect("load"));
                });
            });
            sim.run();
            prop_assert_eq!(loaded.borrow().unwrap(), expect.len());
            prop_assert_eq!(db.db().borrow().load("x").unwrap(), expect);
            writes.push(sim.recorder_ref().total("h.disk.write.bytes"));
        }
        prop_assert!(writes[0] >= writes[1],
            "double-write {} must write at least as much as direct {}", writes[0], writes[1]);
    }
}
