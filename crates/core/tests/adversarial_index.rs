//! Adversarial `SSAWIDX1` corruption tests.
//!
//! Every test here takes a valid saved index or store file, damages it
//! in a targeted way — truncation, flipped payload bytes, flipped
//! checksum fields, misaligned or out-of-bounds section offsets,
//! header field corruption — and asserts the loader reports a *typed*
//! error ([`DiskIndexError`] at the store layer, [`PersistError`] at
//! the engine layer) without panicking. A final sweep flips every byte
//! of the header and descriptor table one at a time and only requires
//! "no panic": padding bytes are legitimately ignored by the parser.
//!
//! Layout facts these tests rely on (see `diskindex.rs`):
//! header = magic[8] | version u32 | endian u32 | n_sections u32 |
//! pad u32 | file_len u64 (32 bytes), then `n_sections` descriptors of
//! kind u32 | pad u32 | offset u64 | len u64 | checksum u64 (32 bytes
//! each), then payloads aligned to [`SECTION_ALIGN`].

use std::path::PathBuf;

use seesaw_core::{load_index, save_index, PersistError, PreprocessConfig, Preprocessor};
use seesaw_dataset::DatasetSpec;
use seesaw_vecstore::diskindex::SECTION_ALIGN;
use seesaw_vecstore::{load_store, save_store, DiskIndexError, StoreConfig};

const HEADER_LEN: usize = 32;
const DESC_LEN: usize = 32;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("seesaw-adversarial-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.ssawidx", std::process::id()))
}

/// A small but real store file: exact backend, two sections
/// (store meta + f32 rows).
fn saved_store_bytes(name: &str) -> Vec<u8> {
    let dim = 8usize;
    let rows = 32usize;
    let data: Vec<f32> = (0..rows * dim).map(|i| (i as f32).sin()).collect();
    let store = StoreConfig::exact().build(dim, data);
    let path = tmp(name);
    save_store(&store, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// A small but real engine-level index file (graphs off: these tests
/// are about the container format, not the graph payloads).
fn saved_index_bytes(name: &str) -> (Vec<u8>, PreprocessConfig) {
    let ds = DatasetSpec::coco_like(0.0).with_max_queries(2).generate(5);
    let mut cfg = PreprocessConfig::fast();
    cfg.build_db_matrix = false;
    cfg.build_propagation = false;
    cfg.build_coarse_graph = false;
    let index = Preprocessor::new(cfg.clone()).build(&ds);
    let path = tmp(name);
    save_index(&index, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, cfg)
}

fn load_store_from(name: &str, bytes: &[u8]) -> Result<(), DiskIndexError> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let out = load_store(&path).map(|_| ());
    std::fs::remove_file(&path).ok();
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Parsed view of one descriptor-table entry of a well-formed file.
struct Desc {
    /// Byte offset of the descriptor itself.
    at: usize,
    kind: u32,
    offset: u64,
}

fn descriptors(bytes: &[u8]) -> Vec<Desc> {
    let n = read_u32(bytes, 16) as usize;
    (0..n)
        .map(|i| {
            let at = HEADER_LEN + i * DESC_LEN;
            Desc {
                at,
                kind: read_u32(bytes, at),
                offset: read_u64(bytes, at + 8),
            }
        })
        .collect()
}

#[test]
fn truncation_at_every_interesting_offset_is_typed() {
    let bytes = saved_store_bytes("trunc");
    let table_end = HEADER_LEN + descriptors(&bytes).len() * DESC_LEN;
    let cuts = [
        0,
        1,
        4,
        7, // still a prefix of the magic
        8,
        15,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + DESC_LEN / 2, // mid-descriptor
        table_end,
        (table_end + bytes.len()) / 2, // mid-payload
        bytes.len() - 1,
    ];
    for cut in cuts {
        let got = load_store_from("trunc-cut", &bytes[..cut]);
        assert!(
            matches!(got, Err(DiskIndexError::Truncated { .. })),
            "cut at {cut}: expected Truncated, got {got:?}"
        );
    }
    // Not-even-an-index prefixes are BadMagic, not Truncated.
    assert!(matches!(
        load_store_from("trunc-garbage", b"garbage, not an index file"),
        Err(DiskIndexError::BadMagic)
    ));
}

#[test]
fn flipped_payload_byte_fails_checksum() {
    let bytes = saved_store_bytes("flip-payload");
    let descs = descriptors(&bytes);
    assert!(descs.len() >= 2, "exact store should have meta + rows");
    for d in &descs {
        let mut bad = bytes.clone();
        bad[d.offset as usize] ^= 0x01;
        let got = load_store_from("flip-payload-first", &bad);
        assert!(
            matches!(got, Err(DiskIndexError::Checksum { kind }) if kind == d.kind),
            "flip at section {} payload start: expected Checksum, got {got:?}",
            d.kind
        );
    }
    // The very last byte of the file belongs to the last payload.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    assert!(matches!(
        load_store_from("flip-payload-last", &bad),
        Err(DiskIndexError::Checksum { .. })
    ));
}

#[test]
fn flipped_checksum_field_fails_checksum() {
    let bytes = saved_store_bytes("flip-checksum");
    for d in descriptors(&bytes) {
        let mut bad = bytes.clone();
        bad[d.at + 24] ^= 0xFF; // low byte of the stored FNV-1a checksum
        let got = load_store_from("flip-checksum-field", &bad);
        assert!(
            matches!(got, Err(DiskIndexError::Checksum { kind }) if kind == d.kind),
            "flipped checksum of section {}: got {got:?}",
            d.kind
        );
    }
}

#[test]
fn misaligned_section_offset_is_rejected() {
    let bytes = saved_store_bytes("misalign");
    let descs = descriptors(&bytes);
    let table_end = (HEADER_LEN + descs.len() * DESC_LEN) as u64;
    // Pick a section whose offset can shrink by one byte and still pass
    // the bounds check, so the alignment check is what fires.
    let d = descs
        .iter()
        .find(|d| d.offset > table_end)
        .expect("a section with slack before its aligned payload");
    let mut bad = bytes.clone();
    bad[d.at + 8..d.at + 16].copy_from_slice(&(d.offset - 1).to_le_bytes());
    let got = load_store_from("misalign-minus-one", &bad);
    assert!(
        matches!(got, Err(DiskIndexError::Unaligned { kind }) if kind == d.kind),
        "offset {} -> {}: expected Unaligned, got {got:?}",
        d.offset,
        d.offset - 1
    );
    // Any non-multiple of SECTION_ALIGN inside bounds is equally bad.
    let skew = d.offset - (SECTION_ALIGN as u64) / 2;
    let mut bad = bytes.clone();
    bad[d.at + 8..d.at + 16].copy_from_slice(&skew.to_le_bytes());
    assert!(matches!(
        load_store_from("misalign-half", &bad),
        Err(DiskIndexError::Unaligned { .. })
    ));
}

#[test]
fn out_of_bounds_section_offsets_are_bad_header() {
    let bytes = saved_store_bytes("oob");
    let d = &descriptors(&bytes)[0];
    // Offset past the end of the file (aligned, so the bounds check is
    // the one that fires, not alignment).
    let past = (bytes.len() as u64).next_multiple_of(SECTION_ALIGN as u64);
    let mut bad = bytes.clone();
    bad[d.at + 8..d.at + 16].copy_from_slice(&past.to_le_bytes());
    assert!(matches!(
        load_store_from("oob-offset", &bad),
        Err(DiskIndexError::BadHeader(_))
    ));
    // offset + len overflowing u64 must be caught, not wrapped.
    let mut bad = bytes.clone();
    bad[d.at + 8..d.at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    bad[d.at + 16..d.at + 24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        load_store_from("oob-overflow", &bad),
        Err(DiskIndexError::BadHeader(_))
    ));
}

#[test]
fn corrupted_header_fields_are_typed() {
    let bytes = saved_store_bytes("header");

    let mut bad = bytes.clone();
    bad[0] ^= 0x20; // magic
    assert!(matches!(
        load_store_from("header-magic", &bad),
        Err(DiskIndexError::BadMagic)
    ));

    let mut bad = bytes.clone();
    bad[8] = 0xFE; // version
    assert!(matches!(
        load_store_from("header-version", &bad),
        Err(DiskIndexError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[12..16].rotate_left(1); // endian canary permuted
    assert!(matches!(
        load_store_from("header-endian", &bad),
        Err(DiskIndexError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // section count
    assert!(matches!(
        load_store_from("header-nsections", &bad),
        Err(DiskIndexError::BadHeader(_))
    ));

    // Claimed length disagreeing with reality, both directions.
    let claimed = read_u64(&bytes, 24);
    let mut bad = bytes.clone();
    bad[24..32].copy_from_slice(&(claimed + 1).to_le_bytes());
    assert!(matches!(
        load_store_from("header-len-long", &bad),
        Err(DiskIndexError::Truncated { .. })
    ));
    let mut bad = bytes.clone();
    bad[24..32].copy_from_slice(&(claimed - 1).to_le_bytes());
    assert!(matches!(
        load_store_from("header-len-short", &bad),
        Err(DiskIndexError::Oversized { .. })
    ));
}

#[test]
fn header_and_table_bytes_never_panic_when_flipped() {
    // One-at-a-time bit flips over the whole header + descriptor table.
    // Some flips land in padding the parser ignores (load succeeds);
    // everything else must come back as a typed error. Either way:
    // no panic, no abort.
    let bytes = saved_store_bytes("sweep");
    let table_end = HEADER_LEN + descriptors(&bytes).len() * DESC_LEN;
    for at in 0..table_end {
        let mut bad = bytes.clone();
        bad[at] ^= 0xA5;
        let _ = load_store_from("sweep-flip", &bad);
    }
}

#[test]
fn engine_index_maps_corruption_into_persist_error() {
    let (bytes, cfg) = saved_index_bytes("engine");
    let path = tmp("engine-corrupt");

    // Truncation mid-payload.
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
    assert!(matches!(
        load_index(&path, &cfg),
        Err(PersistError::Format(DiskIndexError::Truncated { .. }))
    ));

    // Flipped byte in the last section payload.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        load_index(&path, &cfg),
        Err(PersistError::Format(DiskIndexError::Checksum { .. }))
    ));

    // Misaligned section offset patched into the descriptor table.
    let descs = descriptors(&bytes);
    let table_end = (HEADER_LEN + descs.len() * DESC_LEN) as u64;
    let d = descs
        .iter()
        .find(|d| d.offset > table_end)
        .expect("a section with slack before its aligned payload");
    let mut bad = bytes.clone();
    bad[d.at + 8..d.at + 16].copy_from_slice(&(d.offset - 1).to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        load_index(&path, &cfg),
        Err(PersistError::Format(DiskIndexError::Unaligned { .. }))
    ));

    // Wrong file entirely.
    std::fs::write(&path, b"not an index").unwrap();
    assert!(matches!(
        load_index(&path, &cfg),
        Err(PersistError::Format(DiskIndexError::BadMagic))
    ));

    // A file in the retired embeddings-only format (magic, then u64
    // header fields) is a format error like any other foreign file.
    let mut old = b"SEESAW01".to_vec();
    for field in [128u64, 3120, 240, 1] {
        old.extend_from_slice(&field.to_le_bytes());
    }
    std::fs::write(&path, &old).unwrap();
    assert!(matches!(
        load_index(&path, &cfg),
        Err(PersistError::Format(DiskIndexError::BadMagic))
    ));
    std::fs::remove_file(&path).ok();

    // Missing file is an I/O error, not a format error.
    let gone = tmp("engine-missing");
    std::fs::remove_file(&gone).ok();
    assert!(matches!(load_index(&gone, &cfg), Err(PersistError::Io(_))));
}
