//! Adversarial `SSAWIDX1` corruption tests.
//!
//! Every test here takes a valid saved index or store file, damages it
//! in a targeted way — truncation, flipped payload bytes, flipped
//! checksum fields, misaligned or out-of-bounds section offsets,
//! header field corruption, a hostile but checksum-valid `STORE_META` —
//! and asserts the loader reports a *typed* error ([`DiskIndexError`]
//! at the store layer, [`PersistError`] at the engine layer) without
//! panicking. A final sweep flips every byte of the header and
//! descriptor table one at a time and only requires "no panic":
//! padding bytes are legitimately ignored by the parser.
//!
//! Layout facts these tests rely on (see `diskindex.rs`):
//! header = magic[8] | version u32 | endian u32 | n_sections u32 |
//! pad u32 | file_len u64 (32 bytes), then `n_sections` descriptors of
//! kind u32 | pad u32 | offset u64 | len u64 | checksum u64 (32 bytes
//! each), then payloads aligned to [`SECTION_ALIGN`].

use std::path::PathBuf;

use seesaw_core::{load_index, save_index, PersistError, PreprocessConfig, Preprocessor};
use seesaw_dataset::DatasetSpec;
use seesaw_vecstore::diskindex::{section, SECTION_ALIGN};
use seesaw_vecstore::{
    encode_store, load_store, save_store, store_from_file, AnyStore, DiskIndexError, IndexFile,
    IndexFileBuilder, RowPrecision, StoreConfig, RERANK_FACTOR,
};

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
fn version_one_file_is_unsupported() {
    // A format revision is marked by the header version alone, so a
    // version-1 file (per-tier f32 row kinds, a variable-length
    // `STORE_META`) is refused before any section is read.
    let mut bytes = saved_store_bytes("v1");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let got = load_store_from("v1", &bytes);
    assert!(
        matches!(
            got,
            Err(DiskIndexError::BadHeader("unsupported format version"))
        ),
        "expected the unsupported-version error, got {got:?}"
    );
}

/// A `STORE_META` payload: the backend tag (exact 0, forest 1), the
/// precision tag (f32 0, sq8 2, pq 3), then `fields` as u64s. A
/// well-formed one has eight: dim, n_rows, four backend build fields,
/// then PQ m and nbits.
fn store_meta(backend: u32, precision_tag: u32, fields: &[u64]) -> Vec<u8> {
    let mut meta = Vec::new();
    meta.extend_from_slice(&backend.to_le_bytes());
    meta.extend_from_slice(&precision_tag.to_le_bytes());
    for field in fields {
        meta.extend_from_slice(&field.to_le_bytes());
    }
    meta
}

/// A checksum-valid exact f32 store file of 4 rows × dim 8 whose
/// `STORE_META` carries `fields`.
fn crafted_store(fields: &[u64]) -> Vec<u8> {
    let (dim, rows) = (8u64, 4u64);
    let exact: Vec<u8> = (0..dim * rows)
        .flat_map(|i| (i as f32).sin().to_le_bytes())
        .collect();
    let mut b = IndexFileBuilder::new();
    b.section(section::STORE_META, store_meta(0, 0, fields));
    b.section(section::EXACT_ROWS, exact);
    b.to_bytes()
}

#[test]
fn store_meta_of_any_other_length_is_bad_header() {
    let fields = [8u64, 4, 0, 0, 0, 0, 0, 0];
    let file = IndexFile::from_bytes(crafted_store(&fields)).unwrap();
    let store = store_from_file(&file);
    assert!(matches!(store, Ok(AnyStore::Exact(_))), "{store:?}");
    // Short, long, and the version-1 layout (a shards slot before dim
    // and a re-rank slot after n_rows): all typed errors.
    let v1 = [1, 8, 4, RERANK_FACTOR as u64];
    let long = [&fields[..], &[0]].concat();
    for bad in [&fields[..7], &long[..], &v1[..], &[]] {
        let file = IndexFile::from_bytes(crafted_store(bad)).unwrap();
        let got = store_from_file(&file).map(|_| ());
        assert!(
            matches!(got, Err(DiskIndexError::BadHeader(_))),
            "{} meta fields: expected BadHeader, got {got:?}",
            bad.len()
        );
    }
}

#[test]
fn pq_store_with_empty_rerank_rows_is_bad_header() {
    // A real exact-PQ store (64 rows, dim 8) re-saved with an empty
    // `EXACT_ROWS`. Re-ranking reads every pooled row from that
    // section, so the file must not load (it used to load, then panic
    // on the first query's re-rank slice).
    let (dim, rows) = (8usize, 64usize);
    let data: Vec<f32> = (0..rows * dim).map(|i| (i as f32).sin()).collect();
    let store = StoreConfig::exact()
        .with_precision(RowPrecision::Pq { m: 4, nbits: 4 })
        .build(dim, data);
    let file = IndexFile::from_bytes(encode_store(&store)).unwrap();
    let mut b = IndexFileBuilder::new();
    for kind in [
        section::STORE_META,
        section::PQ_CODES,
        section::PQ_CODEBOOKS,
    ] {
        b.section(kind, file.section_bytes(kind).unwrap().to_vec());
    }
    b.section(section::EXACT_ROWS, Vec::new());
    let got = store_from_file(&IndexFile::from_bytes(b.to_bytes()).unwrap()).map(|_| ());
    assert!(
        matches!(got, Err(DiskIndexError::BadHeader(_))),
        "expected BadHeader, got {got:?}"
    );
}

#[test]
fn store_meta_with_overflowing_sizes_is_bad_header() {
    // Section sizes derived from a crafted dim or row count overflow
    // usize. Each must be a typed error, not an overflow panic (debug)
    // or a wrapped size that loads (release). Fields: dim, n_rows, four
    // backend build fields, then PQ m and nbits.
    let cases: [(&str, Vec<u8>, Vec<u32>); 4] = [
        (
            // The PQ codebook size m·2^nbits·dim/m with dim 2^60.
            "pq geometry",
            store_meta(0, 3, &[1 << 60, 0, 0, 0, 0, 0, 1, 8]),
            vec![
                section::PQ_CODES,
                section::PQ_CODEBOOKS,
                section::EXACT_ROWS,
            ],
        ),
        (
            // Two sq8 parameters per row with 2^63 rows.
            "sq8 params",
            store_meta(0, 2, &[1, 1 << 63, 0, 0, 0, 0, 0, 0]),
            vec![section::SQ8_CODES, section::SQ8_PARAMS, section::EXACT_ROWS],
        ),
        (
            // The exact row count 16 · 2^60.
            "exact rows",
            store_meta(0, 0, &[1 << 60, 16, 0, 0, 0, 0, 0, 0]),
            vec![section::EXACT_ROWS],
        ),
        (
            // The forest's rebuild-on-load row count 16 · 2^60.
            "forest rows",
            store_meta(1, 0, &[1 << 60, 16, 1, 1, 1, 0, 0, 0]),
            vec![section::EXACT_ROWS],
        ),
    ];
    for (label, meta, kinds) in cases {
        let mut b = IndexFileBuilder::new();
        b.section(section::STORE_META, meta);
        for kind in kinds {
            b.section(kind, Vec::new());
        }
        let got = store_from_file(&IndexFile::from_bytes(b.to_bytes()).unwrap()).map(|_| ());
        assert!(
            matches!(got, Err(DiskIndexError::BadHeader(_))),
            "{label}: expected BadHeader, got {got:?}"
        );
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

/// Engine section kinds (`persist::section`), as the format document
/// lists them.
const CORE_META: u32 = 100;
const PATCHES: u32 = 101;
const IMAGE_RANGES: u32 = 102;

/// Re-assemble a well-formed file with `edit` applied to every section
/// payload: the result is checksum-valid, so only the engine's own
/// cross-section checks stand between it and a loaded index.
fn resectioned(bytes: &[u8], edit: impl Fn(u32, &mut Vec<u8>)) -> Vec<u8> {
    let file = IndexFile::from_bytes(bytes.to_vec()).unwrap();
    let mut b = IndexFileBuilder::new();
    for d in descriptors(bytes) {
        let mut payload = file.section_bytes(d.kind).unwrap().to_vec();
        edit(d.kind, &mut payload);
        b.section(d.kind, payload);
    }
    b.to_bytes()
}

fn load_index_from(name: &str, bytes: &[u8], cfg: &PreprocessConfig) -> Result<(), PersistError> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let out = load_index(&path, cfg).map(|_| ());
    std::fs::remove_file(&path).ok();
    out
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The `IMAGE_RANGES` entries of a saved index.
fn ranges(bytes: &[u8]) -> Vec<(u32, u32)> {
    let file = IndexFile::from_bytes(bytes.to_vec()).unwrap();
    file.section_bytes(IMAGE_RANGES)
        .unwrap()
        .chunks_exact(8)
        .map(|r| (read_u32(r, 0), read_u32(r, 4)))
        .collect()
}

#[test]
fn core_meta_with_overflowing_counts_is_corrupt() {
    // `n_patches + 2^61` patches need `24 · n_patches` bytes, which wraps
    // back to the real section length in u64. The count must be a typed
    // error, not an overflow panic (debug) or a capacity panic (release).
    let (bytes, cfg) = saved_index_bytes("meta-overflow");
    let bad = resectioned(&bytes, |kind, payload| {
        if kind == CORE_META {
            let n = read_u64(payload, 8) + (1u64 << 61);
            payload[8..16].copy_from_slice(&n.to_le_bytes());
        }
    });
    let got = load_index_from("meta-overflow", &bad, &cfg);
    assert!(
        matches!(got, Err(PersistError::Corrupt(_))),
        "expected Corrupt, got {got:?}"
    );
}

#[test]
fn patch_naming_a_missing_image_is_corrupt() {
    // Patch 0 claims image `n_images`, which has no per-image state on
    // the request path.
    let (bytes, cfg) = saved_index_bytes("patch-image");
    let n_images = ranges(&bytes).len() as u32;
    let bad = resectioned(&bytes, |kind, payload| {
        if kind == PATCHES {
            put_u32(payload, 0, n_images);
        }
    });
    let got = load_index_from("patch-image", &bad, &cfg);
    assert!(
        matches!(got, Err(PersistError::Corrupt(_))),
        "expected Corrupt, got {got:?}"
    );
}

#[test]
fn empty_image_range_is_corrupt() {
    // Image 1's range shrinks to nothing and image 2 takes its patches
    // (relabelled), so the ranges still tile and every patch still
    // names its range: only the emptiness is wrong. Image 1's coarse
    // patch would be image 2's.
    let (bytes, cfg) = saved_index_bytes("empty-range");
    let r = ranges(&bytes);
    assert!(r.len() >= 3);
    let (a, b) = r[1];
    let bad = resectioned(&bytes, |kind, payload| match kind {
        IMAGE_RANGES => {
            put_u32(payload, 8 + 4, a); // image 1: (a, a)
            put_u32(payload, 16, a); // image 2: (a, its end)
        }
        PATCHES => {
            for p in a..b {
                put_u32(payload, p as usize * 24, 2);
            }
        }
        _ => {}
    });
    let got = load_index_from("empty-range", &bad, &cfg);
    assert!(
        matches!(got, Err(PersistError::Corrupt(_))),
        "expected Corrupt, got {got:?}"
    );
}

#[test]
fn overlapping_image_ranges_are_corrupt() {
    // Image 1's range reaches back over image 0's last patch.
    let (bytes, cfg) = saved_index_bytes("overlap-range");
    let (a, _) = ranges(&bytes)[1];
    assert!(a >= 1);
    let bad = resectioned(&bytes, |kind, payload| {
        if kind == IMAGE_RANGES {
            put_u32(payload, 8, a - 1);
        }
    });
    let got = load_index_from("overlap-range", &bad, &cfg);
    assert!(
        matches!(got, Err(PersistError::Corrupt(_))),
        "expected Corrupt, got {got:?}"
    );
}
