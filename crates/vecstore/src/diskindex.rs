//! Zero-copy on-disk index format: save a built store once, `mmap(2)`
//! it back in milliseconds.
//!
//! Rebuilding a vector store from raw embeddings at startup costs a
//! full pass over the data (plus k-means / tree construction for the
//! partitioned backends) — seconds to minutes at the 10M-row scale the
//! ROADMAP targets, all spent recomputing state that was already
//! computed. This module gives every [`AnyStore`] a versioned,
//! little-endian, section-aligned serialization:
//!
//! * [`save_store`] writes a `SSAWIDX1` file: a fixed 32-byte header,
//!   one 32-byte descriptor per section (kind, offset, length, FNV-1a
//!   checksum), and 64-byte-aligned payloads.
//! * [`load_store`] maps the file read-only ([`Mmap`], a direct
//!   `mmap(2)` FFI shim in the style of the server's poll shim — the
//!   workspace builds with zero external crates) and reconstructs the
//!   store. The dense row payloads (f32 / f16 / SQ8 rows, and the SQ8
//!   exact-rerank source rows) are **not copied**: [`MappedSlice`]
//!   hands the kernels `&[T]` views straight into the page cache, so
//!   cold-start cost is O(sections) header parsing, not O(data) — the
//!   rows fault in lazily as queries touch them.
//!
//! Loaded stores are *bit-identical* to the in-RAM stores they were
//! saved from: the same bytes flow through the same kernels, so every
//! score, ranking, and tie-break is unchanged (pinned by
//! `tests/store_equivalence.rs`). Per-variant strategy:
//!
//! | store | on disk | on load |
//! |---|---|---|
//! | `Exact` | row payload per precision | zero-copy rows |
//! | `Ivf` | rows + centroids + flattened lists | zero-copy rows; the small centroid/list sections are copied |
//! | `Forest` | raw f32 rows + build config | deterministic rebuild (tree nodes are cheap to rebuild and pointer-heavy to serialize) |
//! | `Sharded*` | raw f32 rows in original order + config | deterministic rebuild via [`StoreConfig::build`] |
//!
//! The format is explicitly little-endian (the header carries an
//! endian tag and this module refuses to compile on big-endian
//! targets) and all multi-byte fields are naturally aligned, which is
//! what makes the zero-copy reinterpretation sound. Checksums cover
//! every payload; [`IndexFile::open`] verifies the small structural
//! sections eagerly and leaves bulk row payloads to
//! [`IndexFile::open_verified`] (used by tests and offline tooling) so
//! the fast path never touches the bulk data.

use std::fmt;
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::storage::{PqRows, RowPrecision, RowStorage, Sq8Rows};
use crate::{
    AnyStore, ExactStore, IvfConfig, IvfStore, RpForestConfig, ShardedStore, StoreConfig,
    VectorStore, SQ8_RERANK_FACTOR,
};

#[cfg(target_endian = "big")]
compile_error!(
    "the SSAWIDX1 on-disk index format is little-endian and loaded zero-copy; \
     big-endian targets are not supported"
);

/// File magic: `SSAWIDX` plus the format generation.
pub const MAGIC: [u8; 8] = *b"SSAWIDX1";
/// Format version within the `SSAWIDX1` generation.
pub const VERSION: u32 = 1;
/// Endianness canary stored in the header; reads back permuted on a
/// wrong-endian reader.
const ENDIAN_TAG: u32 = 0x0102_0304;
/// Every section payload starts on a 64-byte boundary (cache line;
/// also ≥ the alignment of every element type the format stores).
pub const SECTION_ALIGN: usize = 64;

const HEADER_LEN: usize = 32;
const DESC_LEN: usize = 32;
/// Sections at most this large are checksum-verified on every open;
/// larger (bulk row) sections only by [`IndexFile::open_verified`].
const EAGER_VERIFY_LIMIT: u64 = 1 << 20;
/// Sanity cap on the section count a header may claim.
const MAX_SECTIONS: u32 = 1 << 16;

/// Section kinds used by the store serialization. The engine-level
/// persistence layer (seesaw-core) namespaces its own kinds at ≥ 100.
pub mod section {
    /// Store metadata: backend/precision tags, shape, build config.
    pub const STORE_META: u32 = 1;
    /// Dense f32 rows (row-major).
    pub const ROWS_F32: u32 = 2;
    /// Dense f16 rows (IEEE binary16 bit patterns, row-major).
    pub const ROWS_F16: u32 = 3;
    /// SQ8 u8 codes (row-major).
    pub const SQ8_CODES: u32 = 4;
    /// SQ8 per-row `(scale, offset)` f32 pairs.
    pub const SQ8_PARAMS: u32 = 5;
    /// SQ8 exact f32 source rows (the re-ranking tier).
    pub const SQ8_SOURCE: u32 = 6;
    /// IVF centroid matrix (`n_lists × dim`, f32).
    pub const IVF_CENTROIDS: u32 = 7;
    /// IVF list start offsets (`n_lists + 1` u64s) into the id pool.
    pub const IVF_LIST_OFFSETS: u32 = 8;
    /// IVF flattened row-id pool (u32).
    pub const IVF_LIST_IDS: u32 = 9;
    /// Raw f32 rows in original order, for rebuild-on-load backends.
    pub const RAW_ROWS: u32 = 10;
    /// PQ codebooks (`m × k × dsub` f32, subspace-major).
    pub const PQ_CODEBOOKS: u32 = 11;
    /// PQ u8 code matrix (`n_rows × m`, row-major).
    pub const PQ_CODES: u32 = 12;
    /// Exact f32 re-rank source rows for a quantized tier. Written as
    /// part of every PQ index, and as the sole section of the sidecar
    /// file [`super::spill_rerank_rows`] produces; loaded as a mapped
    /// (demand-paged) view either way.
    pub const PQ_RERANK_ROWS: u32 = 13;
}

/// Errors from writing, mapping, or parsing an index file.
#[derive(Debug)]
pub enum DiskIndexError {
    /// Underlying filesystem or mmap failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// A structurally invalid header, descriptor, or section payload.
    BadHeader(&'static str),
    /// The file is shorter than its header claims.
    Truncated {
        /// Byte length the header claims.
        expected: u64,
        /// Byte length actually present.
        actual: u64,
    },
    /// The file is longer than its header claims (trailing garbage —
    /// rejected rather than ignored, so corruption cannot hide).
    Oversized {
        /// Byte length the header claims.
        expected: u64,
        /// Byte length actually present.
        actual: u64,
    },
    /// A section payload failed its FNV-1a checksum.
    Checksum {
        /// Section kind that failed verification.
        kind: u32,
    },
    /// A section the loader requires is absent.
    MissingSection {
        /// The missing section kind.
        kind: u32,
    },
    /// A section payload is misaligned for its element type.
    Unaligned {
        /// Section kind with the misaligned payload.
        kind: u32,
    },
}

impl fmt::Display for DiskIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "index file I/O error: {e}"),
            Self::BadMagic => write!(f, "not a SSAWIDX1 index file (bad magic)"),
            Self::BadHeader(what) => write!(f, "malformed index file: {what}"),
            Self::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated index file: header claims {expected} bytes, file has {actual}"
                )
            }
            Self::Oversized { expected, actual } => {
                write!(
                    f,
                    "oversized index file: header claims {expected} bytes, file has {actual}"
                )
            }
            Self::Checksum { kind } => write!(f, "checksum mismatch in section kind {kind}"),
            Self::MissingSection { kind } => write!(f, "missing required section kind {kind}"),
            Self::Unaligned { kind } => write!(f, "misaligned payload in section kind {kind}"),
        }
    }
}

impl std::error::Error for DiskIndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DiskIndexError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64-bit: the format's payload checksum. Not cryptographic —
/// it catches truncation, bit rot, and editor accidents, which is the
/// threat model for a local index sidecar file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// mmap shim — the only unsafe in the crate, mirroring the server's
// poll shim: direct FFI onto symbols std already links, with checked
// return values.
// ---------------------------------------------------------------------

#[cfg(unix)]
#[allow(unsafe_code)] // FFI shim: see the module docs above.
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only, private mapping of an entire file. Page-aligned by
    /// the kernel, which is what guarantees the element alignment of
    /// every section view carved out of it.
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared
    // memory — and is never remapped or written through after
    // construction, so concurrent reads from any thread are sound.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn of_file(file: &File, len: usize) -> io::Result<Self> {
            debug_assert!(len > 0, "zero-length files use the owned fallback");
            // SAFETY: plain syscall; the kernel validates the fd and
            // length and returns MAP_FAILED on any problem.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping owned
            // by `self`; the slice's lifetime is tied to `&self`.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly the region we mapped, once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// A read-only byte image of an index file: an `mmap(2)` of the whole
/// file on Unix, an owned in-memory copy for empty files and non-Unix
/// targets. Shared via `Arc` by every [`MappedSlice`] carved from it,
/// so the mapping lives exactly as long as the last view into it.
pub struct Mmap {
    inner: MmapInner,
}

enum MmapInner {
    #[cfg(unix)]
    Mapped(sys::Map),
    /// Owned fallback. Backed by `u64` storage so the base pointer is
    /// 8-byte aligned — enough for every element type in the format.
    Owned { words: Vec<u64>, len: usize },
}

impl Mmap {
    /// Map `path` read-only.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        #[cfg(unix)]
        if len > 0 {
            return Ok(Self {
                inner: MmapInner::Mapped(sys::Map::of_file(&file, len)?),
            });
        }
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(Self::from_vec(bytes))
    }

    /// Wrap an in-memory image (tests; non-Unix fallback).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        for (i, &b) in bytes.iter().enumerate() {
            words[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Self {
            inner: MmapInner::Owned { words, len },
        }
    }

    /// The full file image.
    #[allow(unsafe_code)] // &[u64] → &[u8] prefix view; see SAFETY below.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            MmapInner::Mapped(m) => m.bytes(),
            MmapInner::Owned { words, len } => {
                // SAFETY: every byte of an initialized `u64` buffer is
                // itself initialized; `len ≤ words.len() * 8` by
                // construction, and u8 has no alignment requirement.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.bytes().len())
            .finish()
    }
}

/// A typed, zero-copy `&[T]` view into a shared [`Mmap`]. Cloning is a
/// reference-count bump; the underlying mapping is dropped when the
/// last view (or [`Mmap`] handle) goes away. Construction validates
/// bounds, element-size divisibility, and pointer alignment, so
/// [`MappedSlice::as_slice`] is infallible afterward.
pub struct MappedSlice<T> {
    map: Arc<Mmap>,
    /// Byte offset of the first element within the mapping.
    offset: usize,
    /// Element count.
    len: usize,
    _marker: PhantomData<T>,
}

impl<T> Clone for MappedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            map: Arc::clone(&self.map),
            offset: self.offset,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for MappedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedSlice")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
}

/// Element types that may be reinterpreted from mapped file bytes:
/// fixed-layout primitives for which every bit pattern is a valid
/// value. Sealed — soundness of [`MappedSlice`] depends on it.
pub trait Pod: Copy + private::Sealed + 'static {}
impl Pod for u8 {}
impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for f32 {}

impl<T: Pod> MappedSlice<T> {
    fn new(
        map: Arc<Mmap>,
        offset: usize,
        len_bytes: usize,
        kind: u32,
    ) -> Result<Self, DiskIndexError> {
        let total = map.bytes().len();
        if offset.checked_add(len_bytes).is_none_or(|end| end > total) {
            return Err(DiskIndexError::BadHeader("section out of file bounds"));
        }
        if !len_bytes.is_multiple_of(std::mem::size_of::<T>()) {
            return Err(DiskIndexError::BadHeader(
                "section length is not a multiple of the element size",
            ));
        }
        let base = map.bytes().as_ptr() as usize;
        if !(base + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(DiskIndexError::Unaligned { kind });
        }
        Ok(Self {
            map,
            offset,
            len: len_bytes / std::mem::size_of::<T>(),
            _marker: PhantomData,
        })
    }

    /// The mapped elements.
    #[allow(unsafe_code)] // validated reinterpretation; see SAFETY below.
    pub fn as_slice(&self) -> &[T] {
        let bytes =
            &self.map.bytes()[self.offset..self.offset + self.len * std::mem::size_of::<T>()];
        // SAFETY: `new` checked bounds, size divisibility, and pointer
        // alignment; `T: Pod` guarantees every bit pattern is valid;
        // the mapping is immutable for its lifetime, which contains
        // the returned slice's lifetime.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, self.len) }
    }
}

impl<T: Pod> Deref for MappedSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Accumulates sections and serializes them as one `SSAWIDX1` blob.
#[derive(Default)]
pub struct IndexFileBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl IndexFileBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Order is preserved; kinds should be unique
    /// (lookup returns the first match).
    pub fn section(&mut self, kind: u32, payload: Vec<u8>) -> &mut Self {
        self.sections.push((kind, payload));
        self
    }

    /// Serialize: header, descriptor table, then payloads, each payload
    /// aligned to [`SECTION_ALIGN`] (gaps zero-filled).
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * DESC_LEN;
        // Lay out payload offsets first so the header can record the
        // exact final length.
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = table_end;
        for (_, payload) in &self.sections {
            cursor = cursor.next_multiple_of(SECTION_ALIGN);
            offsets.push(cursor);
            cursor += payload.len();
        }
        let file_len = cursor;

        let mut out = Vec::with_capacity(file_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // pad
        out.extend_from_slice(&(file_len as u64).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        for ((kind, payload), &offset) in self.sections.iter().zip(&offsets) {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // pad
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        }
        for ((_, payload), &offset) in self.sections.iter().zip(&offsets) {
            out.resize(offset, 0);
            out.extend_from_slice(payload);
        }
        debug_assert_eq!(out.len(), file_len);
        out
    }

    /// Write the serialized index to `path` (replacing any existing
    /// file) via a same-directory temporary and an atomic rename, so a
    /// crash mid-write never leaves a half-written index behind.
    pub fn write_to_file(&self, path: &Path) -> io::Result<()> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp-ssawidx");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct SectionDesc {
    kind: u32,
    /// Byte offset relative to the blob base.
    offset: u64,
    len: u64,
    checksum: u64,
}

/// A parsed (and possibly nested) `SSAWIDX1` blob over a shared
/// mapping: section lookup, typed zero-copy views, checksum
/// verification.
#[derive(Clone, Debug)]
pub struct IndexFile {
    map: Arc<Mmap>,
    /// Byte offset of this blob within the mapping (non-zero for
    /// nested blobs).
    base: usize,
    sections: Vec<SectionDesc>,
}

impl IndexFile {
    /// Map and parse `path`. Sections up to 1 MiB are
    /// checksum-verified; bulk sections are left to
    /// [`IndexFile::open_verified`].
    pub fn open(path: &Path) -> Result<Self, DiskIndexError> {
        Self::open_inner(path, false)
    }

    /// Map and parse `path`, checksum-verifying **every** section
    /// (reads all payload bytes — O(file size)).
    pub fn open_verified(path: &Path) -> Result<Self, DiskIndexError> {
        Self::open_inner(path, true)
    }

    fn open_inner(path: &Path, verify_all: bool) -> Result<Self, DiskIndexError> {
        let map = Arc::new(Mmap::open(path)?);
        let len = map.bytes().len();
        Self::parse(map, 0, len, verify_all)
    }

    /// Parse an in-memory image (tests; network-received blobs).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, DiskIndexError> {
        let map = Arc::new(Mmap::from_vec(bytes));
        let len = map.bytes().len();
        Self::parse(map, 0, len, true)
    }

    fn parse(
        map: Arc<Mmap>,
        base: usize,
        region_len: usize,
        verify_all: bool,
    ) -> Result<Self, DiskIndexError> {
        let bytes = &map.bytes()[base..base + region_len];
        // Magic first, on whatever prefix exists: a short file that is
        // not even an index reports `BadMagic`, not `Truncated`.
        let head = &bytes[..bytes.len().min(8)];
        if head != &MAGIC[..head.len()] {
            return Err(DiskIndexError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(DiskIndexError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(DiskIndexError::BadHeader("unsupported format version"));
        }
        if read_u32(bytes, 12) != ENDIAN_TAG {
            return Err(DiskIndexError::BadHeader("endianness mismatch"));
        }
        let n_sections = read_u32(bytes, 16);
        if n_sections > MAX_SECTIONS {
            return Err(DiskIndexError::BadHeader("implausible section count"));
        }
        let file_len = read_u64(bytes, 24);
        let actual = bytes.len() as u64;
        if actual < file_len {
            return Err(DiskIndexError::Truncated {
                expected: file_len,
                actual,
            });
        }
        if actual > file_len {
            return Err(DiskIndexError::Oversized {
                expected: file_len,
                actual,
            });
        }
        let table_end = HEADER_LEN as u64 + n_sections as u64 * DESC_LEN as u64;
        if file_len < table_end {
            return Err(DiskIndexError::Truncated {
                expected: table_end,
                actual: file_len,
            });
        }
        let mut sections = Vec::with_capacity(n_sections as usize);
        for i in 0..n_sections as usize {
            let d = HEADER_LEN + i * DESC_LEN;
            let desc = SectionDesc {
                kind: read_u32(bytes, d),
                offset: read_u64(bytes, d + 8),
                len: read_u64(bytes, d + 16),
                checksum: read_u64(bytes, d + 24),
            };
            let end = desc
                .offset
                .checked_add(desc.len)
                .ok_or(DiskIndexError::BadHeader("section range overflows"))?;
            if desc.offset < table_end || end > file_len {
                return Err(DiskIndexError::BadHeader("section out of file bounds"));
            }
            if !desc.offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(DiskIndexError::Unaligned { kind: desc.kind });
            }
            if verify_all || desc.len <= EAGER_VERIFY_LIMIT {
                let payload = &bytes[desc.offset as usize..end as usize];
                if fnv1a64(payload) != desc.checksum {
                    return Err(DiskIndexError::Checksum { kind: desc.kind });
                }
            }
            sections.push(desc);
        }
        Ok(Self {
            map,
            base,
            sections,
        })
    }

    fn desc(&self, kind: u32) -> Result<SectionDesc, DiskIndexError> {
        self.sections
            .iter()
            .copied()
            .find(|d| d.kind == kind)
            .ok_or(DiskIndexError::MissingSection { kind })
    }

    /// Whether a section of `kind` is present.
    pub fn has_section(&self, kind: u32) -> bool {
        self.sections.iter().any(|d| d.kind == kind)
    }

    /// Borrow a section's raw payload bytes.
    pub fn section_bytes(&self, kind: u32) -> Result<&[u8], DiskIndexError> {
        let d = self.desc(kind)?;
        let start = self.base + d.offset as usize;
        Ok(&self.map.bytes()[start..start + d.len as usize])
    }

    /// A typed zero-copy view of a section (shares the mapping).
    pub fn section_slice<T: Pod>(&self, kind: u32) -> Result<MappedSlice<T>, DiskIndexError> {
        let d = self.desc(kind)?;
        MappedSlice::new(
            Arc::clone(&self.map),
            self.base + d.offset as usize,
            d.len as usize,
            kind,
        )
    }

    /// Parse a section's payload as a nested `SSAWIDX1` blob sharing
    /// this mapping. Because section payloads start on
    /// [`SECTION_ALIGN`] boundaries at every nesting level, the inner
    /// blob's own section alignment holds absolutely.
    pub fn nested(&self, kind: u32) -> Result<IndexFile, DiskIndexError> {
        let d = self.desc(kind)?;
        Self::parse(
            Arc::clone(&self.map),
            self.base + d.offset as usize,
            d.len as usize,
            false,
        )
    }
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[inline]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn le_bytes_f32(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_u16(v: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 2);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_u32(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_u64(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------
// Store metadata (section::STORE_META)
// ---------------------------------------------------------------------

const BACKEND_EXACT: u32 = 0;
const BACKEND_FOREST: u32 = 1;
const BACKEND_IVF: u32 = 2;

const PRECISION_TAG_PQ: u32 = 3;

fn precision_tag(p: RowPrecision) -> u32 {
    match p {
        RowPrecision::F32 => 0,
        RowPrecision::F16 => 1,
        RowPrecision::Sq8 => 2,
        RowPrecision::Pq { .. } => PRECISION_TAG_PQ,
    }
}

/// Everything needed to rebuild (or validate) a store besides its bulk
/// payload sections: a decoded `STORE_META`.
struct StoreMeta {
    config: StoreConfig,
    dim: usize,
    n_rows: usize,
}

fn encode_meta(config: &StoreConfig, dim: usize, n_rows: usize) -> Vec<u8> {
    let mut w = Vec::new();
    let (backend, extras): (u32, Vec<u64>) = match config {
        StoreConfig::Exact { .. } => (BACKEND_EXACT, Vec::new()),
        StoreConfig::RpForest { config: c, .. } => (
            BACKEND_FOREST,
            vec![
                c.n_trees as u64,
                c.leaf_size as u64,
                c.search_k as u64,
                c.seed,
            ],
        ),
        StoreConfig::Ivf { config: c, .. } => (
            BACKEND_IVF,
            vec![
                c.n_lists as u64,
                c.n_probe as u64,
                c.train_iters as u64,
                c.seed,
            ],
        ),
    };
    w.extend_from_slice(&backend.to_le_bytes());
    w.extend_from_slice(&precision_tag(config.precision()).to_le_bytes());
    w.extend_from_slice(&(config.shards() as u64).to_le_bytes());
    w.extend_from_slice(&(dim as u64).to_le_bytes());
    w.extend_from_slice(&(n_rows as u64).to_le_bytes());
    for x in extras {
        w.extend_from_slice(&x.to_le_bytes());
    }
    // Trailing extras after the backend block, length-driven on decode
    // (older files omit them entirely): the quantized-tier re-rank
    // pool factor, and the PQ geometry when the precision is PQ.
    w.extend_from_slice(&(config.rerank_factor() as u64).to_le_bytes());
    if let RowPrecision::Pq { m, nbits } = config.precision() {
        w.extend_from_slice(&(m as u64).to_le_bytes());
        w.extend_from_slice(&(nbits as u64).to_le_bytes());
    }
    w
}

fn decode_meta(bytes: &[u8]) -> Result<StoreMeta, DiskIndexError> {
    let fixed = 4 + 4 + 8 + 8 + 8;
    if bytes.len() < fixed {
        return Err(DiskIndexError::BadHeader("store meta too short"));
    }
    let backend = read_u32(bytes, 0);
    let precision_tag = read_u32(bytes, 4);
    let shards = read_u64(bytes, 8) as usize;
    let dim = read_u64(bytes, 16) as usize;
    let n_rows = read_u64(bytes, 24) as usize;
    if dim == 0 {
        return Err(DiskIndexError::BadHeader("store meta has zero dim"));
    }
    let n_backend = match backend {
        BACKEND_EXACT => 0,
        BACKEND_FOREST | BACKEND_IVF => 4,
        _ => return Err(DiskIndexError::BadHeader("unknown backend tag")),
    };
    let backend_end = fixed + 8 * n_backend;
    if bytes.len() < backend_end {
        return Err(DiskIndexError::BadHeader("store meta length mismatch"));
    }
    let e: Vec<u64> = (0..n_backend)
        .map(|i| read_u64(bytes, fixed + 8 * i))
        .collect();
    // Trailing extras, length-driven so pre-PQ files (no tail) keep
    // decoding: 8 bytes carry the re-rank pool factor, 24 add the PQ
    // geometry (required when the precision tag is PQ).
    let (rerank_factor, pq_geom) = match bytes.len() - backend_end {
        0 => (SQ8_RERANK_FACTOR as u64, None),
        8 => (read_u64(bytes, backend_end), None),
        24 => (
            read_u64(bytes, backend_end),
            Some((
                read_u64(bytes, backend_end + 8),
                read_u64(bytes, backend_end + 16),
            )),
        ),
        _ => return Err(DiskIndexError::BadHeader("store meta length mismatch")),
    };
    if rerank_factor == 0 {
        return Err(DiskIndexError::BadHeader(
            "store meta has zero rerank factor",
        ));
    }
    let rerank_factor = rerank_factor as usize;
    let precision = match precision_tag {
        0 => RowPrecision::F32,
        1 => RowPrecision::F16,
        2 => RowPrecision::Sq8,
        PRECISION_TAG_PQ => {
            let Some((m, nbits)) = pq_geom else {
                return Err(DiskIndexError::BadHeader("pq store meta missing geometry"));
            };
            if m == 0 || !(1..=8).contains(&nbits) || !(dim as u64).is_multiple_of(m) {
                return Err(DiskIndexError::BadHeader("pq store meta geometry invalid"));
            }
            RowPrecision::Pq {
                m: m as usize,
                nbits: nbits as u32,
            }
        }
        _ => return Err(DiskIndexError::BadHeader("unknown precision tag")),
    };
    let config = match backend {
        BACKEND_EXACT => StoreConfig::Exact {
            shards,
            precision,
            rerank_factor,
        },
        BACKEND_FOREST => StoreConfig::RpForest {
            config: RpForestConfig {
                n_trees: e[0] as usize,
                leaf_size: e[1] as usize,
                search_k: e[2] as usize,
                seed: e[3],
            },
            shards,
        },
        BACKEND_IVF => StoreConfig::Ivf {
            config: IvfConfig {
                n_lists: e[0] as usize,
                n_probe: e[1] as usize,
                train_iters: e[2] as usize,
                seed: e[3],
            },
            shards,
            precision,
            rerank_factor,
        },
        _ => unreachable!("backend tag validated above"),
    };
    Ok(StoreMeta {
        config,
        dim,
        n_rows,
    })
}

// ---------------------------------------------------------------------
// Store save / load
// ---------------------------------------------------------------------

fn row_sections(builder: &mut IndexFileBuilder, rows: &RowStorage) {
    match rows {
        RowStorage::F32(d) => {
            builder.section(section::ROWS_F32, le_bytes_f32(d));
        }
        RowStorage::F16(d) => {
            builder.section(section::ROWS_F16, le_bytes_u16(d));
        }
        RowStorage::Sq8(q) => {
            builder.section(section::SQ8_CODES, q.codes().to_vec());
            builder.section(section::SQ8_PARAMS, le_bytes_f32(q.params()));
            builder.section(section::SQ8_SOURCE, le_bytes_f32(q.source()));
        }
        RowStorage::Pq(p) => {
            builder.section(section::PQ_CODES, p.codes().to_vec());
            builder.section(section::PQ_CODEBOOKS, le_bytes_f32(p.codebooks()));
            builder.section(section::PQ_RERANK_ROWS, le_bytes_f32(p.source()));
        }
    }
}

fn rows_from_file(
    file: &IndexFile,
    precision: RowPrecision,
    dim: usize,
    n_rows: usize,
) -> Result<RowStorage, DiskIndexError> {
    let want = n_rows
        .checked_mul(dim)
        .ok_or(DiskIndexError::BadHeader("row count overflows"))?;
    let rows = match precision {
        RowPrecision::F32 => RowStorage::F32(file.section_slice(section::ROWS_F32)?.into()),
        RowPrecision::F16 => RowStorage::F16(file.section_slice(section::ROWS_F16)?.into()),
        RowPrecision::Sq8 => {
            let codes = file.section_slice::<u8>(section::SQ8_CODES)?;
            let params = file.section_slice::<f32>(section::SQ8_PARAMS)?;
            let source = file.section_slice::<f32>(section::SQ8_SOURCE)?;
            if params.len() != 2 * n_rows || source.len() != want {
                return Err(DiskIndexError::BadHeader("sq8 section shape mismatch"));
            }
            RowStorage::Sq8(Sq8Rows::from_parts(
                codes.into(),
                params.into(),
                source.into(),
            ))
        }
        RowPrecision::Pq { m, nbits } => {
            // decode_meta validated m | dim, m > 0, 1 ≤ nbits ≤ 8.
            let dsub = dim / m;
            let k = 1usize << nbits;
            let codes = file.section_slice::<u8>(section::PQ_CODES)?;
            let codebooks = file.section_slice::<f32>(section::PQ_CODEBOOKS)?;
            let source = file.section_slice::<f32>(section::PQ_RERANK_ROWS)?;
            if codes.len() != n_rows * m || codebooks.len() != m * k * dsub {
                return Err(DiskIndexError::BadHeader("pq section shape mismatch"));
            }
            if !source.is_empty() && source.len() != want {
                return Err(DiskIndexError::BadHeader("pq section shape mismatch"));
            }
            // Every section stays a mapped view. The re-rank source in
            // particular is demand-paged: queries fault in only the
            // pool they re-rank, so steady-state residency is codes +
            // codebooks (see `RowStorage::resident_bytes`).
            RowStorage::Pq(PqRows::from_parts(
                m,
                nbits,
                dsub,
                codes.into(),
                codebooks.into(),
                source.into(),
            ))
        }
    };
    if rows.len() != want {
        return Err(DiskIndexError::BadHeader("row section shape mismatch"));
    }
    Ok(rows)
}

/// Collect the original-order f32 row matrix of a sharded store (the
/// rebuild-on-load payload). SQ8 shards export their exact source
/// rows and f16 shards their decoded rows, so rebuilding re-encodes
/// to bit-identical storage (f16 round-trips exactly; SQ8 re-derives
/// identical params and codes from identical sources).
fn sharded_raw_rows<S: VectorStore>(
    store: &ShardedStore<S>,
    export: impl Fn(&S, u32, &mut [f32]),
) -> Vec<f32> {
    let dim = store.dim();
    let mut data = vec![0.0f32; store.len() * dim];
    for s in 0..store.n_shards() {
        let backend = store.shard_store(s);
        for (local, &global) in store.shard_ids(s).iter().enumerate() {
            let at = global as usize * dim;
            export(backend, local as u32, &mut data[at..at + dim]);
        }
    }
    data
}

/// Serialize a store to an in-memory `SSAWIDX1` blob.
pub fn encode_store(store: &AnyStore) -> Vec<u8> {
    let mut b = IndexFileBuilder::new();
    let dim = store.dim();
    let n_rows = store.len();
    let config = match store {
        AnyStore::Exact(s) => {
            row_sections(&mut b, s.rows());
            StoreConfig::Exact {
                shards: 1,
                precision: s.precision(),
                rerank_factor: s.rerank_factor(),
            }
        }
        AnyStore::Ivf(s) => {
            row_sections(&mut b, s.rows());
            b.section(section::IVF_CENTROIDS, le_bytes_f32(s.centroids()));
            let mut offsets = Vec::with_capacity(s.n_lists() + 1);
            let mut ids = Vec::new();
            offsets.push(0u64);
            for list in s.lists() {
                ids.extend_from_slice(list);
                offsets.push(ids.len() as u64);
            }
            b.section(section::IVF_LIST_OFFSETS, le_bytes_u64(&offsets));
            b.section(section::IVF_LIST_IDS, le_bytes_u32(&ids));
            StoreConfig::Ivf {
                config: s.config().clone(),
                shards: 1,
                precision: s.precision(),
                rerank_factor: s.rerank_factor(),
            }
        }
        AnyStore::Forest(s) => {
            b.section(section::RAW_ROWS, le_bytes_f32(s.raw_data()));
            StoreConfig::RpForest {
                config: s.config().clone(),
                shards: 1,
            }
        }
        AnyStore::ShardedExact(s) => {
            let precision = s.shard_store(0).precision();
            b.section(
                section::RAW_ROWS,
                le_bytes_f32(&sharded_raw_rows(s, |st, id, out| st.row_into(id, out))),
            );
            StoreConfig::Exact {
                shards: s.n_shards(),
                precision,
                rerank_factor: s.shard_store(0).rerank_factor(),
            }
        }
        AnyStore::ShardedForest(s) => {
            b.section(
                section::RAW_ROWS,
                le_bytes_f32(&sharded_raw_rows(s, |st, id, out| {
                    out.copy_from_slice(st.vector(id))
                })),
            );
            StoreConfig::RpForest {
                config: s.shard_store(0).config().clone(),
                shards: s.n_shards(),
            }
        }
        AnyStore::ShardedIvf(s) => {
            b.section(
                section::RAW_ROWS,
                le_bytes_f32(&sharded_raw_rows(s, |st, id, out| st.row_into(id, out))),
            );
            StoreConfig::Ivf {
                config: s.shard_store(0).config().clone(),
                shards: s.n_shards(),
                precision: s.shard_store(0).precision(),
                rerank_factor: s.shard_store(0).rerank_factor(),
            }
        }
    };
    // Meta goes in front so loaders can dispatch without scanning.
    let mut with_meta = IndexFileBuilder::new();
    with_meta.section(section::STORE_META, encode_meta(&config, dim, n_rows));
    for (kind, payload) in b.sections {
        with_meta.section(kind, payload);
    }
    with_meta.to_bytes()
}

/// Save a store to `path` in the `SSAWIDX1` format (atomic
/// write-then-rename).
pub fn save_store(store: &AnyStore, path: &Path) -> Result<(), DiskIndexError> {
    let bytes = encode_store(store);
    let tmp = path.with_extension("tmp-ssawidx");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Reconstruct a store from a parsed [`IndexFile`] (which may be a
/// nested blob inside a larger file). Dense row payloads are
/// zero-copy; small structural sections are copied; rebuild-on-load
/// backends rebuild deterministically from their saved config.
pub fn store_from_file(file: &IndexFile) -> Result<AnyStore, DiskIndexError> {
    let meta = decode_meta(file.section_bytes(section::STORE_META)?)?;
    let StoreMeta {
        config,
        dim,
        n_rows,
    } = meta;
    if file.has_section(section::RAW_ROWS) {
        // Rebuild-on-load path (forests and sharded stores):
        // deterministic construction from the original-order rows and
        // the saved build config. A sharded store saved with a single
        // shard loads as the equivalent plain backend — identical
        // query results, just without the one-shard wrapper.
        let raw = file.section_slice::<f32>(section::RAW_ROWS)?;
        if raw.len() != n_rows * dim {
            return Err(DiskIndexError::BadHeader("row section shape mismatch"));
        }
        return Ok(config.build(dim, raw.to_vec()));
    }
    match config {
        StoreConfig::Exact {
            precision,
            rerank_factor,
            ..
        } => {
            let rows = rows_from_file(file, precision, dim, n_rows)?;
            Ok(AnyStore::Exact(
                ExactStore::from_storage(dim, rows).with_rerank_factor(rerank_factor),
            ))
        }
        StoreConfig::Ivf {
            config,
            precision,
            rerank_factor,
            ..
        } => {
            let rows = rows_from_file(file, precision, dim, n_rows)?;
            let centroids = file.section_slice::<f32>(section::IVF_CENTROIDS)?.to_vec();
            if centroids.len() % dim != 0 {
                return Err(DiskIndexError::BadHeader("centroid section shape mismatch"));
            }
            let offsets = file.section_slice::<u64>(section::IVF_LIST_OFFSETS)?;
            let ids = file.section_slice::<u32>(section::IVF_LIST_IDS)?;
            let n_lists = centroids.len() / dim;
            if offsets.len() != n_lists + 1 || offsets[0] != 0 {
                return Err(DiskIndexError::BadHeader("ivf list offsets malformed"));
            }
            let mut lists = Vec::with_capacity(n_lists);
            for w in offsets.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                if a > b || b > ids.len() {
                    return Err(DiskIndexError::BadHeader("ivf list offsets malformed"));
                }
                let list = ids[a..b].to_vec();
                if list.iter().any(|&id| id as usize >= n_rows) {
                    return Err(DiskIndexError::BadHeader("ivf list id out of range"));
                }
                lists.push(list);
            }
            if offsets[n_lists] as usize != ids.len() {
                return Err(DiskIndexError::BadHeader("ivf list offsets malformed"));
            }
            Ok(AnyStore::Ivf(
                IvfStore::from_parts(dim, rows, centroids, lists, config)
                    .with_rerank_factor(rerank_factor),
            ))
        }
        StoreConfig::RpForest { .. } => Err(DiskIndexError::MissingSection {
            kind: section::RAW_ROWS,
        }),
    }
}

/// Map `path` and reconstruct the store it holds.
pub fn load_store(path: &Path) -> Result<AnyStore, DiskIndexError> {
    store_from_file(&IndexFile::open(path)?)
}

/// Spill the f32 re-rank source rows of an in-memory quantized store
/// (SQ8 or PQ) to a `SSAWIDX1` sidecar file at `path` and swap the
/// owned buffer for a mapped (demand-paged) view of that file.
///
/// After a successful spill the store answers every query bit-for-bit
/// identically — re-ranking reads the same bytes through the page
/// cache — but [`RowStorage::resident_bytes`] no longer counts the
/// source rows, so an in-RAM PQ build reaches the same
/// codes-plus-codebooks steady-state hot set as a store loaded via
/// [`load_store`]. Returns `true` if rows were spilled; `false` (and
/// no file is written) when the store has no re-rank tier, the source
/// is already mapped, or the store is sharded/forest (those rebuild
/// from raw rows and hold no spillable source).
pub fn spill_rerank_rows(store: &mut AnyStore, path: &Path) -> Result<bool, DiskIndexError> {
    let storage = match store {
        AnyStore::Exact(s) => s.rows_mut(),
        AnyStore::Ivf(s) => s.rows_mut(),
        _ => return Ok(false),
    };
    let Some(source) = storage.rerank_source_mut() else {
        return Ok(false);
    };
    if source.is_mapped() || source.is_empty() {
        return Ok(false);
    }
    let mut b = IndexFileBuilder::new();
    b.section(section::PQ_RERANK_ROWS, le_bytes_f32(source));
    b.write_to_file(path)?;
    let file = IndexFile::open(path)?;
    let view = file.section_slice::<f32>(section::PQ_RERANK_ROWS)?;
    debug_assert_eq!(view.len(), source.len());
    *source = view.into();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IvfConfig, RpForestConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::random_unit_vector;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        data
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seesaw-diskindex-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn builder_round_trips_sections_with_alignment() {
        let mut b = IndexFileBuilder::new();
        b.section(7, vec![1, 2, 3]);
        b.section(9, vec![0xAB; 100]);
        b.section(11, Vec::new());
        let file = IndexFile::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(file.section_bytes(7).unwrap(), &[1, 2, 3]);
        assert_eq!(file.section_bytes(9).unwrap(), &[0xAB; 100]);
        assert_eq!(file.section_bytes(11).unwrap(), &[] as &[u8]);
        assert!(file.has_section(9));
        assert!(!file.has_section(8));
        assert!(matches!(
            file.section_bytes(8),
            Err(DiskIndexError::MissingSection { kind: 8 })
        ));
    }

    #[test]
    fn typed_views_decode_little_endian_values() {
        let mut b = IndexFileBuilder::new();
        b.section(1, le_bytes_f32(&[1.5, -2.25, 0.0]));
        b.section(2, le_bytes_u64(&[u64::MAX, 7]));
        b.section(3, le_bytes_u32(&[1, 2, 3]));
        b.section(4, le_bytes_u16(&[0x1234]));
        let file = IndexFile::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(&*file.section_slice::<f32>(1).unwrap(), &[1.5, -2.25, 0.0]);
        assert_eq!(&*file.section_slice::<u64>(2).unwrap(), &[u64::MAX, 7]);
        assert_eq!(&*file.section_slice::<u32>(3).unwrap(), &[1, 2, 3]);
        assert_eq!(&*file.section_slice::<u16>(4).unwrap(), &[0x1234]);
        // Wrong element size for the payload length is rejected.
        assert!(matches!(
            file.section_slice::<u64>(1),
            Err(DiskIndexError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_and_oversized_files_are_typed_errors() {
        let mut b = IndexFileBuilder::new();
        b.section(1, vec![9; 64]);
        let bytes = b.to_bytes();
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 1);
        assert!(matches!(
            IndexFile::from_bytes(short),
            Err(DiskIndexError::Truncated { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            IndexFile::from_bytes(long),
            Err(DiskIndexError::Oversized { .. })
        ));
        let mut stub = bytes[..16].to_vec();
        stub.truncate(16);
        assert!(matches!(
            IndexFile::from_bytes(stub),
            Err(DiskIndexError::Truncated { .. })
        ));
        assert!(matches!(
            IndexFile::from_bytes(b"not an index file at all".to_vec()),
            Err(DiskIndexError::BadMagic)
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut b = IndexFileBuilder::new();
        b.section(1, vec![9; 64]);
        let mut bytes = b.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            IndexFile::from_bytes(bytes),
            Err(DiskIndexError::Checksum { kind: 1 })
        ));
    }

    #[test]
    fn nested_blobs_share_the_mapping_and_stay_aligned() {
        let mut inner = IndexFileBuilder::new();
        inner.section(3, le_bytes_f32(&[1.0, 2.0, 3.0, 4.0]));
        let mut outer = IndexFileBuilder::new();
        outer.section(100, vec![0xEE; 5]);
        outer.section(101, inner.to_bytes());
        let file = IndexFile::from_bytes(outer.to_bytes()).unwrap();
        let nested = file.nested(101).unwrap();
        assert_eq!(
            &*nested.section_slice::<f32>(3).unwrap(),
            &[1.0, 2.0, 3.0, 4.0]
        );
        // Section 100 is not a nested index at all.
        assert!(matches!(file.nested(100), Err(DiskIndexError::BadMagic)));
    }

    #[test]
    fn mmap_open_round_trips_through_a_real_file() {
        let path = tmp_path("mmap-roundtrip");
        let mut b = IndexFileBuilder::new();
        b.section(1, le_bytes_u16(&(0u16..300).collect::<Vec<_>>()));
        b.write_to_file(&path).unwrap();
        let file = IndexFile::open_verified(&path).unwrap();
        let view = file.section_slice::<u16>(1).unwrap();
        assert_eq!(view.len(), 300);
        assert_eq!(view[299], 299);
        std::fs::remove_file(&path).unwrap();
    }

    fn assert_stores_bit_identical(a: &AnyStore, b: &AnyStore, data: &[f32], dim: usize) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            let q = random_unit_vector(&mut rng, dim);
            let ha = a.top_k_budgeted(&q, 10, 200, &|id| id % 7 != 3);
            let hb = b.top_k_budgeted(&q, 10, 200, &|id| id % 7 != 3);
            assert_eq!(ha.len(), hb.len());
            for (x, y) in ha.iter().zip(&hb) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        // Self-queries at full budget too.
        for q in [&data[..dim], &data[dim..2 * dim]] {
            assert_eq!(
                a.top_k_budgeted(q, 5, usize::MAX, &|_| true),
                b.top_k_budgeted(q, 5, usize::MAX, &|_| true)
            );
        }
    }

    #[test]
    fn every_backend_and_precision_round_trips_bit_identically() {
        let dim = 16;
        let data = random_data(300, dim, 42);
        let configs = vec![
            StoreConfig::exact(),
            StoreConfig::exact().with_precision(RowPrecision::F16),
            StoreConfig::exact().with_precision(RowPrecision::Sq8),
            StoreConfig::exact().with_shards(3),
            StoreConfig::exact()
                .with_precision(RowPrecision::Sq8)
                .with_shards(2),
            StoreConfig::forest(RpForestConfig {
                n_trees: 4,
                ..Default::default()
            }),
            StoreConfig::forest(RpForestConfig {
                n_trees: 4,
                ..Default::default()
            })
            .with_shards(2),
            StoreConfig::ivf(IvfConfig::default()),
            StoreConfig::ivf(IvfConfig::default()).with_precision(RowPrecision::F16),
            StoreConfig::ivf(IvfConfig::default()).with_precision(RowPrecision::Sq8),
            StoreConfig::ivf(IvfConfig::default()).with_shards(2),
            StoreConfig::exact().with_precision(RowPrecision::Pq { m: 4, nbits: 8 }),
            StoreConfig::exact()
                .with_precision(RowPrecision::Pq { m: 8, nbits: 5 })
                .with_rerank_factor(7),
            StoreConfig::ivf(IvfConfig::default())
                .with_precision(RowPrecision::Pq { m: 4, nbits: 8 }),
            StoreConfig::exact()
                .with_precision(RowPrecision::Pq { m: 4, nbits: 8 })
                .with_shards(2),
        ];
        for cfg in configs {
            let built = cfg.build(dim, data.clone());
            let path = tmp_path(&format!(
                "rt-{}-{}-{}",
                cfg.backend_name(),
                cfg.precision().name(),
                cfg.shards()
            ));
            save_store(&built, &path).unwrap();
            // Verified open: every checksum must hold right after save.
            let file = IndexFile::open_verified(&path).unwrap();
            let loaded = store_from_file(&file).unwrap();
            assert_stores_bit_identical(&built, &loaded, &data, dim);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn load_store_maps_rows_zero_copy_for_dense_backends() {
        let dim = 8;
        let data = random_data(64, dim, 7);
        let built = StoreConfig::exact()
            .with_precision(RowPrecision::Sq8)
            .build(dim, data.clone());
        let path = tmp_path("zerocopy");
        save_store(&built, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        let AnyStore::Exact(s) = &loaded else {
            panic!("variant changed");
        };
        let RowStorage::Sq8(q) = s.rows() else {
            panic!("precision changed");
        };
        assert!(q.is_mapped(), "sq8 rows should load as mapped views");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn adversarial_row_values_round_trip_exactly() {
        // NaN, infinities, subnormals, and negative zero must survive
        // the save/load cycle bit for bit (f32 storage is zero-copy).
        let dim = 4;
        let data = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            1.0,
            -1.0,
            0.0,
        ];
        let built = StoreConfig::exact().build(dim, data.clone());
        let path = tmp_path("adversarial");
        save_store(&built, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        let AnyStore::Exact(s) = &loaded else {
            panic!("variant changed");
        };
        let got = s.rows().as_f32().unwrap();
        assert_eq!(got.len(), data.len());
        for (g, d) in got.iter().zip(&data) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
