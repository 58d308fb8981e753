//! `.hgb` — the zero-copy binary CSR snapshot format.
//!
//! A `.hgb` file is a single little-endian image of a [`Hypergraph`]: a
//! fixed 64-byte header, a section table, and the CSR arrays (both pin
//! directions, weights, optional node sizes and names) stored as aligned
//! `u32`/`u64` slices. Because the file holds *both* CSR directions, a
//! load never re-runs the builder's counting-sort transpose: the arrays
//! are validated and used as-is.
//!
//! There is one load path. A `.hgb` image lives behind an `Arc`, backed
//! by a read-only `mmap(2)` of the file or by an 8-byte-aligned heap
//! buffer. Structural validation ([`HgbFile::view`]) is O(header); deep
//! validation ([`HgbView::to_hypergraph`]) is O(file) and then hands out
//! a [`Hypergraph`] whose CSR arrays are the image's sections, used in
//! place — no section is copied. [`load_hgb`] is "file path →
//! `Hypergraph` + load report" in one call (the CLI and the daemon store
//! use it); [`parse_hgb`] copies an in-memory buffer once into an
//! aligned heap image (byte-swapping it on a big-endian host) and takes
//! the same path.
//!
//! [`HgbFile`] owns the image: on unix it memory-maps the file through a
//! local `extern "C"` declaration of `mmap(2)` (no crates involved), and
//! everywhere else — or when the map fails — it reads the file into an
//! aligned heap buffer. A mapped graph keeps its file mapped for as long
//! as the graph (or a clone of it) lives. Every writer in this suite
//! replaces a `.hgb` file by temp file + `rename(2)` ([`write_hgb_file`]),
//! so a live mapping keeps seeing the bytes it validated; another
//! program writing into a mapped file in place is outside the contract.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"PROPHGB\0"
//!      8     4  version               (= 1)
//!     12     4  endianness tag        (= 0x0102_0304 read as LE)
//!     16     4  flags                 (bit 0: node weights, bit 1: names)
//!     20     4  section count
//!     24     8  num_nodes  n
//!     32     8  num_nets   e
//!     40     8  num_pins   m
//!     48     8  file length in bytes
//!     56     8  reserved   (= 0)
//!     64     -  section table: count x { kind u32, pad u32, off u64, len u64 }
//!      -     -  sections, each 8-byte aligned, in kind order
//! ```
//!
//! Sections (kind → content): 1 node_offsets `(n+1)×u32`, 2 node_pins
//! `m×u32`, 3 net_offsets `(e+1)×u32`, 4 net_pins `m×u32`, 5 net_weights
//! `e×u64` (IEEE-754 bits), 6 node_weights `n×u64` (optional), 7
//! name_offsets `(n+1)×u32` (optional), 8 name_bytes (UTF-8, optional).

use crate::error::{HgbError, NetlistError};
use crate::hypergraph::Hypergraph;
pub(crate) use raw::{Array, Pod};
use std::ffi::OsString;
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Leading magic bytes of every `.hgb` file.
pub const HGB_MAGIC: [u8; 8] = *b"PROPHGB\0";
/// Current format version.
pub const HGB_VERSION: u32 = 1;
/// Endianness tag as read by a little-endian `u32` load of the bytes
/// `01 02 03 04`. A big-endian writer would produce `0x0403_0201`.
pub const HGB_ENDIAN_TAG: u32 = 0x0403_0201;

const HEADER_LEN: usize = 64;
const TABLE_ENTRY_LEN: usize = 24;
const FLAG_NODE_WEIGHTS: u32 = 1;
const FLAG_NODE_NAMES: u32 = 2;

const KIND_NODE_OFFSETS: u32 = 1;
const KIND_NODE_PINS: u32 = 2;
const KIND_NET_OFFSETS: u32 = 3;
const KIND_NET_PINS: u32 = 4;
const KIND_NET_WEIGHTS: u32 = 5;
const KIND_NODE_WEIGHTS: u32 = 6;
const KIND_NAME_OFFSETS: u32 = 7;
const KIND_NAME_BYTES: u32 = 8;

const SECTION_NAMES: [&str; 8] = [
    "node_offsets",
    "node_pins",
    "net_offsets",
    "net_pins",
    "net_weights",
    "node_weights",
    "name_offsets",
    "name_bytes",
];

fn section_name(kind: u32) -> &'static str {
    SECTION_NAMES[(kind as usize) - 1]
}

/// Unsafe-containing primitives, quarantined: the raw `mmap(2)` binding,
/// the CSR [`Array`](raw::Array) that reads image sections in place, and
/// the aligned heap buffer's byte views. Everything else in this module
/// (and crate) is `deny(unsafe_code)`-clean.
#[allow(unsafe_code)]
mod raw {
    use super::Image;
    use crate::ids::{NetId, NodeId};
    use std::fmt;
    use std::ops::Deref;
    use std::sync::Arc;

    /// Element types an [`Array`] may view inside a `.hgb` image.
    ///
    /// # Safety
    ///
    /// Every bit pattern of `size_of::<Self>()` bytes must be a valid
    /// `Self`, with no padding.
    pub(crate) unsafe trait Pod: Copy + Send + Sync + 'static {}

    // SAFETY: plain integers and floats; every bit pattern is valid.
    unsafe impl Pod for u8 {}
    // SAFETY: as for `u8`.
    unsafe impl Pod for u32 {}
    // SAFETY: as for `u8` (a little-endian image holds IEEE-754 bits).
    unsafe impl Pod for f64 {}
    // SAFETY: `NodeId` and `NetId` are `#[repr(transparent)]` over `u32`
    // (see `ids.rs`) and every `u32` is a valid id value.
    unsafe impl Pod for NodeId {}
    // SAFETY: as for `NodeId`.
    unsafe impl Pod for NetId {}

    /// One CSR array of a [`Hypergraph`](crate::Hypergraph): an owned
    /// `Vec`, or a section of a shared `.hgb` image. The slice is resolved
    /// once at construction, so reading it costs what a `Vec` read costs;
    /// a clone shares the elements.
    #[derive(Clone)]
    pub(crate) struct Array<T: Pod> {
        ptr: *const T,
        len: usize,
        /// What keeps the elements alive: the `Vec<T>` or the `Image`.
        _owner: Arc<dyn Send + Sync>,
    }

    // SAFETY: an `Array` is a read-only view of `T: Send + Sync` elements
    // held by its `Send + Sync` owner, and nothing ever writes through
    // `ptr`.
    unsafe impl<T: Pod> Send for Array<T> {}
    // SAFETY: as for `Send`.
    unsafe impl<T: Pod> Sync for Array<T> {}

    impl<T: Pod> From<Vec<T>> for Array<T> {
        fn from(values: Vec<T>) -> Self {
            Array {
                ptr: values.as_ptr(),
                len: values.len(),
                _owner: Arc::new(values),
            }
        }
    }

    impl<T: Pod> Array<T> {
        /// The `len`-byte section of `image` at byte offset `off`, read in
        /// place; `None` unless it is in bounds, aligned for `T` and a
        /// whole number of elements.
        pub(super) fn section(image: &Arc<Image>, off: usize, len: usize) -> Option<Array<T>> {
            let bytes = image.bytes().get(off..off.checked_add(len)?)?;
            let size = std::mem::size_of::<T>();
            if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
                || !len.is_multiple_of(size)
            {
                return None;
            }
            Some(Array {
                ptr: bytes.as_ptr().cast::<T>(),
                len: len / size,
                _owner: Arc::clone(image) as Arc<dyn Send + Sync>,
            })
        }
    }

    impl<T: Pod> Deref for Array<T> {
        type Target = [T];

        #[inline]
        fn deref(&self) -> &[T] {
            // SAFETY: `ptr`/`len` describe initialized, aligned `T`s (checked
            // in `section`, or a `Vec`'s own buffer) held by `_owner`, which
            // lives as long as `self` and is never mutated. A `Vec`'s heap
            // buffer does not move when the `Vec` is moved into its `Arc`.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl<T: Pod + PartialEq> PartialEq for Array<T> {
        fn eq(&self, other: &Self) -> bool {
            **self == **other
        }
    }

    impl<T: Pod + fmt::Debug> fmt::Debug for Array<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// Degree histogram with the per-increment bounds check elided; this
    /// is the hottest loop of deep validation (random access over the
    /// whole node range). The caller must have verified every pin index
    /// against `counts.len()` first (`check_pins` does, as a vectorized
    /// max-scan). Counts cannot overflow: the total increment count is
    /// the pin count, which fits `u32` by format construction.
    pub(super) fn histogram_into(pins: &[NodeId], counts: &mut [u32]) {
        for &p in pins {
            debug_assert!(p.index() < counts.len());
            // SAFETY: every pin was bounds-checked against the node count
            // (== counts.len()) by the preceding max-scan.
            unsafe { *counts.get_unchecked_mut(p.index()) += 1 }
        }
    }

    /// The byte view of a `u64` heap buffer (used so the buffered fallback
    /// is 8-byte aligned just like a page-aligned mapping).
    pub(super) fn words_as_bytes(words: &[u64]) -> &[u8] {
        // SAFETY: every u64 is 8 valid bytes; alignment only loosens.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
    }

    /// Mutable byte view of a `u64` heap buffer, for reading a file into
    /// aligned storage.
    pub(super) fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
        let len = words.len() * 8;
        // SAFETY: any byte pattern is a valid u64, so writes through the
        // view cannot create an invalid value.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) }
    }

    /// A read-only `mmap(2)` of a whole file, on unix only, declared
    /// locally so no crate dependency is needed. 64-bit `off_t` is
    /// assumed (true for every tier-1 target; the caller falls back to a
    /// buffered read when the map fails anyway).
    #[cfg(unix)]
    pub(super) mod sys {
        use std::ffi::c_void;
        use std::fs::File;
        use std::os::unix::io::AsRawFd;

        extern "C" {
            fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut c_void;
            fn munmap(addr: *mut c_void, len: usize) -> i32;
        }

        const PROT_READ: i32 = 0x1;
        const MAP_PRIVATE: i32 = 0x2;

        /// An owned private read-only mapping; unmapped on drop.
        pub(crate) struct Mapping {
            ptr: *mut c_void,
            len: usize,
        }

        // SAFETY: the mapping is private and read-only; the raw pointer is
        // owned exclusively by this struct and only exposed as `&[u8]`.
        unsafe impl Send for Mapping {}
        unsafe impl Sync for Mapping {}

        impl Mapping {
            /// Maps `len` bytes of `file`; `None` when the kernel refuses
            /// (including the always-invalid `len == 0`).
            pub(crate) fn map(file: &File, len: usize) -> Option<Mapping> {
                if len == 0 {
                    return None;
                }
                // SAFETY: a fresh private read-only mapping of an open fd;
                // all arguments are well-formed, failure is checked below.
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
                if ptr.is_null() || ptr as isize == -1 {
                    return None;
                }
                Some(Mapping { ptr, len })
            }

            /// The mapped bytes.
            pub(crate) fn bytes(&self) -> &[u8] {
                // SAFETY: ptr/len describe a live read-only mapping owned
                // by self; the borrow ties the slice to the mapping's
                // lifetime.
                unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>().cast_const(), self.len) }
            }
        }

        impl Drop for Mapping {
            fn drop(&mut self) {
                // SAFETY: ptr/len came from a successful mmap and are
                // unmapped exactly once.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// One parsed section-table entry, offsets already bounds-checked.
#[derive(Clone, Copy, Debug)]
struct Section {
    off: usize,
    len: usize,
}

/// The structurally validated shape of a `.hgb` buffer: counts, flags,
/// and the byte range of every section. Producing a `Layout` is O(header)
/// — no section payload is read.
#[derive(Clone, Debug)]
struct Layout {
    num_nodes: usize,
    num_nets: usize,
    num_pins: usize,
    node_offsets: Section,
    node_pins: Section,
    net_offsets: Section,
    net_pins: Section,
    net_weights: Section,
    node_weights: Option<Section>,
    names: Option<(Section, Section)>,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte window"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte window"))
}

/// Converts a header count to `usize`, guarding both the platform word
/// size and the `u32` CSR index space (`n + 1` and `m` must fit in u32).
fn checked_count(field: &'static str, value: u64, max: u64) -> Result<usize, HgbError> {
    if value > max {
        return Err(HgbError::CountOverflow { field, value });
    }
    usize::try_from(value).map_err(|_| HgbError::CountOverflow { field, value })
}

/// Structurally validates `bytes` as a `.hgb` image: magic, version,
/// endianness, counts, and a section table whose entries must appear in
/// kind order, 8-byte aligned, sized exactly for the counts, in bounds,
/// and non-overlapping. O(header); section payloads are not touched.
fn parse_layout(bytes: &[u8]) -> Result<Layout, HgbError> {
    if bytes.len() < HEADER_LEN {
        return Err(HgbError::Truncated {
            needed: HEADER_LEN,
            len: bytes.len(),
        });
    }
    if bytes[..8] != HGB_MAGIC {
        return Err(HgbError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != HGB_VERSION {
        return Err(HgbError::UnsupportedVersion { version });
    }
    let tag = read_u32(bytes, 12);
    if tag != HGB_ENDIAN_TAG {
        return Err(HgbError::ForeignEndianness { tag });
    }
    let flags = read_u32(bytes, 16);
    if flags & !(FLAG_NODE_WEIGHTS | FLAG_NODE_NAMES) != 0 {
        return Err(HgbError::BadHeader {
            message: format!("unknown flag bits {flags:#x}"),
        });
    }
    let section_count = read_u32(bytes, 20) as usize;
    // n + 1 and e + 1 must be representable as u32 offset indices, and m
    // must be addressable by a u32 offset value.
    let num_nodes = checked_count("nodes", read_u64(bytes, 24), u64::from(u32::MAX) - 1)?;
    let num_nets = checked_count("nets", read_u64(bytes, 32), u64::from(u32::MAX) - 1)?;
    let num_pins = checked_count("pins", read_u64(bytes, 40), u64::from(u32::MAX))?;
    let file_len = read_u64(bytes, 48);
    if file_len != bytes.len() as u64 {
        if file_len > bytes.len() as u64 {
            return Err(HgbError::Truncated {
                needed: usize::try_from(file_len).unwrap_or(usize::MAX),
                len: bytes.len(),
            });
        }
        return Err(HgbError::BadHeader {
            message: format!("declared length {file_len} != actual {}", bytes.len()),
        });
    }
    if read_u64(bytes, 56) != 0 {
        return Err(HgbError::BadHeader {
            message: "reserved header word is not zero".into(),
        });
    }

    let mut expected: Vec<(u32, Option<usize>)> = vec![
        (KIND_NODE_OFFSETS, Some((num_nodes + 1) * 4)),
        (KIND_NODE_PINS, Some(num_pins * 4)),
        (KIND_NET_OFFSETS, Some((num_nets + 1) * 4)),
        (KIND_NET_PINS, Some(num_pins * 4)),
        (KIND_NET_WEIGHTS, Some(num_nets * 8)),
    ];
    if flags & FLAG_NODE_WEIGHTS != 0 {
        expected.push((KIND_NODE_WEIGHTS, Some(num_nodes * 8)));
    }
    if flags & FLAG_NODE_NAMES != 0 {
        expected.push((KIND_NAME_OFFSETS, Some((num_nodes + 1) * 4)));
        expected.push((KIND_NAME_BYTES, None)); // free-length; checked deeply later
    }
    if section_count != expected.len() {
        return Err(HgbError::BadHeader {
            message: format!(
                "section count {section_count} does not match flags (expected {})",
                expected.len()
            ),
        });
    }
    let table_end = HEADER_LEN + section_count * TABLE_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(HgbError::Truncated {
            needed: table_end,
            len: bytes.len(),
        });
    }

    let mut sections = Vec::with_capacity(expected.len());
    let mut cursor = table_end as u64;
    for (i, &(want_kind, want_len)) in expected.iter().enumerate() {
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let kind = read_u32(bytes, entry);
        let name = section_name(want_kind);
        if kind != want_kind {
            return Err(HgbError::Section {
                section: name,
                message: format!("expected kind {want_kind} at table slot {i}, found {kind}"),
            });
        }
        if read_u32(bytes, entry + 4) != 0 {
            return Err(HgbError::Section {
                section: name,
                message: "table padding word is not zero".into(),
            });
        }
        let off = read_u64(bytes, entry + 8);
        let len = read_u64(bytes, entry + 16);
        if !off.is_multiple_of(8) {
            return Err(HgbError::Section {
                section: name,
                message: format!("offset {off} is not 8-byte aligned"),
            });
        }
        if off < cursor {
            return Err(HgbError::Section {
                section: name,
                message: format!("offset {off} overlaps the previous section (ends {cursor})"),
            });
        }
        let end = off.checked_add(len).ok_or_else(|| HgbError::Section {
            section: name,
            message: "offset + length overflows".into(),
        })?;
        if end > bytes.len() as u64 {
            return Err(HgbError::Section {
                section: name,
                message: format!("section [{off}, {end}) exceeds file length {}", bytes.len()),
            });
        }
        if let Some(want) = want_len {
            if len != want as u64 {
                return Err(HgbError::Section {
                    section: name,
                    message: format!("length {len} != expected {want}"),
                });
            }
        }
        cursor = end;
        sections.push(Section {
            off: usize::try_from(off).expect("bounded by file length"),
            len: usize::try_from(len).expect("bounded by file length"),
        });
    }

    let mut it = sections.into_iter();
    let node_offsets = it.next().expect("five mandatory sections");
    let node_pins = it.next().expect("five mandatory sections");
    let net_offsets = it.next().expect("five mandatory sections");
    let net_pins = it.next().expect("five mandatory sections");
    let net_weights = it.next().expect("five mandatory sections");
    let node_weights = (flags & FLAG_NODE_WEIGHTS != 0).then(|| it.next().expect("flagged"));
    let names = (flags & FLAG_NODE_NAMES != 0)
        .then(|| (it.next().expect("flagged"), it.next().expect("flagged")));
    Ok(Layout {
        num_nodes,
        num_nets,
        num_pins,
        node_offsets,
        node_pins,
        net_offsets,
        net_pins,
        net_weights,
        node_weights,
        names,
    })
}

/// Deep validation of a graph wrapped around an image's sections:
/// offset monotonicity and closure, pin bounds, degree agreement between
/// the two CSR directions, weight finiteness, name consistency. O(file).
/// The graph is only handed out when this passes.
fn validate_deep(graph: &Hypergraph) -> Result<(), HgbError> {
    let num_nodes = graph.num_nodes();
    let node_offsets = &*graph.node_offsets;
    check_offsets("node_offsets", node_offsets, graph.num_pins())?;
    check_offsets("net_offsets", &graph.net_offsets, graph.num_pins())?;
    check_pins("node_pins", &graph.node_pins, graph.num_nets())?;
    check_pins("net_pins", &graph.net_pins, num_nodes)?;
    // Count each node's pins in the net→node direction and cross-check
    // against the node→net offsets: the two stored directions must agree
    // on every degree. (A permuted-but-degree-preserving file still
    // loads; in-bounds consistency is what safety and the engines need.)
    let mut degree = vec![0u32; num_nodes];
    raw::histogram_into(&graph.net_pins, &mut degree);
    // Branchless accumulate; the index rescan only runs on failure, so the
    // hot path stays a straight-line vectorizable loop.
    let mut mismatch = false;
    for v in 0..num_nodes {
        mismatch |= node_offsets[v + 1] - node_offsets[v] != degree[v];
    }
    if mismatch {
        let v = (0..num_nodes)
            .find(|&v| node_offsets[v + 1] - node_offsets[v] != degree[v])
            .expect("mismatch flagged");
        return Err(HgbError::DegreeMismatch { node: v });
    }
    check_weights(&graph.net_weights)?;
    if let Some(weights) = &graph.node_weights {
        check_weights(weights)?;
    }
    if let Some((offsets, bytes)) = &graph.node_names {
        if offsets[0] != 0 {
            return Err(HgbError::BadNames {
                message: "first name offset is not zero".into(),
            });
        }
        for i in 0..num_nodes {
            if offsets[i + 1] < offsets[i] {
                return Err(HgbError::BadNames {
                    message: format!("name offsets decrease at index {i}"),
                });
            }
        }
        if offsets[num_nodes] as usize != bytes.len() {
            return Err(HgbError::BadNames {
                message: format!(
                    "name offsets close at {} but name bytes hold {}",
                    offsets[num_nodes],
                    bytes.len()
                ),
            });
        }
        for i in 0..num_nodes {
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            if std::str::from_utf8(&bytes[lo..hi]).is_err() {
                return Err(HgbError::BadNames {
                    message: format!("name {i} is not valid UTF-8"),
                });
            }
        }
    }
    Ok(())
}

fn check_offsets(section: &'static str, offsets: &[u32], num_pins: usize) -> Result<(), HgbError> {
    if offsets[0] != 0 {
        return Err(HgbError::Offsets { section, index: 0 });
    }
    // Monotonicity as a branchless pairwise scan (vectorizes); the index
    // is recovered by a rescan only on the failure path.
    let decreasing = offsets
        .windows(2)
        .fold(false, |acc, w| acc | (w[1] < w[0]));
    if decreasing {
        let i = (1..offsets.len())
            .find(|&i| offsets[i] < offsets[i - 1])
            .expect("decrease flagged");
        return Err(HgbError::Offsets { section, index: i });
    }
    let last = offsets[offsets.len() - 1] as usize;
    if last != num_pins {
        return Err(HgbError::Offsets {
            section,
            index: offsets.len() - 1,
        });
    }
    Ok(())
}

/// Bounds check of a pin array as a vectorizable max-scan; the offending
/// index is recovered by a rescan only when the scan fails.
fn check_pins<T: Copy + Into<u32>>(
    section: &'static str,
    pins: &[T],
    limit: usize,
) -> Result<(), HgbError> {
    let max = pins.iter().map(|&p| p.into()).max().unwrap_or(0);
    if (max as usize) < limit || pins.is_empty() {
        return Ok(());
    }
    let index = pins
        .iter()
        .position(|&p| p.into() as usize >= limit)
        .expect("max exceeded limit");
    Err(HgbError::PinOutOfRange {
        section,
        index,
        value: pins[index].into(),
        limit,
    })
}

/// Weight check (finite, strictly positive) as a branchless
/// accumulate; the offending index is recovered on the failure path.
fn check_weights(weights: &[f64]) -> Result<(), HgbError> {
    let mut all_ok = true;
    for &w in weights {
        all_ok &= w.is_finite() & (w > 0.0);
    }
    if all_ok {
        return Ok(());
    }
    let index = weights
        .iter()
        .position(|&w| !w.is_finite() || w <= 0.0)
        .expect("bad weight flagged");
    Err(HgbError::InvalidWeight {
        index,
        bits: weights[index].to_bits(),
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn push_u32s<I: IntoIterator<Item = u32>>(buf: &mut Vec<u8>, values: I) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes a hypergraph to the `.hgb` byte image.
///
/// The output is canonical: the same graph always produces the same
/// bytes, and `parse_hgb(&write_hgb(g)) == g` exactly (weights are stored
/// as raw IEEE-754 bits, names byte-for-byte).
pub fn write_hgb(graph: &Hypergraph) -> Vec<u8> {
    let n = graph.num_nodes();
    let e = graph.num_nets();
    let m = graph.num_pins();
    let node_weights = graph.node_weights.as_deref();
    let names = graph.node_names.as_ref();
    let mut flags = 0u32;
    if node_weights.is_some() {
        flags |= FLAG_NODE_WEIGHTS;
    }
    if names.is_some() {
        flags |= FLAG_NODE_NAMES;
    }

    // (kind, payload length in bytes), in kind order.
    let mut plan: Vec<(u32, usize)> = vec![
        (KIND_NODE_OFFSETS, (n + 1) * 4),
        (KIND_NODE_PINS, m * 4),
        (KIND_NET_OFFSETS, (e + 1) * 4),
        (KIND_NET_PINS, m * 4),
        (KIND_NET_WEIGHTS, e * 8),
    ];
    if node_weights.is_some() {
        plan.push((KIND_NODE_WEIGHTS, n * 8));
    }
    if names.is_some() {
        plan.push((KIND_NAME_OFFSETS, (n + 1) * 4));
        plan.push((KIND_NAME_BYTES, names.map_or(0, |(_, bytes)| bytes.len())));
    }

    let table_end = HEADER_LEN + plan.len() * TABLE_ENTRY_LEN;
    let mut offsets = Vec::with_capacity(plan.len());
    let mut cursor = table_end;
    for &(_, len) in &plan {
        cursor = cursor.next_multiple_of(8);
        offsets.push(cursor);
        cursor += len;
    }
    let file_len = cursor;

    let mut buf = Vec::with_capacity(file_len);
    buf.extend_from_slice(&HGB_MAGIC);
    push_u32s(&mut buf, [HGB_VERSION, HGB_ENDIAN_TAG, flags, plan.len() as u32]);
    for count in [n as u64, e as u64, m as u64, file_len as u64, 0u64] {
        buf.extend_from_slice(&count.to_le_bytes());
    }
    for (&(kind, len), &off) in plan.iter().zip(&offsets) {
        push_u32s(&mut buf, [kind, 0]);
        buf.extend_from_slice(&(off as u64).to_le_bytes());
        buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    pad8(&mut buf);
    push_u32s(&mut buf, graph.node_offsets.iter().copied());
    pad8(&mut buf);
    push_u32s(&mut buf, graph.node_pins.iter().map(|&id| u32::from(id)));
    pad8(&mut buf);
    push_u32s(&mut buf, graph.net_offsets.iter().copied());
    pad8(&mut buf);
    push_u32s(&mut buf, graph.net_pins.iter().map(|&id| u32::from(id)));
    pad8(&mut buf);
    for &w in graph.net_weights.iter() {
        buf.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    if let Some(weights) = node_weights {
        pad8(&mut buf);
        for &w in weights {
            buf.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    if let Some((offsets, bytes)) = names {
        pad8(&mut buf);
        push_u32s(&mut buf, offsets.iter().copied());
        pad8(&mut buf);
        buf.extend_from_slice(bytes);
    }
    debug_assert_eq!(buf.len(), file_len);
    buf
}

/// Serializes `graph` and writes it to `path` atomically: the image goes
/// to a temp file in the same directory, which `rename(2)` then moves
/// into place. A reader that mapped the old file keeps its bytes.
pub fn write_hgb_file(graph: &Hypergraph, path: &Path) -> std::io::Result<()> {
    static NEXT_TMP: AtomicUsize = AtomicUsize::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path names no file")
    })?;
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written =
        std::fs::write(&tmp, write_hgb(graph)).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// An `.hgb` image: a read-only mapping of the file, or the file's bytes
/// in an 8-byte-aligned heap buffer. Shared behind an `Arc` by the
/// [`HgbFile`] and by every graph built on it.
enum Image {
    #[cfg(unix)]
    Map(raw::sys::Mapping),
    Heap {
        words: Vec<u64>,
        len: usize,
    },
}

impl Image {
    /// `bytes` copied into a fresh aligned heap buffer.
    fn copy_of(bytes: &[u8]) -> Image {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        raw::words_as_bytes_mut(&mut words)[..bytes.len()].copy_from_slice(bytes);
        Image::Heap {
            words,
            len: bytes.len(),
        }
    }

    /// The image bytes; the base address is always 8-byte aligned.
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Image::Map(map) => map.bytes(),
            Image::Heap { words, len } => &raw::words_as_bytes(words)[..*len],
        }
    }
}

/// The typed section `s` of `image`, read in place.
fn section<T: Pod>(
    image: &Arc<Image>,
    s: Section,
    name: &'static str,
) -> Result<Array<T>, HgbError> {
    Array::section(image, s.off, s.len).ok_or(HgbError::Section {
        section: name,
        message: "section is not aligned for its element type".into(),
    })
}

/// Wraps the sections of a structurally valid, host-endian image in a
/// [`Hypergraph`] and deep-validates it. No section is copied.
fn graph_of(image: &Arc<Image>, layout: &Layout) -> Result<Hypergraph, NetlistError> {
    let graph = Hypergraph {
        node_offsets: section(image, layout.node_offsets, "node_offsets")?,
        node_pins: section(image, layout.node_pins, "node_pins")?,
        net_offsets: section(image, layout.net_offsets, "net_offsets")?,
        net_pins: section(image, layout.net_pins, "net_pins")?,
        net_weights: section(image, layout.net_weights, "net_weights")?,
        node_weights: layout
            .node_weights
            .map(|s| section(image, s, "node_weights"))
            .transpose()?,
        node_names: match layout.names {
            Some((offsets, bytes)) => Some((
                section(image, offsets, "name_offsets")?,
                section(image, bytes, "name_bytes")?,
            )),
            None => None,
        },
    };
    validate_deep(&graph)?;
    Ok(graph)
}

/// Parses a `.hgb` byte image into a [`Hypergraph`].
///
/// Accepts any buffer alignment and any host endianness: the bytes are
/// copied once into an aligned heap image (byte-swapped on a big-endian
/// host), which then takes the same validation and in-place path as a
/// file ([`load_hgb`]), so both accept and reject exactly the same
/// images.
pub fn parse_hgb(bytes: &[u8]) -> Result<Hypergraph, NetlistError> {
    let layout = parse_layout(bytes)?;
    let mut image = Image::copy_of(bytes);
    if cfg!(target_endian = "big") {
        if let Image::Heap { words, len } = &mut image {
            to_host_endian(&mut raw::words_as_bytes_mut(words)[..*len], &layout);
        }
    }
    graph_of(&Arc::new(image), &layout)
}

/// Byte-swaps every numeric section of a little-endian image in place.
fn to_host_endian(bytes: &mut [u8], layout: &Layout) {
    let words = [layout.node_offsets, layout.node_pins, layout.net_offsets, layout.net_pins];
    let names = layout.names.map(|(offsets, _)| offsets);
    for s in words.into_iter().chain(names) {
        bytes[s.off..s.off + s.len].chunks_exact_mut(4).for_each(<[u8]>::reverse);
    }
    for s in std::iter::once(layout.net_weights).chain(layout.node_weights) {
        bytes[s.off..s.off + s.len].chunks_exact_mut(8).for_each(<[u8]>::reverse);
    }
}

/// A structurally validated `.hgb` image, borrowed from its [`HgbFile`].
///
/// [`HgbFile::view`] runs the O(header) structural validation — no
/// section payload is read. [`HgbView::to_hypergraph`] then runs the
/// O(file) deep validation and returns a graph built on the file's image
/// in place.
pub struct HgbView<'a> {
    image: &'a Arc<Image>,
    layout: Layout,
}

impl HgbView<'_> {
    /// Deep-validates the image — offset monotonicity and closure, pin
    /// bounds, degree agreement between the two CSR directions, weight
    /// finiteness, name consistency; O(file) — and returns the
    /// [`Hypergraph`] whose CSR arrays are its sections: the graph shares
    /// the file's image (and keeps it alive), so nothing is copied and
    /// the builder's counting-sort transpose is never re-run. On a
    /// big-endian host the image is first copied and byte-swapped
    /// ([`parse_hgb`]).
    pub fn to_hypergraph(&self) -> Result<Hypergraph, NetlistError> {
        if cfg!(target_endian = "big") {
            return parse_hgb(self.image.bytes());
        }
        graph_of(self.image, &self.layout)
    }
}

/// Header-only circuit stats of a `.hgb` buffer, readable in O(header)
/// without touching any section (the daemon store's `circuits` listing
/// uses this).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HgbStats {
    /// Number of nodes.
    pub nodes: u64,
    /// Number of nets.
    pub nets: u64,
    /// Number of pins.
    pub pins: u64,
    /// Whether the file carries per-node weights.
    pub has_node_weights: bool,
    /// Whether the file carries node names.
    pub has_node_names: bool,
}

/// Reads the header-level stats of a `.hgb` image after structural
/// validation only (no section payload is touched).
pub fn peek_stats(bytes: &[u8]) -> Result<HgbStats, NetlistError> {
    let layout = parse_layout(bytes)?;
    Ok(HgbStats {
        nodes: layout.num_nodes as u64,
        nets: layout.num_nets as u64,
        pins: layout.num_pins as u64,
        has_node_weights: layout.node_weights.is_some(),
        has_node_names: layout.names.is_some(),
    })
}

// ---------------------------------------------------------------------------
// File backing: mmap fast path, aligned-read fallback
// ---------------------------------------------------------------------------

/// How an [`HgbFile`]'s bytes are backed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadMode {
    /// `mmap(2)`-backed: mapping the file is O(header) and pages fault
    /// in on use, but the load's validation still reads every section.
    Mmap,
    /// Buffered read into an aligned heap buffer (non-unix, empty file,
    /// or a refused mapping).
    Read,
}

impl fmt::Display for LoadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadMode::Mmap => "mmap",
            LoadMode::Read => "read",
        })
    }
}

/// An opened `.hgb` file: owns the image (mapping or aligned heap
/// buffer), which [`HgbView::to_hypergraph`] shares with the graphs it
/// builds.
///
/// The store and the CLI treat `.hgb` files as immutable once written
/// (writes go to a temp file and `rename(2)` into place), which is what
/// makes building graphs on a mapping sound: no live mapping ever
/// observes a mutation.
pub struct HgbFile {
    image: Arc<Image>,
}

impl HgbFile {
    /// Opens `path`, memory-mapping it on unix when possible and falling
    /// back to a buffered aligned read otherwise.
    pub fn open(path: &Path) -> std::io::Result<HgbFile> {
        let (mut file, len) = open_sized(path)?;
        #[cfg(unix)]
        if let Some(map) = raw::sys::Mapping::map(&file, len) {
            return Ok(HgbFile {
                image: Arc::new(Image::Map(map)),
            });
        }
        Self::read_aligned(&mut file, len)
    }

    /// Opens `path` through the buffered-read path unconditionally (used
    /// to prove mmap and read loads are byte-identical).
    pub fn open_buffered(path: &Path) -> std::io::Result<HgbFile> {
        let (mut file, len) = open_sized(path)?;
        Self::read_aligned(&mut file, len)
    }

    fn read_aligned(file: &mut File, len: usize) -> std::io::Result<HgbFile> {
        let mut words = vec![0u64; len.div_ceil(8)];
        file.read_exact(&mut raw::words_as_bytes_mut(&mut words)[..len])?;
        Ok(HgbFile {
            image: Arc::new(Image::Heap { words, len }),
        })
    }

    /// Which backing this file ended up with.
    pub fn mode(&self) -> LoadMode {
        match *self.image {
            #[cfg(unix)]
            Image::Map(_) => LoadMode::Mmap,
            Image::Heap { .. } => LoadMode::Read,
        }
    }

    /// The raw file bytes; base address is always 8-byte aligned.
    pub fn bytes(&self) -> &[u8] {
        self.image.bytes()
    }

    /// The structurally validated view of the file. O(header).
    pub fn view(&self) -> Result<HgbView<'_>, NetlistError> {
        Ok(HgbView {
            image: &self.image,
            layout: parse_layout(self.bytes())?,
        })
    }
}

/// Opens `path` for reading, with its length as a `usize`.
fn open_sized(path: &Path) -> std::io::Result<(File, usize)> {
    let file = File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "file exceeds address space")
    })?;
    Ok((file, len))
}

/// What [`load_hgb`] did: backing mode, file size, and wall time.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Mmap fast path or buffered read.
    pub mode: LoadMode,
    /// File size in bytes.
    pub bytes: usize,
    /// Wall-clock milliseconds for open + deep validation.
    pub millis: f64,
}

/// An error from [`load_hgb`]: either the file could not be read at all,
/// or its content failed `.hgb` validation.
#[derive(Debug)]
pub enum HgbLoadError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The bytes are not a valid `.hgb` image.
    Format(NetlistError),
}

impl fmt::Display for HgbLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HgbLoadError::Io(e) => write!(f, "io: {e}"),
            HgbLoadError::Format(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HgbLoadError {}

impl From<NetlistError> for HgbLoadError {
    fn from(e: NetlistError) -> Self {
        HgbLoadError::Format(e)
    }
}

impl From<std::io::Error> for HgbLoadError {
    fn from(e: std::io::Error) -> Self {
        HgbLoadError::Io(e)
    }
}

/// Opens and validates a `.hgb` file and returns the graph built on its
/// image in place (see [`HgbView::to_hypergraph`]), with a
/// [`LoadReport`] describing how the load went.
pub fn load_hgb(path: &Path) -> Result<(Hypergraph, LoadReport), HgbLoadError> {
    let start = Instant::now();
    let file = HgbFile::open(path)?;
    let graph = file.view()?.to_hypergraph()?;
    Ok((
        graph,
        LoadReport {
            mode: file.mode(),
            bytes: file.bytes().len(),
            millis: start.elapsed().as_secs_f64() * 1e3,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;
    use crate::ids::NodeId;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(5);
        b.add_net(1.0, [0, 1, 2]).unwrap();
        b.add_net(2.5, [2, 3]).unwrap();
        b.add_net(0.75, [0, 3, 4]).unwrap();
        b.build().unwrap()
    }

    fn decorated() -> Hypergraph {
        let mut b = HypergraphBuilder::new(3);
        b.set_node_weights(vec![1.5, 2.0, 0.5]).unwrap();
        b.set_node_names(vec!["alpha".into(), "".into(), "γ".into()]);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(3.0, [1, 2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_plain() {
        let g = sample();
        let bytes = write_hgb(&g);
        assert_eq!(parse_hgb(&bytes).unwrap(), g);
    }

    #[test]
    fn roundtrip_with_weights_and_names() {
        let g = decorated();
        let bytes = write_hgb(&g);
        let back = parse_hgb(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.node_name(NodeId::new(2)), Some("γ"));
    }

    #[test]
    fn writer_is_canonical() {
        let g = sample();
        assert_eq!(write_hgb(&g), write_hgb(&g));
        assert_eq!(write_hgb(&g), write_hgb(&parse_hgb(&write_hgb(&g)).unwrap()));
    }

    #[test]
    fn peek_stats_reads_header_only() {
        let g = decorated();
        let bytes = write_hgb(&g);
        let stats = peek_stats(&bytes).unwrap();
        assert_eq!(
            stats,
            HgbStats {
                nodes: 3,
                nets: 2,
                pins: 4,
                has_node_weights: true,
                has_node_names: true,
            }
        );
    }

    #[test]
    fn file_roundtrip_both_modes() {
        let g = decorated();
        let dir = std::env::temp_dir().join(format!("hgb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decorated.hgb");
        write_hgb_file(&g, &path).unwrap();

        let mapped = HgbFile::open(&path).unwrap();
        let buffered = HgbFile::open_buffered(&path).unwrap();
        assert_eq!(buffered.mode(), LoadMode::Read);
        assert_eq!(mapped.bytes(), buffered.bytes(), "backings are byte-identical");
        assert_eq!(mapped.view().unwrap().to_hypergraph().unwrap(), g);
        assert_eq!(buffered.view().unwrap().to_hypergraph().unwrap(), g);

        let (loaded, report) = load_hgb(&path).unwrap();
        assert_eq!(loaded, g);
        assert_eq!(report.bytes, mapped.bytes().len());

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn rewriting_a_loaded_path_leaves_its_graphs_intact() {
        let dir = std::env::temp_dir().join(format!("hgb-rewrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.hgb");
        let g = sample();
        write_hgb_file(&g, &path).unwrap();
        let file = HgbFile::open(&path).unwrap();
        let (loaded, _) = load_hgb(&path).unwrap();

        // Same shape and byte length, different net weights.
        let mut b = HypergraphBuilder::new(5);
        b.add_net(3.0, [0, 1, 2]).unwrap();
        b.add_net(4.0, [2, 3]).unwrap();
        b.add_net(5.0, [0, 3, 4]).unwrap();
        let other = b.build().unwrap();
        assert_eq!(write_hgb(&other).len(), write_hgb(&g).len());
        assert_ne!(other, g);
        write_hgb_file(&other, &path).unwrap();

        assert_eq!(file.view().unwrap().to_hypergraph().unwrap(), g);
        assert_eq!(loaded, g);
        assert_eq!(load_hgb(&path).unwrap().0, other, "the path holds the new graph");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temp file left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_corrupt_inputs_error() {
        let g = sample();
        let bytes = write_hgb(&g);
        assert!(matches!(
            parse_hgb(&bytes[..HEADER_LEN - 1]),
            Err(NetlistError::Hgb(HgbError::Truncated { .. }))
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            parse_hgb(&bad),
            Err(NetlistError::Hgb(HgbError::BadMagic))
        ));
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            parse_hgb(&bad),
            Err(NetlistError::Hgb(HgbError::UnsupportedVersion { version: 99 }))
        ));
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&HGB_ENDIAN_TAG.swap_bytes().to_le_bytes());
        assert!(matches!(
            parse_hgb(&bad),
            Err(NetlistError::Hgb(HgbError::ForeignEndianness { .. }))
        ));
        let mut bad = bytes;
        bad.truncate(bad.len() - 1);
        assert!(matches!(
            parse_hgb(&bad),
            Err(NetlistError::Hgb(HgbError::Truncated { .. }))
        ));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = HypergraphBuilder::new(2).build().unwrap();
        let bytes = write_hgb(&g);
        assert_eq!(parse_hgb(&bytes).unwrap(), g);
    }
}
