//! Little-endian byte (de)serialization: record primitives plus the
//! versioned **snapshot** container.
//!
//! Two layers live here:
//!
//! * the record substrate — a growable [`Writer`], a bounds-checked
//!   [`Reader`], and the [`Tree`] record format — shared by every
//!   snapshot section;
//! * the snapshot container — [`SnapshotWriter`] / [`SnapshotReader`]:
//!   a magic + format-version header, streamed section payloads, and a
//!   trailing section table of `(id, offset, len, xxh64)` entries.
//!   A loader validates the header and per-section checksums before a
//!   single record is decoded, so corrupt or truncated files surface
//!   as [`io::Error`]s, never panics.
//!
//! Records carry no version of their own. A snapshot exists to outlive
//! its writer, hence the container's explicit format version
//! ([`SNAPSHOT_VERSION`], bumped on any layout change; readers reject
//! versions they do not know).

use crate::ids::Weight;
use crate::tree::Tree;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write as _};
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Fresh writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer { buf: Vec::with_capacity(bytes) }
    }

    /// Write a `u8`.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write an `f64` (IEEE-754 bits).
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Write a `usize` as a `u64`.
    pub fn len(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Write raw bytes (no length prefix).
    pub fn bytes(&mut self, xs: &[u8]) {
        self.buf.extend_from_slice(xs);
    }

    /// Write a length-prefixed `u8` slice.
    pub fn slice_u8(&mut self, xs: &[u8]) {
        self.len(xs.len());
        self.bytes(xs);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.slice_u8(s.as_bytes());
    }

    /// Write a length-prefixed `u32` slice.
    pub fn slice_u32(&mut self, xs: &[u32]) {
        self.len(xs.len());
        for (out, x) in self.grow(4 * xs.len()).chunks_exact_mut(4).zip(xs) {
            out.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Write a length-prefixed `u64` slice.
    pub fn slice_u64(&mut self, xs: &[u64]) {
        self.len(xs.len());
        for (out, x) in self.grow(8 * xs.len()).chunks_exact_mut(8).zip(xs) {
            out.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Write a length-prefixed `(u32, u32)` pair slice (the shape of
    /// every directory arena in `treeroute`).
    pub fn slice_pairs(&mut self, xs: &[(u32, u32)]) {
        self.len(xs.len());
        for (out, &(a, b)) in self.grow(8 * xs.len()).chunks_exact_mut(8).zip(xs) {
            let (lo, hi) = out.split_at_mut(4);
            lo.copy_from_slice(&a.to_le_bytes());
            hi.copy_from_slice(&b.to_le_bytes());
        }
    }

    /// Append `n` zero bytes and hand them out for filling: one bounds
    /// check per array instead of one per element.
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        self.buf.get_mut(start..).unwrap_or_default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor over a byte slice written by [`Writer`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated wire record")
}

/// The standard malformed-record error.
pub fn invalid(what: &str) -> io::Error {
    // lint:allow(no-alloc-in-route): error path — the message is allocated only when a read fails
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        if end > self.buf.len() {
            return Err(truncated());
        }
        // lint:allow(panic-free-serve): end <= buf.len() checked two lines up; pos <= end by checked_add
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        // lint:allow(panic-free-serve): take(1) returned exactly one byte, so [0] is in bounds
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        // lint:allow(panic-free-serve): take(4) returns exactly 4 bytes — the try_into is infallible
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        // lint:allow(panic-free-serve): take(8) returns exactly 8 bytes — the try_into is infallible
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` (IEEE-754 bits).
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` length, capped against the remaining byte count so a
    /// corrupt record cannot trigger a huge allocation.
    pub fn len(&mut self) -> io::Result<usize> {
        let x = self.u64()? as usize;
        if x > self.buf.len().saturating_sub(self.pos) {
            return Err(truncated());
        }
        Ok(x)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a length-prefixed `u8` slice.
    pub fn slice_u8(&mut self) -> io::Result<Vec<u8>> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        let bytes = self.slice_u8()?;
        String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 string"))
    }

    /// Read a length-prefixed `u32` slice.
    pub fn slice_u32(&mut self) -> io::Result<Vec<u32>> {
        Ok(self.le_slice::<u32>()?.iter().collect())
    }

    /// Read a length-prefixed `u64` slice.
    pub fn slice_u64(&mut self) -> io::Result<Vec<u64>> {
        Ok(self.le_slice::<u64>()?.iter().collect())
    }

    /// Read a length-prefixed `(u32, u32)` pair slice.
    pub fn slice_pairs(&mut self) -> io::Result<Vec<(u32, u32)>> {
        Ok(self.le_slice::<(u32, u32)>()?.iter().collect())
    }

    /// Borrow a length-prefixed array in place (no copy).
    pub fn le_slice<T: LeValue>(&mut self) -> io::Result<LeSlice<'a, T>> {
        Ok(LeSlice::new(self.array(T::WIDTH)?))
    }

    /// The payload bytes of a length-prefixed array of `width`-byte
    /// elements.
    pub fn array(&mut self, width: usize) -> io::Result<&'a [u8]> {
        let n = self.len()?;
        self.take(n.checked_mul(width).ok_or_else(truncated)?)
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A fixed-width little-endian value stored in a record array.
pub trait LeValue: Copy + 'static {
    /// Bytes per element.
    const WIDTH: usize;
    /// Decode one element from exactly `WIDTH` bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl LeValue for u32 {
    const WIDTH: usize = 4;
    fn from_le(b: &[u8]) -> u32 {
        b.try_into().map_or(0, u32::from_le_bytes)
    }
}

impl LeValue for u64 {
    const WIDTH: usize = 8;
    fn from_le(b: &[u8]) -> u64 {
        b.try_into().map_or(0, u64::from_le_bytes)
    }
}

impl LeValue for (u32, u32) {
    const WIDTH: usize = 8;
    fn from_le(b: &[u8]) -> (u32, u32) {
        let (lo, hi) = b.split_at(b.len().min(4));
        (<u32 as LeValue>::from_le(lo), <u32 as LeValue>::from_le(hi))
    }
}

/// A little-endian array read in place from a record. Every accessor is
/// checked: an index past the end is `None`, never a panic, so code
/// reading a record it has not validated degrades instead of crashing.
#[derive(Debug)]
pub struct LeSlice<'a, T> {
    bytes: &'a [u8],
    of: PhantomData<T>,
}

/// A `u32` array read in place.
pub type U32s<'a> = LeSlice<'a, u32>;
/// A `u64` array read in place.
pub type U64s<'a> = LeSlice<'a, u64>;
/// A `(u32, u32)` pair array read in place.
pub type Pairs<'a> = LeSlice<'a, (u32, u32)>;

// Manual impls: the derives would needlessly require `T: Clone`.
impl<T> Clone for LeSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for LeSlice<'_, T> {}

impl<T> Default for LeSlice<'_, T> {
    fn default() -> Self {
        LeSlice { bytes: &[], of: PhantomData }
    }
}

impl<'a, T: LeValue> LeSlice<'a, T> {
    /// View array payload bytes (as [`Reader::array`] returns them);
    /// a ragged tail is ignored.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        LeSlice { bytes, of: PhantomData }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / T::WIDTH
    }

    /// True if the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        let at = i.checked_mul(T::WIDTH)?;
        Some(T::from_le(self.bytes.get(at..)?.get(..T::WIDTH)?))
    }

    /// Elements `lo..hi`, if that range is in bounds.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> Option<Self> {
        let (lo, hi) = (lo.checked_mul(T::WIDTH)?, hi.checked_mul(T::WIDTH)?);
        Some(Self::new(self.bytes.get(lo..hi)?))
    }

    /// Every element in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + 'a {
        self.bytes.chunks_exact(T::WIDTH).map(T::from_le)
    }
}

/// Serialize a [`Tree`] as its three defining arrays (graph ids,
/// parents, parent weights); children/depths are rebuilt on read by
/// [`Tree::try_from_parents`], which also re-validates the structure.
pub fn write_tree(w: &mut Writer, t: &Tree) {
    let n = t.size();
    w.slice_u32(t.graph_ids());
    let mut parents = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for ix in 0..n as u32 {
        parents.push(t.parent(ix).unwrap_or(u32::MAX));
        weights.push(t.parent_weight(ix));
    }
    w.slice_u32(&parents);
    w.slice_u64(&weights);
}

/// Inverse of [`write_tree`]. Structural corruption (bad parents,
/// cycles) is an [`io::Error`], not a panic.
pub fn read_tree(r: &mut Reader) -> io::Result<Tree> {
    let graph_ids = r.slice_u32()?;
    let parents = r.slice_u32()?;
    let weights: Vec<Weight> = r.slice_u64()?;
    if parents.len() != graph_ids.len() || weights.len() != graph_ids.len() || graph_ids.is_empty()
    {
        return Err(invalid("inconsistent tree record"));
    }
    Tree::try_from_parents(graph_ids, parents, weights).map_err(|msg| invalid(&msg))
}

// ---------------------------------------------------------------------
// xxHash64 (seed 0) — the snapshot's per-section corruption guard.
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per stripe: one 8-byte word for each of the four lanes.
const STRIPE: usize = 32;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Streaming xxHash64 with seed 0 (Collet's specification). Four
/// independent 64-bit lanes absorb 32-byte stripes, so the hash runs at
/// memory speed; up to 31 bytes are carried between
/// [`Xxh64::update`] calls, so a section streamed in pieces hashes
/// exactly like one slice.
#[derive(Clone, Copy)]
pub struct Xxh64 {
    lanes: [u64; 4],
    carry: [u8; STRIPE],
    carried: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            carry: [0; STRIPE],
            carried: 0,
            total: 0,
        }
    }
}

impl Xxh64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.carried > 0 {
            let take = (STRIPE - self.carried).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            let end = self.carried + take;
            if let Some(dst) = self.carry.get_mut(self.carried..end) {
                dst.copy_from_slice(head);
            }
            self.carried = end;
            bytes = rest;
            if end < STRIPE {
                return;
            }
            let carry = self.carry;
            self.stripes(&carry);
            self.carried = 0;
        }
        let rest = self.stripes(bytes);
        if let Some(dst) = self.carry.get_mut(..rest.len()) {
            dst.copy_from_slice(rest);
        }
        self.carried = rest.len();
    }

    /// Fold every whole stripe of `bytes` into the lanes; returns the
    /// ragged tail.
    fn stripes<'b>(&mut self, bytes: &'b [u8]) -> &'b [u8] {
        let (stripes, rest) = bytes.as_chunks::<STRIPE>();
        let mut lanes = self.lanes;
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = xxh_round(*lane, u64::from_le_bytes(*word));
            }
        }
        self.lanes = lanes;
        rest
    }

    /// The digest of every byte absorbed so far.
    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let tail = self.carry.get(..self.carried).unwrap_or_default();
        let (words, rest) = tail.as_chunks::<8>();
        for word in words {
            h ^= xxh_round(0, u64::from_le_bytes(*word));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        let (halves, rest) = rest.as_chunks::<4>();
        for half in halves {
            h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        }
        for &byte in rest {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One-shot xxHash64, seed 0.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.digest()
}

// ---------------------------------------------------------------------
// The snapshot container.
// ---------------------------------------------------------------------

/// Snapshot file magic: `AGMSNAP\0`.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AGMSNAP\0";
/// Current snapshot format version. Bump on any layout change; readers
/// reject unknown versions instead of misparsing.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Header: magic (8) + version (4) + section-table offset (8).
const HEADER_LEN: u64 = 20;
/// Section-table entry: id (4) + offset (8) + len (8) + checksum (8).
const TABLE_ENTRY_LEN: u64 = 28;

#[derive(Clone, Copy, Debug)]
struct Section {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Streaming writer for a snapshot file: header, then each section's
/// payload in the order begun, then the section table; `finish`
/// back-patches the table offset into the header. Section payloads are
/// streamed (`write` may be called many times between `begin_section`
/// and `end_section`), so a multi-GiB section never has to exist in
/// memory at once.
pub struct SnapshotWriter {
    file: File,
    offset: u64,
    sections: Vec<Section>,
    open: Option<(u32, u64, Xxh64)>,
}

impl SnapshotWriter {
    /// Create (truncating) the snapshot at `path` and write the header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&SNAPSHOT_MAGIC)?;
        file.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        file.write_all(&0u64.to_le_bytes())?; // table offset, patched by finish
        Ok(SnapshotWriter { file, offset: HEADER_LEN, sections: Vec::new(), open: None })
    }

    /// Start a new section. Ids must be unique within a snapshot.
    pub fn begin_section(&mut self, id: u32) {
        assert!(self.open.is_none(), "previous section still open");
        assert!(self.sections.iter().all(|s| s.id != id), "duplicate section id {id}");
        self.open = Some((id, self.offset, Xxh64::new()));
    }

    /// Append payload bytes to the open section.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let (_, _, hash) = self.open.as_mut().expect("no open section");
        hash.update(bytes);
        self.file.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Close the open section, recording its table entry.
    pub fn end_section(&mut self) {
        let (id, start, hash) = self.open.take().expect("no open section");
        self.sections.push(Section {
            id,
            offset: start,
            len: self.offset - start,
            checksum: hash.digest(),
        });
    }

    /// Convenience: a whole section from one byte slice.
    pub fn section(&mut self, id: u32, bytes: &[u8]) -> io::Result<()> {
        self.begin_section(id);
        self.write(bytes)?;
        self.end_section();
        Ok(())
    }

    /// Write the section table, patch the header, and flush.
    pub fn finish(mut self) -> io::Result<()> {
        assert!(self.open.is_none(), "finish with a section still open");
        let table_offset = self.offset;
        let mut w = Writer::new();
        w.u32(self.sections.len() as u32);
        for s in &self.sections {
            w.u32(s.id);
            w.u64(s.offset);
            w.u64(s.len);
            w.u64(s.checksum);
        }
        self.file.write_all(&w.into_bytes())?;
        self.file.seek(SeekFrom::Start(HEADER_LEN - 8))?;
        self.file.write_all(&table_offset.to_le_bytes())?;
        self.file.flush()?;
        self.file.sync_all()
    }
}

/// Read side of a snapshot: validates magic, version, and section-table
/// bounds on open; [`SnapshotReader::section`] reads one section's
/// payload and verifies its checksum. Positional reads only — many
/// threads may share the reader, and a lazy store can keep the file
/// open and read section sub-ranges on demand.
#[derive(Debug)]
pub struct SnapshotReader {
    file: File,
    file_len: u64,
    sections: Vec<Section>,
}

impl SnapshotReader {
    /// Open and validate `path`'s header and section table.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(invalid("snapshot shorter than its header"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        // lint:allow(panic-free-serve): header is a fixed [u8; HEADER_LEN] stack array; constant ranges are in bounds
        if header[..8] != SNAPSHOT_MAGIC {
            return Err(invalid("bad snapshot magic"));
        }
        // lint:allow(panic-free-serve): constant 4-byte range of the fixed header array — try_into is infallible
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(invalid("unsupported snapshot format version"));
        }
        // lint:allow(panic-free-serve): constant 8-byte range of the fixed header array — try_into is infallible
        let table_offset = u64::from_le_bytes(header[12..20].try_into().unwrap());
        // The offset comes from the file: bound it with checked sums, so
        // a crafted value near u64::MAX is InvalidData, not a wrap.
        let entries = table_offset
            .checked_add(4)
            .filter(|&entries| table_offset >= HEADER_LEN && entries <= file_len)
            .ok_or_else(|| invalid("section table offset out of bounds"))?;
        let mut count_buf = [0u8; 4];
        file.read_exact_at(&mut count_buf, table_offset)?;
        let count = u32::from_le_bytes(count_buf) as u64;
        let table_len = count.checked_mul(TABLE_ENTRY_LEN).ok_or_else(|| invalid("table size"))?;
        if entries.checked_add(table_len).is_none_or(|end| end > file_len) {
            return Err(invalid("section table truncated"));
        }
        let mut table = vec![0u8; table_len as usize];
        file.read_exact_at(&mut table, entries)?;
        let mut r = Reader::new(&table);
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let s = Section { id: r.u32()?, offset: r.u64()?, len: r.u64()?, checksum: r.u64()? };
            let end = s.offset.checked_add(s.len).ok_or_else(|| invalid("section bounds"))?;
            if s.offset < HEADER_LEN || end > table_offset {
                return Err(invalid("section out of bounds"));
            }
            if sections.iter().any(|t: &Section| t.id == s.id) {
                return Err(invalid("duplicate section id"));
            }
            sections.push(s);
        }
        Ok(SnapshotReader { file, file_len, sections })
    }

    /// Ids of every section, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|s| s.id).collect()
    }

    /// Does the snapshot carry section `id`?
    pub fn has(&self, id: u32) -> bool {
        self.sections.iter().any(|s| s.id == id)
    }

    fn entry(&self, id: u32) -> io::Result<&Section> {
        self.sections.iter().find(|s| s.id == id).ok_or_else(|| invalid("missing snapshot section"))
    }

    /// The `(offset, len)` of section `id`'s payload within the file —
    /// for lazy stores that read records straight out of the snapshot.
    pub fn section_range(&self, id: u32) -> io::Result<(u64, u64)> {
        self.entry(id).map(|s| (s.offset, s.len))
    }

    /// Read section `id`'s payload and verify its checksum.
    pub fn section(&self, id: u32) -> io::Result<Vec<u8>> {
        let s = *self.entry(id)?;
        let mut buf = vec![0u8; s.len as usize];
        self.file.read_exact_at(&mut buf, s.offset)?;
        if xxh64(&buf) != s.checksum {
            return Err(invalid("section checksum mismatch"));
        }
        Ok(buf)
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Surrender the underlying file handle (for lazy record stores
    /// that outlive the reader).
    pub fn into_file(self) -> File {
        self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(2.5);
        w.str("phase");
        w.slice_u32(&[1, 2, 3]);
        w.slice_u64(&[]);
        w.slice_pairs(&[(9, 10)]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "phase");
        assert_eq!(r.slice_u32().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.slice_u64().unwrap(), Vec::<u64>::new());
        assert_eq!(r.slice_pairs().unwrap(), vec![(9, 10)]);
        assert!(r.is_empty());
    }

    #[test]
    fn borrowed_arrays_read_in_place() {
        let mut w = Writer::new();
        w.slice_u32(&[1, 2, 0xDEAD_BEEF]);
        w.u8(9); // misalign everything after
        w.slice_u64(&[u64::MAX, 5]);
        w.slice_pairs(&[(7, 8), (9, 10), (11, 12)]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let a: U32s = r.le_slice().unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        let b: U64s = r.le_slice().unwrap();
        let c: Pairs = r.le_slice().unwrap();
        assert!(r.is_empty());
        assert_eq!((a.len(), a.get(2), a.get(3)), (3, Some(0xDEAD_BEEF), None));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 0xDEAD_BEEF]);
        assert_eq!((b.len(), b.get(0), b.get(usize::MAX)), (2, Some(u64::MAX), None));
        assert_eq!(c.get(1), Some((9, 10)));
        let mid = c.range(1, 3).unwrap();
        assert_eq!(mid.iter().collect::<Vec<_>>(), vec![(9, 10), (11, 12)]);
        assert!(c.range(2, 4).is_none() && c.range(3, 2).is_none());
        assert!(U32s::default().is_empty() && U32s::default().get(0).is_none());
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.slice_u32(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(r.slice_u32().is_err());
        // A corrupt length larger than the record must not allocate.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.len().is_err());
    }

    #[test]
    fn tree_roundtrip() {
        let t = Tree::from_parents(vec![10, 11, 12, 13], vec![u32::MAX, 0, 0, 1], vec![0, 2, 1, 5]);
        let mut w = Writer::new();
        write_tree(&mut w, &t);
        let bytes = w.into_bytes();
        let t2 = read_tree(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(t2.graph_ids(), t.graph_ids());
        for ix in 0..t.size() as u32 {
            assert_eq!(t2.parent(ix), t.parent(ix));
            assert_eq!(t2.parent_weight(ix), t.parent_weight(ix));
            assert_eq!(t2.depth(ix), t.depth(ix));
            assert_eq!(t2.children(ix), t.children(ix));
        }
    }

    #[test]
    fn corrupt_tree_is_an_error_not_a_panic() {
        // A cycle (1 <-> 2) must come back as InvalidData.
        let mut w = Writer::new();
        w.slice_u32(&[0, 1, 2]); // graph ids
        w.slice_u32(&[u32::MAX, 2, 1]); // parents: cycle
        w.slice_u64(&[0, 1, 1]);
        let bytes = w.into_bytes();
        assert!(read_tree(&mut Reader::new(&bytes)).is_err());
        // Parent index out of range.
        let mut w = Writer::new();
        w.slice_u32(&[0, 1]);
        w.slice_u32(&[u32::MAX, 9]);
        w.slice_u64(&[0, 1]);
        let bytes = w.into_bytes();
        assert!(read_tree(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Published xxHash64 seed-0 vectors; the last (39 bytes) crosses
        // a stripe, so it runs the lanes, the 8-, 4- and 1-byte tails.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn xxh64_streaming_equals_one_shot() {
        let buf: Vec<u8> = (0..100u32).map(|i| (i * 131 + 7) as u8).collect();
        let whole = xxh64(&buf);
        for i in 0..=buf.len() {
            for j in i..=buf.len() {
                let mut h = Xxh64::new();
                h.update(&buf[..i]);
                h.update(&buf[i..j]);
                h.update(&buf[j..]);
                assert_eq!(h.digest(), whole, "split at {i}, {j}");
            }
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("agm-wire-test-{}-{tag}.snap", std::process::id()))
    }

    #[test]
    fn snapshot_roundtrip() {
        let path = temp_path("roundtrip");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section(7, b"hello").unwrap();
        w.begin_section(9);
        w.write(b"wor").unwrap();
        w.write(b"ld").unwrap();
        w.end_section();
        w.section(1, b"").unwrap();
        w.finish().unwrap();

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.section_ids(), vec![7, 9, 1]);
        assert!(r.has(9) && !r.has(2));
        assert_eq!(r.section(7).unwrap(), b"hello");
        assert_eq!(r.section(9).unwrap(), b"world");
        assert_eq!(r.section(1).unwrap(), b"");
        assert!(r.section(2).is_err());
        let (off, len) = r.section_range(9).unwrap();
        assert_eq!(len, 5);
        assert!(off >= 20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_rejects_corruption() {
        // The short payload never fills a 32-byte stripe. The long one,
        // written in uneven pieces, runs the stripe loop and the carry
        // buffer, so the sweeps below corrupt bytes in each.
        let long: Vec<u8> = (0..107u32).map(|i| (i * 37 + 11) as u8).collect();
        let (a, rest) = long.split_at(5);
        let (b, rest) = rest.split_at(37);
        let (c, d) = rest.split_at(1);
        let payloads: [&[&[u8]]; 2] = [&[b"some payload bytes"], &[a, b, c, d]];
        for (p, pieces) in payloads.into_iter().enumerate() {
            let path = temp_path(&format!("corrupt-{p}"));
            let mut w = SnapshotWriter::create(&path).unwrap();
            w.begin_section(3);
            for piece in pieces {
                w.write(piece).unwrap();
            }
            w.end_section();
            w.finish().unwrap();
            let good = std::fs::read(&path).unwrap();
            assert_eq!(SnapshotReader::open(&path).unwrap().section(3).unwrap(), pieces.concat());

            // Truncation at every prefix length: open or section read
            // must error, never panic.
            for cut in 0..good.len() {
                std::fs::write(&path, &good[..cut]).unwrap();
                if let Ok(r) = SnapshotReader::open(&path) {
                    assert!(r.section(3).is_err(), "payload {p} cut={cut}");
                }
            }
            // Single-byte flips: header flips fail open; payload flips
            // fail the checksum; table flips fail bounds or the
            // checksum.
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x40;
                std::fs::write(&path, &bad).unwrap();
                if let Ok(r) = SnapshotReader::open(&path) {
                    if let Ok(payload) = r.section(3) {
                        // A flip that still reads back must be confined
                        // to unreachable bytes — impossible here, since
                        // every byte of this file is load-bearing.
                        panic!("payload {p}: flip at {i} went unnoticed: {payload:?}")
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn snapshot_rejects_table_offset_overflow() {
        let path = temp_path("table-offset");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section(1, b"x").unwrap();
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        // Offsets whose table bounds wrap past u64::MAX, and the
        // largest that does not.
        for offset in [u64::MAX - 1, u64::MAX - 3, u64::MAX, u64::MAX - 4] {
            let mut bytes = good.clone();
            bytes[12..20].copy_from_slice(&offset.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = SnapshotReader::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "table offset {offset:#x}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_rejects_wrong_version() {
        let path = temp_path("version");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section(1, b"x").unwrap();
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        // The next version and the previous one: no reader for either.
        for version in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = SnapshotReader::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
        std::fs::remove_file(&path).ok();
    }
}
