//! Where completed landmark trees live: their Lemma-4 wire records
//! (the layout [`ErrorReportingTree::to_wire`] writes, the same bytes a
//! snapshot's `CENTER_TREES` section holds), kept next to a directory
//! sorted by center. Routing reads a record in place through an
//! [`ErtView`]; no tree is ever decoded into owned arrays.
//!
//! One store, two backings:
//!
//! * **resident** — the record bytes in memory: one buffer per record
//!   for a built or repaired scheme (so repair moves a reused record
//!   instead of copying it), or the whole loaded `CENTER_TREES` section
//!   as one buffer;
//! * **file** — records inside the snapshot itself, opened by
//!   `Scheme::load_lazy`. Each fetch is one positional read into a
//!   per-thread buffer.
//!
//! **Validation rule.** A record read from a snapshot must pass
//! [`ErtView::new`] and name only graph nodes
//! ([`treeroute::LabeledView::validate_hosts`]: a record alone cannot
//! know n). A resident record is validated once — the build encodes it
//! itself, `Scheme::load` checksums the section and checks every record
//! before the store exists, and [`CenterStore::take_record`] checks a
//! record that a repair carries out of a file — and is then viewed
//! through its [`ErtLayout`], found once, with the view's accessors
//! still checked. A file record is checked on every fetch, and nothing
//! remembers that it was good: lazy loading never checksums the
//! section, so these checks are its only guard. They are
//! allocation-free and linear in the record; the snapshot parity suite
//! asserts both backings route exactly like a fresh build.

use std::cell::RefCell;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;

use graphkit::wire::{self, invalid};
use treeroute::laing::{ErrorReportingTree, ErtLayout, ErtRead, ErtView};

/// Center trees as `(center, wire record)` pairs, in any order.
pub(crate) type Records = Vec<(u32, Box<[u8]>)>;

/// Where one center's record lives.
#[derive(Clone, Copy, Debug)]
struct Extent {
    /// Resident: index of the buffer holding the record.
    buf: u32,
    /// Byte offset within that buffer, or within the file.
    off: u64,
    len: u32,
}

/// The bytes behind a [`CenterStore`].
enum Backing {
    /// One buffer per record, or one whole loaded section, plus each
    /// record's array layout (aligned with the directory).
    Memory { bufs: Vec<Box<[u8]>>, layouts: Vec<ErtLayout> },
    /// A lazily opened snapshot, over a graph of `n` nodes.
    File { file: File, n: usize },
}

/// Every center tree of a scheme, as wire records plus a directory.
pub(crate) struct CenterStore {
    /// Centers with a tree, ascending; `extents[i]` locates `centers[i]`.
    centers: Vec<u32>,
    extents: Vec<Extent>,
    backing: Backing,
}

thread_local! {
    /// Per-thread landing buffer for file fetches: grows to the largest
    /// record this thread has read, then is reused.
    static FETCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl CenterStore {
    /// Resident store over records this process encoded, one buffer
    /// each. A record whose arrays cannot be located is dropped, so
    /// routes through its center miss at that level.
    pub fn resident(mut records: Records) -> Self {
        records.sort_unstable_by_key(|&(c, _)| c);
        let mut centers = Vec::with_capacity(records.len());
        let mut extents = Vec::with_capacity(records.len());
        let mut bufs = Vec::with_capacity(records.len());
        let mut layouts = Vec::with_capacity(records.len());
        for (center, bytes) in records {
            let Ok((_, layout)) = ErtView::locate(&bytes) else { continue };
            centers.push(center);
            extents.push(Extent { buf: bufs.len() as u32, off: 0, len: bytes.len() as u32 });
            layouts.push(layout);
            bufs.push(bytes);
        }
        CenterStore { centers, extents, backing: Backing::Memory { bufs, layouts } }
    }

    /// Resident store over a loaded `CENTER_TREES` section of a scheme
    /// on `n` nodes, with `(center, offset, len)` rows ascending by
    /// center. Every extent must lie inside the section and every record
    /// must validate, host ids included — checked here, in parallel,
    /// before the store exists.
    pub fn section(bytes: Vec<u8>, dir: &[(u32, u64, u32)], n: usize) -> io::Result<Self> {
        let record = |&(_, off, len): &(u32, u64, u32)| {
            usize::try_from(off)
                .ok()
                .and_then(|off| bytes.get(off..off.checked_add(len as usize)?))
                .ok_or_else(|| invalid("center record extends past its section"))
        };
        // merge: per-chunk layouts concatenated in chunk (= directory)
        // order; the first error in chunk order wins.
        let chunks = graphkit::metrics::par_chunks(dir.len(), |range| {
            let rows = dir.get(range).unwrap_or_default();
            rows.iter()
                .map(|row| {
                    let (view, layout) = ErtView::locate(record(row)?)?;
                    view.validate()?;
                    view.labeled().validate_hosts(n)?;
                    Ok(layout)
                })
                .collect::<io::Result<Vec<ErtLayout>>>()
        });
        let mut layouts = Vec::with_capacity(dir.len());
        for chunk in chunks {
            layouts.extend(chunk?);
        }
        let (centers, extents) = Self::directory(dir);
        let bufs = vec![bytes.into_boxed_slice()];
        Ok(CenterStore { centers, extents, backing: Backing::Memory { bufs, layouts } })
    }

    /// File-backed store for a scheme on `n` nodes: `(center, absolute
    /// offset, len)` rows, ascending by center.
    pub fn file(file: File, dir: &[(u32, u64, u32)], n: usize) -> Self {
        let (centers, extents) = Self::directory(dir);
        CenterStore { centers, extents, backing: Backing::File { file, n } }
    }

    fn directory(dir: &[(u32, u64, u32)]) -> (Vec<u32>, Vec<Extent>) {
        dir.iter().map(|&(center, off, len)| (center, Extent { buf: 0, off, len })).unzip()
    }

    /// Every center with a tree, ascending.
    pub fn centers(&self) -> impl Iterator<Item = u32> + '_ {
        self.centers.iter().copied()
    }

    /// Directory slot of center `c`.
    fn slot(&self, c: u32) -> io::Result<usize> {
        self.centers.binary_search(&c).map_err(|_| invalid("unknown center"))
    }

    /// Run `visit` on the raw bytes of center `c`'s record. Routing
    /// only asks for centers the plans recorded, so a miss, a short read
    /// or a record outside its buffer is an error for the caller to
    /// degrade on — never a panic.
    pub fn with_record<R>(&self, c: u32, visit: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        self.read_slot(self.slot(c)?, visit)
    }

    fn read_slot<R>(&self, slot: usize, visit: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let e = *self.extents.get(slot).ok_or_else(|| invalid("unknown center"))?;
        match &self.backing {
            Backing::Memory { bufs, .. } => {
                let bytes = bufs
                    .get(e.buf as usize)
                    .and_then(|b| b.get(usize::try_from(e.off).ok()?..)?.get(..e.len as usize))
                    .ok_or_else(|| invalid("center record outside its buffer"))?;
                Ok(visit(bytes))
            }
            Backing::File { file, .. } => FETCH.with(|cell| {
                // A nested fetch on this thread (none today) gets its
                // own buffer rather than a borrow panic.
                // lint:allow(no-alloc-in-route): Vec::new() does not allocate; the spare grows only on a nested fetch, which no route makes
                let mut spare = Vec::new();
                let mut held = cell.try_borrow_mut();
                let buf = match held.as_deref_mut() {
                    Ok(buf) => buf,
                    Err(_) => &mut spare,
                };
                let len = e.len as usize;
                if buf.len() < len {
                    buf.resize(len, 0);
                }
                let bytes = buf.get_mut(..len).ok_or_else(|| invalid("fetch buffer"))?;
                file.read_exact_at(bytes, e.off)?;
                Ok(visit(bytes))
            }),
        }
    }

    /// Run `visit` on center `c`'s tree, read in place. File records
    /// are validated on every fetch; resident ones were validated when
    /// they became resident (see the module docs).
    pub fn with_tree<R>(&self, c: u32, visit: impl FnOnce(&ErtView<'_>) -> R) -> io::Result<R> {
        let slot = self.slot(c)?;
        match &self.backing {
            Backing::Memory { layouts, .. } => {
                let layout = layouts.get(slot).ok_or_else(|| invalid("center without a layout"))?;
                self.read_slot(slot, |bytes| Ok(visit(&ErtView::at(bytes, layout)?)))?
            }
            Backing::File { n, .. } => {
                self.read_slot(slot, |bytes| Ok(visit(&checked_view(bytes, *n)?)))?
            }
        }
    }

    /// Move center `c`'s record out of a resident store (copying it
    /// when it shares a buffer), or read it from a file and validate it
    /// there: the bytes become resident, and a resident record is never
    /// validated again. The store must not serve `c` afterwards — repair
    /// calls this only on the store it is about to replace.
    pub fn take_record(&mut self, c: u32) -> io::Result<Box<[u8]>> {
        let slot = self.slot(c)?;
        let e = *self.extents.get(slot).ok_or_else(|| invalid("unknown center"))?;
        match &mut self.backing {
            Backing::Memory { bufs, .. } => {
                if let Some(buf) = bufs.get_mut(e.buf as usize) {
                    if e.off == 0 && e.len as usize == buf.len() {
                        return Ok(std::mem::take(buf));
                    }
                }
                self.read_slot(slot, |bytes| Box::from(bytes))
            }
            Backing::File { n, .. } => {
                let n = *n;
                self.read_slot(slot, |bytes| checked_view(bytes, n).map(|_| Box::from(bytes)))?
            }
        }
    }
}

/// View a record read from a snapshot file, with both checks of the
/// module docs' validation rule.
fn checked_view(bytes: &[u8], n: usize) -> io::Result<ErtView<'_>> {
    let view = ErtView::new(bytes)?;
    view.labeled().validate_hosts(n)?;
    Ok(view)
}

/// Encode one finished tree as its wire record.
pub(crate) fn encode(ert: &ErrorReportingTree) -> Box<[u8]> {
    let mut w = wire::Writer::with_capacity(ert.store().wire_len());
    ert.to_wire(&mut w);
    w.into_bytes().into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::Tree;

    /// The record of a star on host ids `ids`, rooted at `ids[0]`.
    fn star_record(ids: &[u32]) -> Box<[u8]> {
        let parents = (0..ids.len()).map(|t| if t == 0 { u32::MAX } else { 0 }).collect();
        let weights = (0..ids.len() as u64).map(|t| t.min(1)).collect();
        let tree = Tree::from_parents(ids.to_vec(), parents, weights);
        encode(&ErrorReportingTree::new(tree, 2, 7))
    }

    /// Every host id must name a node of the graph: a record that names
    /// node n, at the first or the last position, fails as
    /// `InvalidData` — in a loaded section, and on a file fetch or take.
    #[test]
    fn records_naming_a_node_outside_the_graph_are_rejected() {
        let n = 5;
        let path =
            std::env::temp_dir().join(format!("agm-center-store-hosts-{}.bin", std::process::id()));
        for (ids, ok) in [([0, 1, 4], true), ([5, 1, 2], false), ([0, 1, 5], false)] {
            let bytes = star_record(&ids);
            let dir = [(ids[0], 0u64, bytes.len() as u32)];
            let loaded = CenterStore::section(bytes.to_vec(), &dir, n);
            assert_eq!(loaded.is_ok(), ok, "section {ids:?}");
            std::fs::write(&path, &bytes).expect("write record");
            let mut file = CenterStore::file(File::open(&path).expect("open record"), &dir, n);
            let fetched = file.with_tree(ids[0], |_| ());
            let taken = file.take_record(ids[0]);
            for result in [loaded.map(|_| ()), fetched, taken.map(|_| ())] {
                match result {
                    Ok(()) => assert!(ok, "{ids:?} must not read"),
                    Err(e) => {
                        assert!(!ok, "{ids:?} must read: {e}");
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
