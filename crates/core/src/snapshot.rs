//! Versioned on-disk [`Scheme`] snapshots: build once, serve anywhere.
//!
//! A snapshot is a [`graphkit::wire`] container (magic, format
//! version, a section table with one xxHash64 checksum per section)
//! holding every routing-time structure of a scheme in its flat-arena
//! wire form:
//!
//! | section | contents |
//! |---|---|
//! | `META` | construction params, build stats, header accounting |
//! | `GRAPH` | the host graph's CSR arenas |
//! | `DECOMPOSITION` | ranges `a(u, i)` + `⌈log₂Δ⌉` |
//! | `HIERARCHY` | landmark levels `C_0 … C_{k−1}` |
//! | `PLANS` | per-(node, level) plans, SoA (incl. the source's tree index) |
//! | `LANDMARK_BITS` | per-node landmark storage accounting |
//! | `CENTER_DIR` | center id → extent into `CENTER_TREES` |
//! | `CENTER_TREES` | concatenated Lemma-4 tree records |
//! | `SCALE_COVERS` | per dense scale: home map + Lemma-7 stores |
//!
//! Loading rebuilds nothing — no Dijkstras, no tree construction, no
//! hashing re-derivation — so a scheme saved by one process and loaded
//! by another routes bit-identically (asserted by
//! `tests/snapshot_parity.rs`).
//!
//! The center trees are never decoded: their records are the store
//! routing reads ([`crate::center_store`]). [`Scheme::load`] reads the
//! `CENTER_TREES` section, checksums it, validates every record in
//! place and keeps the bytes; [`Scheme::save`] writes them back
//! unchanged. [`Scheme::load_lazy`] does not read the section at all:
//! the snapshot file becomes the store's backing file, and every fetch
//! is one positional read validated on the spot; saving such a scheme
//! copies the records back out of that file.

use std::io;
use std::path::Path;

use decomposition::Decomposition;
use graphkit::wire::{self, Reader, SnapshotReader, SnapshotWriter, Writer};
use graphkit::Graph;
use landmarks::LandmarkHierarchy;
use treeroute::cover_router::CoverScale;

use crate::center_store::CenterStore;
use crate::scheme::{cover_accounting, BuildStats, ForceMode, LevelPlan, Scheme, SchemeParams};

/// Section ids (stable across snapshot versions; never reuse).
const SEC_META: u32 = 1;
const SEC_GRAPH: u32 = 2;
const SEC_DECOMPOSITION: u32 = 3;
const SEC_HIERARCHY: u32 = 4;
const SEC_PLANS: u32 = 5;
const SEC_LANDMARK_BITS: u32 = 6;
const SEC_CENTER_DIR: u32 = 7;
const SEC_CENTER_TREES: u32 = 8;
const SEC_SCALE_COVERS: u32 = 9;

impl Scheme {
    /// Write the scheme to `path` as a versioned snapshot. The output
    /// is byte-deterministic: every keyed collection is held and
    /// serialized in ascending key order.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut sw = SnapshotWriter::create(path)?;

        sw.section(SEC_META, &self.encode_meta())?;

        let mut w = Writer::new();
        self.g.to_wire(&mut w);
        sw.section(SEC_GRAPH, &w.into_bytes())?;

        let mut w = Writer::new();
        self.dec.to_wire(&mut w);
        sw.section(SEC_DECOMPOSITION, &w.into_bytes())?;

        let mut w = Writer::new();
        w.u64(self.hier.n() as u64);
        w.u64(self.hier.k() as u64);
        for level in self.hier.levels() {
            w.slice_u32(level);
        }
        sw.section(SEC_HIERARCHY, &w.into_bytes())?;

        sw.section(SEC_PLANS, &self.encode_plans())?;

        let mut w = Writer::new();
        w.slice_u64(&self.landmark_bits);
        sw.section(SEC_LANDMARK_BITS, &w.into_bytes())?;

        // Center trees: the stored records, streamed one by one in
        // center order (a file-backed store reads each from its file),
        // with the directory accumulated alongside and written as its
        // own section.
        let centers: Vec<u32> = self.center_store.centers().collect();
        let mut dir = Writer::new();
        dir.len(centers.len());
        let mut off = 0u64;
        sw.begin_section(SEC_CENTER_TREES);
        for &c in &centers {
            let len = self
                .center_store
                .with_record(c, |record| sw.write(record).map(|()| record.len() as u64))??;
            dir.u32(c);
            dir.u64(off);
            dir.u32(len as u32);
            off += len;
        }
        sw.end_section();
        sw.section(SEC_CENTER_DIR, &dir.into_bytes())?;

        let mut w = Writer::new();
        w.len(self.scale_covers.len());
        for (s, sc) in &self.scale_covers {
            w.u32(*s);
            sc.to_wire(&mut w);
        }
        sw.section(SEC_SCALE_COVERS, &w.into_bytes())?;

        sw.finish()
    }

    /// Load a snapshot with every center tree resident in memory (the
    /// serving default: no disk reads on the route path). Every
    /// section is checksum-verified before use; the center-tree records
    /// are validated in place, in parallel, and kept as bytes.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Scheme> {
        Self::load_impl(path, false)
    }

    /// Load a snapshot leaving the center-tree records on disk: the
    /// snapshot file itself becomes the store's backing file, and each
    /// route reads the records it needs with one positional read apiece,
    /// validating every record on every fetch. Peak memory excludes the
    /// Õ(n^{1+1/k}) tree state. The center-trees section's checksum is
    /// *not* verified (that would require reading it whole); every other
    /// section is.
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Scheme> {
        Self::load_impl(path, true)
    }

    fn load_impl(path: impl AsRef<Path>, lazy: bool) -> io::Result<Scheme> {
        let sr = SnapshotReader::open(path)?;

        let meta_bytes = sr.section(SEC_META)?;
        let (params, stats, max_center_label_bits) = decode_meta(&mut Reader::new(&meta_bytes))?;
        let k = params.k;

        let graph_bytes = sr.section(SEC_GRAPH)?;
        let g = Graph::from_wire(&mut Reader::new(&graph_bytes))?;
        let n = g.n();

        let dec_bytes = sr.section(SEC_DECOMPOSITION)?;
        let dec = Decomposition::from_wire(&mut Reader::new(&dec_bytes))?;
        if dec.k() != k || dec.n() != n {
            return Err(wire::invalid("decomposition does not match the graph"));
        }

        let hier_bytes = sr.section(SEC_HIERARCHY)?;
        let hier = decode_hierarchy(&mut Reader::new(&hier_bytes), n, k)?;

        let plan_bytes = sr.section(SEC_PLANS)?;
        let plans = decode_plans(&mut Reader::new(&plan_bytes), n, k)?;

        let lb_bytes = sr.section(SEC_LANDMARK_BITS)?;
        let landmark_bits = Reader::new(&lb_bytes).slice_u64()?;
        if landmark_bits.len() != n {
            return Err(wire::invalid("landmark-bits table has wrong length"));
        }

        let dir_bytes = sr.section(SEC_CENTER_DIR)?;
        let dir = decode_center_dir(&mut Reader::new(&dir_bytes))?;
        for row in &plans {
            for p in row {
                if !p.dense && dir.binary_search_by_key(&p.center, |e| e.0).is_err() {
                    return Err(wire::invalid("plan references a center with no tree"));
                }
            }
        }

        let covers_bytes = sr.section(SEC_SCALE_COVERS)?;
        let scale_covers = decode_scale_covers(&mut Reader::new(&covers_bytes), n)?;
        for row in &plans {
            for p in row {
                if p.dense && scale_covers.binary_search_by_key(&p.a, |&(s, _)| s).is_err() {
                    return Err(wire::invalid("plan references a scale with no cover"));
                }
            }
        }
        let (cover_bits, max_cover_label_bits) = cover_accounting(&scale_covers, n);

        let center_store = if lazy {
            let (sec_off, sec_len) = sr.section_range(SEC_CENTER_TREES)?;
            let mut abs = Vec::with_capacity(dir.len());
            for &(c, off, len) in &dir {
                if off.checked_add(len as u64).is_none_or(|end| end > sec_len) {
                    return Err(wire::invalid("center record extends past its section"));
                }
                abs.push((c, sec_off + off, len));
            }
            CenterStore::file(sr.into_file(), &abs, n)
        } else {
            CenterStore::section(sr.section(SEC_CENTER_TREES)?, &dir, n)?
        };

        Ok(Scheme {
            g,
            params,
            dec,
            hier,
            plans,
            center_store,
            landmark_bits,
            max_center_label_bits,
            scale_covers,
            cover_bits,
            max_cover_label_bits,
            stats,
        })
    }

    fn encode_meta(&self) -> Vec<u8> {
        let p = &self.params;
        let mut w = Writer::new();
        w.u64(p.k as u64);
        w.u64(p.seed);
        w.u32(p.landmark_attempts);
        w.u8(match p.force_mode {
            None => 0,
            Some(ForceMode::AllSparse) => 1,
            Some(ForceMode::AllDense) => 2,
        });
        w.u64(self.max_center_label_bits);
        let st = &self.stats;
        w.u64(st.lemma3_violations as u64);
        w.u64(st.lemma3_checked as u64);
        w.u64(st.num_center_trees as u64);
        w.u64(st.num_scales as u64);
        w.u64(st.num_cover_trees as u64);
        w.u64(st.total_members as u64);
        let budgets: Vec<u64> = st.s_budgets.iter().map(|&b| b as u64).collect();
        w.slice_u64(&budgets);
        w.len(st.phase_seconds.len());
        for (name, secs) in &st.phase_seconds {
            w.str(name);
            w.f64(*secs);
        }
        w.into_bytes()
    }

    fn encode_plans(&self) -> Vec<u8> {
        let n = self.g.n();
        let k = self.params.k;
        let mut dense = Vec::with_capacity(n * k);
        let mut a = Vec::with_capacity(n * k);
        let mut center = Vec::with_capacity(n * k);
        let mut b = Vec::with_capacity(n * k);
        let mut src_ix = Vec::with_capacity(n * k);
        for row in &self.plans {
            for p in row {
                dense.push(p.dense as u8);
                a.push(p.a);
                center.push(p.center);
                b.push(p.b);
                src_ix.push(p.src_ix);
            }
        }
        let mut w = Writer::new();
        w.u64(n as u64);
        w.u64(k as u64);
        w.slice_u8(&dense);
        w.slice_u32(&a);
        w.slice_u32(&center);
        w.slice_u8(&b);
        w.slice_u32(&src_ix);
        w.into_bytes()
    }
}

fn decode_meta(r: &mut Reader<'_>) -> io::Result<(SchemeParams, BuildStats, u64)> {
    let k = r.u64()? as usize;
    let seed = r.u64()?;
    let landmark_attempts = r.u32()?;
    let force_mode = match r.u8()? {
        0 => None,
        1 => Some(ForceMode::AllSparse),
        2 => Some(ForceMode::AllDense),
        _ => return Err(wire::invalid("bad force-mode tag")),
    };
    if k < 1 {
        return Err(wire::invalid("k must be at least 1"));
    }
    let max_center_label_bits = r.u64()?;
    let mut stats = BuildStats {
        lemma3_violations: r.u64()? as usize,
        lemma3_checked: r.u64()? as usize,
        num_center_trees: r.u64()? as usize,
        num_scales: r.u64()? as usize,
        num_cover_trees: r.u64()? as usize,
        total_members: r.u64()? as usize,
        ..BuildStats::default()
    };
    stats.s_budgets = r.slice_u64()?.into_iter().map(|b| b as usize).collect();
    let phases = r.len()?;
    stats.phase_seconds = (0..phases)
        .map(|_| Ok((r.str()?, r.f64()?)))
        .collect::<io::Result<Vec<(String, f64)>>>()?;
    let params = SchemeParams { k, seed, landmark_attempts, force_mode };
    Ok((params, stats, max_center_label_bits))
}

fn decode_hierarchy(r: &mut Reader<'_>, n: usize, k: usize) -> io::Result<LandmarkHierarchy> {
    if r.u64()? as usize != n || r.u64()? as usize != k {
        return Err(wire::invalid("hierarchy does not match the graph"));
    }
    let levels = (0..k).map(|_| r.slice_u32()).collect::<io::Result<Vec<Vec<u32>>>>()?;
    LandmarkHierarchy::try_from_levels(n, k, levels).map_err(|msg| wire::invalid(&msg))
}

// lint:allow-fn(panic-free-serve): validate-then-index — all five tables are length-checked against n*k before the loop, and x < n*k
fn decode_plans(r: &mut Reader<'_>, n: usize, k: usize) -> io::Result<Vec<Vec<LevelPlan>>> {
    if r.u64()? as usize != n || r.u64()? as usize != k {
        return Err(wire::invalid("plan table does not match the graph"));
    }
    let dense = r.slice_u8()?;
    let a = r.slice_u32()?;
    let center = r.slice_u32()?;
    let b = r.slice_u8()?;
    // The source index needs no range check here: routing reads it
    // through checked accessors and requires it to name the source.
    let src_ix = r.slice_u32()?;
    let lens = [dense.len(), a.len(), center.len(), b.len(), src_ix.len()];
    if lens.iter().any(|&len| Some(len) != n.checked_mul(k)) {
        return Err(wire::invalid("plan table has wrong length"));
    }
    let mut plans = Vec::with_capacity(n);
    for u in 0..n {
        let mut row = Vec::with_capacity(k);
        for i in 0..k {
            let x = u * k + i;
            let dense = match dense[x] {
                0 => false,
                1 => true,
                _ => return Err(wire::invalid("bad dense flag")),
            };
            if !dense && center[x] as usize >= n {
                return Err(wire::invalid("plan center out of range"));
            }
            if b[x] < 1 || b[x] as usize > k {
                return Err(wire::invalid("plan search bound out of range"));
            }
            row.push(LevelPlan { dense, a: a[x], center: center[x], b: b[x], src_ix: src_ix[x] });
        }
        plans.push(row);
    }
    Ok(plans)
}

/// `(center, offset-within-section, byte length)`, ascending by center.
fn decode_center_dir(r: &mut Reader<'_>) -> io::Result<Vec<(u32, u64, u32)>> {
    let count = r.len()?;
    let mut dir = Vec::with_capacity(count);
    for _ in 0..count {
        dir.push((r.u32()?, r.u64()?, r.u32()?));
    }
    // lint:allow(panic-free-serve): windows(2) yields exactly-2-element slices, so p[0]/p[1] are in bounds
    if dir.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(wire::invalid("center directory is not sorted"));
    }
    Ok(dir)
}

/// `(scale, cover)` pairs, strictly ascending by scale.
fn decode_scale_covers(r: &mut Reader<'_>, n: usize) -> io::Result<Vec<(u32, CoverScale)>> {
    let count = r.len()?;
    let mut out: Vec<(u32, CoverScale)> = Vec::with_capacity(count);
    for _ in 0..count {
        let s = r.u32()?;
        if out.last().is_some_and(|&(prev, _)| prev >= s) {
            return Err(wire::invalid("scale covers are not sorted"));
        }
        out.push((s, CoverScale::from_wire(r, n)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;

    /// META offsets: k (8), seed (8) and landmark attempts (4) precede
    /// the force-mode byte.
    const FORCE_MODE_BYTE: usize = 20;

    #[test]
    fn retired_meta_tags_are_rejected() {
        let scheme = Scheme::build_on_demand(Family::Ring.generate(40, 3), SchemeParams::new(2, 3));
        let meta = scheme.encode_meta();
        assert!(decode_meta(&mut Reader::new(&meta)).is_ok());
        assert_eq!(meta[FORCE_MODE_BYTE], 0);
        // Force modes stop at 2.
        let mut bad = meta.clone();
        bad[FORCE_MODE_BYTE] = 3;
        let err = decode_meta(&mut Reader::new(&bad)).expect_err("force-mode tag 3 must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
