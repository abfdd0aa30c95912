//! The two device kernels: level-0 candidate filtering and the search
//! kernel of Algorithm 1, which expands the frontier one sibling group
//! at a time (see [`expand_range`]).

use std::ops::Range;

use cuts_gpu_sim::{BlockCounters, Device, DeviceError};
use cuts_graph::{Graph, VertexId};
use cuts_trie::{Trie, NO_PARENT};

use crate::intersect::{
    b_intersection, c_intersection, constraint_list, p_intersection, refine, refine_words,
    ListStats, Method,
};
use crate::order::{label_ok, BackEdge, MatchOrder};
use crate::policy::LevelMethod;
use cuts_graph::profile::sig_dominates;

/// Level-0 signature prefilter inputs: the data graph's per-vertex
/// signature index and the (already label-masked) query-root signature
/// every candidate must dominate.
pub struct SigPrefilter<'a> {
    /// `sigs[v]` = packed neighbourhood signature of data vertex `v`
    /// (from [`cuts_graph::DataProfile`]).
    pub sigs: &'a [u64],
    /// Required signature (see `QueryPlan::required_root_signature`).
    pub required: u64,
}

/// Level-0 kernel: scan all data vertices and keep those passing the
/// Definition 5 degree filter for the root query vertex (Algorithm 1,
/// lines 8-11). Appends `(NO_PARENT, v)` entries to the trie.
pub fn init_candidates(
    device: &Device,
    data: &Graph,
    plan: &MatchOrder,
    trie: &Trie,
    max_blocks: usize,
    prefilter: Option<&SigPrefilter<'_>>,
) -> Result<(), DeviceError> {
    let n = data.num_vertices();
    let q_out = plan.q_out[0];
    let q_in = plan.q_in[0];
    let q_label = plan.q_label[0];
    let blocks = max_blocks.min(n).max(1);
    device.launch_named("init_candidates", blocks, |ctx| {
        let mut local: Vec<VertexId> = Vec::new();
        let mut v = ctx.block_id;
        while v < n {
            // GSI-style signature prefilter: one coalesced 64-bit read
            // (two device words) rejects most non-candidates before the
            // CSR degree probes are ever issued.
            let sig_ok = match prefilter {
                Some(f) => {
                    ctx.counters.dram_read_coalesced(2);
                    ctx.counters.alu(1);
                    sig_dominates(f.sigs[v], f.required)
                }
                None => true,
            };
            if sig_ok {
                // Degree test reads two CSR offset words per side.
                ctx.counters.dram_read_coalesced(2);
                ctx.counters.alu(2);
                if data.degree_dominates(v as VertexId, q_out, q_in)
                    && label_ok(data, v as VertexId, q_label)
                {
                    local.push(v as VertexId);
                }
            }
            v += ctx.num_blocks;
        }
        if !local.is_empty() {
            // One atomic claims the block's whole output range.
            ctx.counters.atomic();
            let r = trie.table().reserve(local.len())?;
            for (i, &c) in local.iter().enumerate() {
                r.write(i, NO_PARENT, c);
            }
            ctx.counters.dram_write(2 * local.len());
        }
        Ok(())
    })
}

/// Frontier entries per placement tile. The search kernel deals tiles
/// to blocks round-robin, in the order [`ExpandParams::placement`] gives
/// when set; a sibling run belongs to the tile holding its first entry.
pub(crate) const TILE_ENTRIES: usize = 256;

/// Number of placement tiles covering a frontier of `len` entries.
pub(crate) fn tile_count(len: usize) -> usize {
    len.div_ceil(TILE_ENTRIES)
}

/// Parameters of one search-kernel launch.
pub struct ExpandParams<'a> {
    /// Data graph.
    pub data: &'a Graph,
    /// Matching plan.
    pub plan: &'a MatchOrder,
    /// Query position being matched (`1 ..= |V_Q| - 1`).
    pub pos: usize,
    /// Virtual warp width.
    pub vwarp: usize,
    /// Plan-time micro-kernel decision for this level.
    pub method: LevelMethod,
    /// Shared-memory words per block (the budget the c/bitmap arms and
    /// the sibling group's shared set must fit; per-path choice consults
    /// it too).
    pub shared_words: usize,
    /// Optional randomised placement: a permutation of
    /// `0..tile_count(frontier.len())`, the order in which tiles are
    /// dealt to blocks (§4.1.2 load-balance randomisation).
    pub placement: Option<&'a [u32]>,
    /// Grid-size cap.
    pub max_blocks: usize,
}

/// The search kernel (Algorithm 1, lines 15-35): extends every partial
/// path in `frontier` by one query vertex, appending surviving children
/// to the trie with one reserve per extended path. Fails with
/// [`DeviceError::BufferOverflow`] when the trie fills; the caller rolls
/// back and switches to chunked processing.
///
/// Unlike the paper's per-path kernel, work is done per *sibling group*:
/// a run of consecutive frontier entries with the same parent (at depth
/// 1 every root is its own group). Siblings share every ancestor and
/// every back-edge list except those ending at their own vertex, so a
/// group walks its ancestors once and, when the list lengths favour it,
/// intersects and filters the shared lists once into a shared-memory
/// set `S` that each child only refines. Group boundaries are found
/// here, from the parent array; a run split across two launches is just
/// two groups.
pub fn expand_range(
    device: &Device,
    trie: &Trie,
    frontier: Range<usize>,
    p: &ExpandParams<'_>,
) -> Result<(), DeviceError> {
    debug_assert!(p.pos >= 1 && p.pos < p.plan.len());
    let back = &p.plan.back_edges[p.pos];
    debug_assert!(!back.is_empty(), "connected order guarantees a constraint");
    let (own, shared) = back.iter().partition(|be| be.pos + 1 == p.pos);
    let kernel = GroupKernel {
        p,
        trie,
        own,
        shared,
    };
    let tiles = tile_count(frontier.len());
    let blocks = p.max_blocks.min(tiles).max(1);

    device.launch_named(p.method.kernel_name(), blocks, |ctx| {
        let ctr = &mut ctx.counters;
        let mut scratch = Scratch::default();
        let mut t = ctx.block_id;
        while t < tiles {
            let tile = p.placement.map_or(t, |perm| perm[t] as usize);
            let lo = frontier.start + tile * TILE_ENTRIES;
            let hi = (lo + TILE_ENTRIES).min(frontier.end);
            let mut i = lo;
            if p.pos > 1 && lo > frontier.start {
                // Skip the tail of a run that began in an earlier tile:
                // that tile's block expands it.
                let prev = trie.parent(lo - 1);
                while i < hi && trie.parent(i) == prev {
                    i += 1;
                }
                ctr.dram_read_coalesced(1 + i - lo);
            }
            while i < hi {
                let (parent, end) = if p.pos == 1 {
                    (NO_PARENT, i + 1)
                } else {
                    let parent = trie.parent(i);
                    let mut end = i + 1;
                    while end < frontier.end && trie.parent(end) == parent {
                        end += 1;
                    }
                    // One PA word per member, plus the word that ended
                    // the run when no later group of this tile reads it.
                    let past = end >= hi && end < frontier.end;
                    ctr.dram_read_coalesced(end - i + usize::from(past));
                    (parent, end)
                };
                kernel.group(ctr, parent, i..end, &mut scratch)?;
                i = end;
            }
            t += ctx.num_blocks;
        }
        Ok(())
    })
}

/// A search-kernel launch's loop-invariant state.
struct GroupKernel<'k, 'a> {
    p: &'k ExpandParams<'a>,
    trie: &'k Trie,
    /// Back-edges ending at the frontier entry's own vertex (depth
    /// `pos - 1`): they differ between siblings.
    own: Vec<BackEdge>,
    /// Back-edges ending at a shared ancestor (depth below `pos - 1`).
    shared: Vec<BackEdge>,
}

/// Per-block buffers, allocated once per block and reused by every
/// group, so the group loop does not touch the heap once warm.
#[derive(Default)]
struct Scratch<'a> {
    /// Data vertices of the group's shared ancestors, by depth.
    path: Vec<VertexId>,
    /// Constraint lists of the shared back-edges, shortest first.
    shared: Vec<&'a [VertexId]>,
    /// One child's full constraint set, shortest first.
    lists: Vec<&'a [VertexId]>,
    /// Micro-kernel output before filtering.
    cands: Vec<VertexId>,
    /// The group's filtered shared set `S`.
    set: Vec<VertexId>,
    /// One child's surviving candidates (double-buffered with `tmp`).
    keep: Vec<VertexId>,
    tmp: Vec<VertexId>,
    /// The b-kernel's bitmaps.
    bitmaps: Vec<u32>,
}

impl<'a> GroupKernel<'_, 'a> {
    /// Expands the sibling group `kids` (frontier entries whose parent is
    /// `parent`).
    fn group(
        &self,
        ctr: &mut BlockCounters,
        parent: u32,
        kids: Range<usize>,
        s: &mut Scratch<'a>,
    ) -> Result<(), DeviceError> {
        let p = self.p;
        // Step 1: walk the shared ancestors once (two random words each:
        // PA + CA), caching the path in shared memory.
        s.path.clear();
        let mut e = parent;
        for _ in 1..p.pos {
            ctr.dram_read_random(2);
            s.path.push(self.trie.candidate(e as usize));
            e = self.trie.parent(e as usize);
        }
        debug_assert_eq!(e, NO_PARENT);
        s.path.reverse(); // path[l] = data vertex matched at depth l
        ctr.shmem_write(p.pos - 1);
        s.shared.clear();
        for be in &self.shared {
            s.shared
                .push(constraint_list(p.data, s.path[be.pos], be.dir));
        }
        s.shared.sort_unstable_by_key(|l| l.len());
        ctr.alu(self.shared.len());

        if self.shared_set_pays(ctr, kids.clone(), s) {
            return self.expand_from_set(ctr, kids, s);
        }
        for e in kids {
            ctr.dram_read_coalesced(1); // the child's CA word
            self.expand_path(ctr, e, s)?;
        }
        Ok(())
    }

    /// Whether the group builds the shared set `S` rather than running
    /// the per-path sequence for each child. It needs two or more
    /// children, at least one shared constraint, and a shortest shared
    /// list that fits shared memory twice over (`S` plus a refine
    /// buffer). Then the DRAM words of both plans are priced from the
    /// list lengths with the micro-kernels' cost model, counting the
    /// degree probes of each intersection's upper bound.
    fn shared_set_pays(
        &self,
        ctr: &mut BlockCounters,
        kids: Range<usize>,
        s: &mut Scratch<'a>,
    ) -> bool {
        let p = self.p;
        let Some(shared) = ListStats::of(&s.shared) else {
            return false;
        };
        let bound = shared.first_len();
        if kids.len() < 2 || 2 * bound > p.shared_words {
            return false;
        }
        let mut set_cost = shared.dram_words(self.method_for(&shared)) + 2 * bound;
        let mut path_cost = 0;
        for e in kids {
            ctr.dram_read_coalesced(1); // the child's CA word
            let c = self.trie.candidate(e);
            self.child_lists(ctr, c, s);
            let all = ListStats::of(&s.lists).expect("shared lists are present");
            path_cost += all.dram_words(self.method_for(&all)) + 2 * all.first_len();
            for be in &self.own {
                let own = constraint_list(p.data, c, be.dir).len();
                set_cost += refine_words(bound, own, p.shared_words);
            }
        }
        set_cost < path_cost
    }

    /// Steps 2 and 3, then the per-child refine: intersect the shared
    /// lists once with the level's method, filter the result once into
    /// `S` (degree, label, and injectivity against the ancestors), then
    /// per child refine `S` against its own lists and drop its vertex.
    fn expand_from_set(
        &self,
        ctr: &mut BlockCounters,
        kids: Range<usize>,
        s: &mut Scratch<'a>,
    ) -> Result<(), DeviceError> {
        let p = self.p;
        let stats = ListStats::of(&s.shared).expect("shared lists are present");
        let method = self.method_for(&stats);
        self.intersect(ctr, method, &s.shared, &mut s.bitmaps, &mut s.cands);
        s.set.clear();
        for &c in &s.cands {
            if self.filters_pass(ctr, c) {
                ctr.shmem_read(p.pos - 1);
                if !s.path.contains(&c) {
                    s.set.push(c);
                }
            }
        }
        ctr.shmem_write(s.set.len());
        if s.set.is_empty() {
            return Ok(()); // no child can extend
        }
        for e in kids {
            ctr.dram_read_coalesced(1); // the child's CA word
            let c = self.trie.candidate(e);
            s.keep.clear();
            s.keep.extend_from_slice(&s.set);
            for be in &self.own {
                let list = constraint_list(p.data, c, be.dir);
                refine(&s.keep, list, p.vwarp, p.shared_words, ctr, &mut s.tmp);
                std::mem::swap(&mut s.keep, &mut s.tmp);
            }
            // Injectivity against the child's own vertex: one register
            // compare per candidate (the ancestors were checked in `S`).
            ctr.alu(s.keep.len());
            if let Ok(k) = s.keep.binary_search(&c) {
                s.keep.remove(k);
            }
            self.write(ctr, e, &s.keep)?;
        }
        Ok(())
    }

    /// The paper's per-path sequence for one child, over the group's
    /// cached ancestors: intersect every constraint list, then degree,
    /// label and injectivity filters.
    fn expand_path(
        &self,
        ctr: &mut BlockCounters,
        e: usize,
        s: &mut Scratch<'a>,
    ) -> Result<(), DeviceError> {
        let p = self.p;
        let c = self.trie.candidate(e);
        self.child_lists(ctr, c, s);
        let stats = ListStats::of(&s.lists).expect("every level has a constraint");
        let method = self.method_for(&stats);
        self.intersect(ctr, method, &s.lists, &mut s.bitmaps, &mut s.cands);
        s.keep.clear();
        for &v in &s.cands {
            if self.filters_pass(ctr, v) {
                ctr.shmem_read(p.pos);
                if v != c && !s.path.contains(&v) {
                    s.keep.push(v);
                }
            }
        }
        self.write(ctr, e, &s.keep)
    }

    /// Fills `s.lists` with child `c`'s full constraint set, shortest
    /// first: the group's shared lists plus the child's own.
    fn child_lists(&self, ctr: &mut BlockCounters, c: VertexId, s: &mut Scratch<'a>) {
        s.lists.clear();
        s.lists.extend_from_slice(&s.shared);
        for be in &self.own {
            s.lists.push(constraint_list(self.p.data, c, be.dir));
        }
        s.lists.sort_unstable_by_key(|l| l.len());
        ctr.alu(self.own.len());
    }

    /// The micro-kernel for lists with these statistics: the level's
    /// plan-time arm, or the per-path choice where the level has none.
    fn method_for(&self, stats: &ListStats) -> Method {
        match self.p.method {
            LevelMethod::Fixed(m) => m,
            LevelMethod::PerPath => stats.pick(self.p.shared_words),
        }
    }

    fn intersect(
        &self,
        ctr: &mut BlockCounters,
        method: Method,
        lists: &[&[VertexId]],
        bitmaps: &mut Vec<u32>,
        out: &mut Vec<VertexId>,
    ) {
        let p = self.p;
        match method {
            Method::C => c_intersection(lists, p.vwarp, ctr, out),
            Method::P => p_intersection(lists, p.vwarp, ctr, out),
            Method::B => b_intersection(lists, p.vwarp, p.shared_words, ctr, bitmaps, out),
        }
    }

    /// Definition 5 degree filter plus label compatibility for one
    /// candidate.
    fn filters_pass(&self, ctr: &mut BlockCounters, v: VertexId) -> bool {
        let plan = self.p.plan;
        let pos = self.p.pos;
        ctr.dram_read_coalesced(2);
        ctr.alu(2);
        if !self
            .p
            .data
            .degree_dominates(v, plan.q_out[pos], plan.q_in[pos])
        {
            return false;
        }
        if plan.q_label[pos].is_some() {
            ctr.dram_read_random(1);
            return label_ok(self.p.data, v, plan.q_label[pos]);
        }
        true
    }

    /// Appends `keep` as the children of frontier entry `e`: one atomic
    /// finds the write location for the whole run (§4.1.1).
    fn write(
        &self,
        ctr: &mut BlockCounters,
        e: usize,
        keep: &[VertexId],
    ) -> Result<(), DeviceError> {
        if keep.is_empty() {
            return Ok(());
        }
        ctr.atomic();
        let r = self.trie.table().reserve(keep.len())?;
        for (k, &c) in keep.iter().enumerate() {
            r.write(k, e as u32, c);
        }
        ctr.dram_write(2 * keep.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VirtualWarpPolicy;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{chain, clique, mesh2d};

    fn setup(_data: &Graph, query: &Graph) -> (Device, MatchOrder) {
        let device = Device::new(DeviceConfig::test_small());
        let plan = MatchOrder::compute(query).unwrap();
        (device, plan)
    }

    #[test]
    fn init_candidates_mesh_chain() {
        // Figure 2: chain query on 4x4 mesh — every mesh vertex has degree
        // >= 1 (chain root is an interior vertex with degree 2); mesh has
        // 4 corner vertices of degree 2 and others >= 2, so all 16 pass.
        let data = mesh2d(4, 4);
        let query = chain(4);
        let (device, plan) = setup(&data, &query);
        let mut trie = Trie::on_device(&device, 4096).unwrap();
        init_candidates(&device, &data, &plan, &trie, 8, None).unwrap();
        let lvl = trie.seal_level();
        assert_eq!(lvl.len(), 16);
        let c = device.counters();
        assert!(c.dram_reads >= 32); // 2 words per vertex
        assert!(c.atomics >= 1);
    }

    #[test]
    fn expand_counts_figure2() {
        // Figure 2(C): 16 candidates at depth 1, 48 at depth 2 (one per
        // arc), 96 at depth 3, 192 at depth 4 — for the chain query with
        // injectivity *not* pruning on a mesh of this size? The paper's
        // counts allow revisits only forbidden for repeated vertices; our
        // injective counts at depth 3 exclude going back, giving 96 - 16
        // ... measured against the reference matcher in engine tests. Here
        // we check depth 2 = 48 exactly (no pruning possible yet).
        let data = mesh2d(4, 4);
        let query = chain(4);
        let (device, plan) = setup(&data, &query);
        let mut trie = Trie::on_device(&device, 8192).unwrap();
        init_candidates(&device, &data, &plan, &trie, 8, None).unwrap();
        let lvl0 = trie.seal_level();
        let params = ExpandParams {
            data: &data,
            plan: &plan,
            pos: 1,
            vwarp: VirtualWarpPolicy::AvgDegree.width(data.avg_out_degree()),
            method: LevelMethod::PerPath,
            shared_words: 4096,
            placement: None,
            max_blocks: 8,
        };
        expand_range(&device, &trie, lvl0, &params).unwrap();
        let lvl1 = trie.seal_level();
        assert_eq!(lvl1.len(), 48);
    }

    #[test]
    fn expand_triangle_on_clique() {
        // Triangles in K4: 4·3·2 = 24 ordered embeddings.
        let data = clique(4);
        let query = clique(3);
        let (device, plan) = setup(&data, &query);
        let mut trie = Trie::on_device(&device, 8192).unwrap();
        init_candidates(&device, &data, &plan, &trie, 4, None).unwrap();
        let mut frontier = trie.seal_level();
        for pos in 1..3 {
            let params = ExpandParams {
                data: &data,
                plan: &plan,
                pos,
                vwarp: 4,
                method: LevelMethod::Fixed(Method::C),
                shared_words: 4096,
                placement: None,
                max_blocks: 4,
            };
            expand_range(&device, &trie, frontier, &params).unwrap();
            frontier = trie.seal_level();
        }
        assert_eq!(frontier.len(), 24);
    }

    #[test]
    fn overflow_surfaces() {
        let data = clique(8);
        let query = clique(3);
        let (device, plan) = setup(&data, &query);
        let mut trie = Trie::on_device(&device, 16).unwrap(); // tiny
        init_candidates(&device, &data, &plan, &trie, 4, None).unwrap();
        let lvl0 = trie.seal_level();
        assert_eq!(lvl0.len(), 8);
        let params = ExpandParams {
            data: &data,
            plan: &plan,
            pos: 1,
            vwarp: 8,
            method: LevelMethod::PerPath,
            shared_words: 4096,
            placement: None,
            max_blocks: 2,
        };
        let err = expand_range(&device, &trie, lvl0, &params);
        assert!(matches!(err, Err(DeviceError::BufferOverflow { .. })));
    }

    /// Expands `pos` levels of `query` on `data` and returns every full
    /// path at the last level, sorted, plus the trie's level sizes.
    fn expand_all(
        device: &Device,
        data: &Graph,
        plan: &MatchOrder,
        placement: impl Fn(usize) -> Option<Vec<u32>>,
    ) -> (Vec<Vec<u32>>, Vec<usize>) {
        let mut trie = Trie::on_device(device, 1 << 16).unwrap();
        init_candidates(device, data, plan, &trie, 4, None).unwrap();
        let mut frontier = trie.seal_level();
        for pos in 1..plan.len() {
            let perm = placement(tile_count(frontier.len()));
            let params = ExpandParams {
                data,
                plan,
                pos,
                vwarp: 4,
                method: LevelMethod::PerPath,
                shared_words: 4096,
                placement: perm.as_deref(),
                max_blocks: 4,
            };
            expand_range(device, &trie, frontier, &params).unwrap();
            frontier = trie.seal_level();
        }
        let mut paths = trie.paths_at_level(plan.len() - 1);
        paths.sort_unstable();
        (paths, trie.level_sizes())
    }

    #[test]
    fn placement_permutation_equivalent() {
        // A frontier spanning several tiles, with sibling runs that cross
        // tile boundaries: reversing the order tiles are dealt to blocks
        // must not change what is matched.
        let data = mesh2d(30, 30);
        let query = chain(3);
        let (device, plan) = setup(&data, &query);
        let straight = expand_all(&device, &data, &plan, |_| None);
        let reversed = expand_all(&device, &data, &plan, |tiles| {
            assert!(tiles > 1, "frontier must span several tiles");
            Some((0..tiles as u32).rev().collect())
        });
        assert_eq!(straight.1, reversed.1);
        assert_eq!(straight.0.len(), reversed.0.len());
        assert_eq!(straight.0, reversed.0);
    }

    /// One root (vertex 0 of `data`) with all its neighbours as depth-1
    /// children: a single sibling run of `data.degree(0)` entries.
    fn one_parent_trie(device: &Device, data: &Graph) -> (Trie, Range<usize>) {
        let paths: Vec<Vec<u32>> = data.out_neighbors(0).iter().map(|&v| vec![0, v]).collect();
        let mut trie = Trie::on_device(device, 4096).unwrap();
        trie.load(&cuts_trie::HostTrie::from_flat_paths(&paths))
            .unwrap();
        let kids = trie.level(1);
        (trie, kids)
    }

    /// Expands depth 2 of `query` over each range in turn; returns the
    /// DRAM words read and the `(parent, candidate)` pairs written.
    fn expand_ranges(
        data: &Graph,
        plan: &MatchOrder,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> (u64, Vec<(u32, u32)>) {
        let device = Device::new(DeviceConfig::test_small());
        let (mut trie, _) = one_parent_trie(&device, data);
        let before = device.counters().dram_reads;
        for r in ranges {
            let params = ExpandParams {
                data,
                plan,
                pos: 2,
                vwarp: 4,
                method: LevelMethod::PerPath,
                shared_words: 4096,
                placement: None,
                max_blocks: 4,
            };
            expand_range(&device, &trie, r, &params).unwrap();
        }
        let reads = device.counters().dram_reads - before;
        let lvl = trie.seal_level();
        let mut pairs: Vec<(u32, u32)> = lvl.map(|i| (trie.parent(i), trie.candidate(i))).collect();
        pairs.sort_unstable();
        (reads, pairs)
    }

    #[test]
    fn siblings_share_their_parents_constraints() {
        // K4 in K12: depth 2 is constrained by the root (shared by all
        // siblings) and by each sibling's own vertex.
        let data = clique(12);
        let query = clique(4);
        let (device, plan) = setup(&data, &query);
        let (_, kids) = one_parent_trie(&device, &data);
        let k = kids.len();
        assert_eq!(k, 11);

        let (group_reads, group_pairs) = expand_ranges(&data, &plan, std::iter::once(kids.clone()));
        let (alone_reads, _) =
            expand_ranges(&data, &plan, std::iter::once(kids.start..kids.start + 1));
        assert!(
            group_reads < k as u64 * alone_reads,
            "{k} siblings read {group_reads} words, one alone reads {alone_reads}"
        );
        // Every ordered pair of distinct non-root vertices, once.
        assert_eq!(group_pairs.len(), k * (k - 1));

        // A run split across two frontier ranges is two groups with the
        // same children.
        let mid = kids.start + k / 2;
        let (_, split_pairs) = expand_ranges(&data, &plan, [kids.start..mid, mid..kids.end]);
        assert_eq!(split_pairs, group_pairs);
    }

    #[test]
    fn signature_prefilter_prunes_without_losing_candidates() {
        use cuts_graph::generators::star;
        // K3's root needs two neighbours of degree ≥ 2. No star vertex
        // has that (spokes see one hub; the hub sees only degree-1
        // spokes), so the prefilter empties level 0 — and the degree
        // test alone would have kept the hub only to kill it later.
        let data = star(8);
        let query = clique(3);
        let (device, plan) = setup(&data, &query);
        let profile = data.profile();
        let dplan = crate::plan::QueryPlan::build(
            &query,
            &crate::config::EngineConfig::default(),
            &crate::plan::DeviceClass::of(&DeviceConfig::test_small()),
        )
        .unwrap();
        let pre = SigPrefilter {
            sigs: &profile.signatures,
            required: dplan.required_root_signature(data.is_labeled()),
        };
        let mut trie = Trie::on_device(&device, 4096).unwrap();
        init_candidates(&device, &data, &plan, &trie, 4, Some(&pre)).unwrap();
        assert_eq!(trie.seal_level().len(), 0);

        // On a graph where K3 does embed, the prefilter must keep every
        // vertex the unfiltered kernel keeps (it can only remove
        // vertices that cannot host the root).
        let data = clique(4);
        let profile = data.profile();
        let pre = SigPrefilter {
            sigs: &profile.signatures,
            required: dplan.required_root_signature(data.is_labeled()),
        };
        let count = |pf: Option<&SigPrefilter<'_>>| {
            let mut trie = Trie::on_device(&device, 4096).unwrap();
            init_candidates(&device, &data, &plan, &trie, 4, pf).unwrap();
            trie.seal_level().len()
        };
        assert_eq!(count(Some(&pre)), count(None));
    }
}
