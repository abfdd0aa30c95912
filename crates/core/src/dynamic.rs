//! Batch-dynamic matching: standing queries over a mutating data graph.
//!
//! A [`DynamicSession`] owns a data graph plus a set of registered
//! standing queries, each with its current embedding set mirrored as a
//! host trie. Applying an [`EdgeBatch`] runs the incremental pipeline:
//!
//! 1. the graph applies the batch in place ([`Graph::apply_batch`]),
//!    returning the [`GraphDelta`] of changed arcs and touched vertices;
//! 2. for every standing query the session computes the **dirty ball**
//!    — all vertices within `|V_Q| - 1` hops of a touched vertex over
//!    the *union* adjacency (the new graph plus the removed arcs). Any
//!    embedding that gained or lost an edge maps some query vertex onto
//!    a touched endpoint, and because the query is weakly connected its
//!    image is connected in old-or-new adjacency, so its **root** lies
//!    inside the ball. Roots outside the ball keep their subtrees
//!    verbatim;
//! 3. the query's trie is split with
//!    [`HostTrie::partition_roots`]: dirty subtrees are released back
//!    to the device arena ([`ExecSession::release_subtrees`], one
//!    `subtree_release` trie event) while clean subtrees are retained;
//! 4. dirty roots that pass the host-side level-0 filter are re-seeded
//!    as a depth-1 trie and only those subtrees are re-expanded on the
//!    device ([`ExecSession::execute`] with a seed and a sink);
//! 5. the per-root set difference between the old and new subtrees is
//!    the [`MatchDelta`] — embeddings added and removed by the batch.
//!
//! The composition of emitted deltas is exactly the full-recompute
//! match set (`tests/dynamic_equivalence.rs` checks this byte for byte
//! across randomized insert/delete schedules).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use cuts_gpu_sim::Device;
use cuts_graph::{BatchError, EdgeBatch, Graph, GraphDelta, VertexId};
use cuts_obs::{Arg, EventKind};
use cuts_trie::HostTrie;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::plan::QueryPlan;
use crate::session::ExecSession;

/// Handle to one standing query inside a [`DynamicSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StandingQueryId(pub usize);

/// The incremental matcher's output for one standing query and one
/// applied batch: which embeddings appeared and which disappeared.
/// Embeddings are in query-vertex space (`emb[q]` = data vertex matched
/// to query vertex `q`), each list sorted — two deltas over the same
/// state are byte-identical iff they agree semantically.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchDelta {
    /// The standing query this delta belongs to.
    pub query: StandingQueryId,
    /// Embeddings present after the batch but not before, sorted.
    pub added: Vec<Vec<VertexId>>,
    /// Embeddings present before the batch but not after, sorted.
    pub removed: Vec<Vec<VertexId>>,
    /// Distinct roots whose subtrees were marked dirty and uprooted.
    pub dirty_roots: usize,
    /// Dirty-ball vertices re-seeded for device re-expansion.
    pub reseeded: usize,
    /// Trie entries released back to the arena before re-expansion.
    pub released_entries: usize,
    /// Simulated device milliseconds the re-expansion cost.
    pub sim_millis: f64,
}

impl MatchDelta {
    /// True when the batch left this query's match set untouched.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total embeddings changed.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Everything one [`DynamicSession::apply_batch`] call produced: the
/// graph-level arc delta plus one [`MatchDelta`] per standing query (in
/// registration order).
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Arc-level changes the graph accepted.
    pub graph: GraphDelta,
    /// Per-standing-query match deltas.
    pub deltas: Vec<MatchDelta>,
}

/// Failures of the batch-dynamic pipeline: either the batch itself was
/// rejected (graph untouched) or a device re-expansion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// The edge batch failed validation; nothing was applied.
    Batch(BatchError),
    /// A standing query's re-expansion failed on the device.
    Engine(EngineError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Batch(e) => write!(f, "batch rejected: {e}"),
            DynamicError::Engine(e) => write!(f, "re-expansion failed: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<BatchError> for DynamicError {
    fn from(e: BatchError) -> Self {
        DynamicError::Batch(e)
    }
}

impl From<EngineError> for DynamicError {
    fn from(e: EngineError) -> Self {
        DynamicError::Engine(e)
    }
}

/// One registered standing query: its plan (resolved once at
/// registration: the matching order and the level-0 root filter) and
/// the host mirror of its current embedding trie (full paths in order
/// space).
struct StandingQuery {
    plan: Arc<QueryPlan>,
    trie: HostTrie,
}

impl StandingQuery {
    /// `order()[l]` = query vertex matched at depth `l`.
    fn order(&self) -> &[VertexId] {
        &self.plan.order.order
    }

    /// All current embeddings as order-space paths.
    fn paths(&self) -> Vec<Vec<u32>> {
        let n = self.order().len();
        if self.trie.depth() == n {
            self.trie.paths_at_level(n - 1)
        } else {
            Vec::new()
        }
    }

    /// Converts an order-space path to a query-vertex-space embedding.
    fn to_embedding(&self, path: &[u32]) -> Vec<VertexId> {
        let mut emb = vec![0u32; self.order().len()];
        for (l, &q) in self.order().iter().enumerate() {
            emb[q as usize] = path[l];
        }
        emb
    }
}

/// Vertices within `radius` hops of the delta's touched set over the
/// union adjacency: the post-batch graph (which already contains every
/// inserted arc) plus the removed arcs in both directions (so
/// connectivity that existed only before the batch still counts).
/// Every embedding gaining or losing an edge has its root in this set.
pub fn dirty_ball(graph: &Graph, delta: &GraphDelta, radius: usize) -> HashSet<VertexId> {
    let mut removed_adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for &(u, v) in &delta.removed {
        removed_adj.entry(u).or_default().push(v);
        removed_adj.entry(v).or_default().push(u);
    }
    let mut seen: HashSet<VertexId> = delta.touched.iter().copied().collect();
    let mut frontier: Vec<VertexId> = delta.touched.clone();
    for _ in 0..radius {
        let mut next = Vec::new();
        for &u in &frontier {
            let extra = removed_adj.get(&u).map_or(&[][..], |v| v.as_slice());
            for &v in graph
                .out_neighbors(u)
                .iter()
                .chain(graph.in_neighbors(u))
                .chain(extra)
            {
                if seen.insert(v) {
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

/// A mutable data graph plus its standing queries. See the module docs
/// for the incremental pipeline each [`DynamicSession::apply_batch`]
/// runs.
pub struct DynamicSession<'d> {
    session: ExecSession<'d>,
    graph: Graph,
    queries: Vec<StandingQuery>,
}

impl<'d> DynamicSession<'d> {
    /// Binds `graph` to `device` for batch-dynamic matching.
    pub fn new(device: &'d Device, config: EngineConfig, graph: Graph) -> Self {
        DynamicSession {
            session: ExecSession::new(device, config),
            graph,
            queries: Vec::new(),
        }
    }

    /// The current data graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The underlying execution session.
    pub fn session(&self) -> &ExecSession<'d> {
        &self.session
    }

    /// Number of registered standing queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Registers `query` (which must be weakly connected, like every
    /// [`ExecSession::run`] input) as a standing query: runs the full
    /// initial expansion and retains the embedding trie for incremental
    /// maintenance.
    pub fn register(&mut self, query: &Graph) -> Result<StandingQueryId, EngineError> {
        let plan = self.session.plan_for(query)?;
        let mut paths: Vec<Vec<u32>> = Vec::new();
        {
            let order = &plan.order.order;
            let mut sink = |m: &[u32]| {
                paths.push(order.iter().map(|&q| m[q as usize]).collect());
            };
            self.session
                .execute(&plan, &self.graph, None, Some(&mut sink))?;
        }
        paths.sort_unstable();
        let id = StandingQueryId(self.queries.len());
        self.queries.push(StandingQuery {
            plan,
            trie: HostTrie::from_flat_paths(&paths),
        });
        Ok(id)
    }

    /// The standing query's current match set in query-vertex space —
    /// the composition of its initial expansion with every delta
    /// emitted since.
    pub fn match_set(&self, id: StandingQueryId) -> BTreeSet<Vec<VertexId>> {
        let sq = &self.queries[id.0];
        sq.paths().iter().map(|p| sq.to_embedding(p)).collect()
    }

    /// Ground truth: a fresh full expansion of the standing query over
    /// the current graph (no incremental state involved).
    pub fn recompute(&self, id: StandingQueryId) -> Result<BTreeSet<Vec<VertexId>>, EngineError> {
        let sq = &self.queries[id.0];
        let mut set = BTreeSet::new();
        let mut sink = |m: &[u32]| {
            set.insert(m.to_vec());
        };
        self.session
            .execute(&sq.plan, &self.graph, None, Some(&mut sink))?;
        Ok(set)
    }

    /// Applies `batch` to the graph and incrementally maintains every
    /// standing query, returning the arc delta plus one [`MatchDelta`]
    /// per query. On a batch validation error nothing changes; on an
    /// engine error the graph has advanced but standing state is only
    /// updated for the queries processed before the failure (re-register
    /// to resynchronise).
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<BatchOutcome, DynamicError> {
        let delta = self.graph.apply_batch(batch)?;
        let trace = self.session.device().trace();
        trace.instant_with(
            EventKind::Batch,
            "apply",
            &[
                ("inserted", Arg::U64(delta.inserted.len() as u64)),
                ("removed", Arg::U64(delta.removed.len() as u64)),
                ("touched", Arg::U64(delta.touched.len() as u64)),
                ("version", Arg::U64(delta.version)),
            ],
        );
        let session = &self.session;
        let graph = &self.graph;
        let mut deltas = Vec::with_capacity(self.queries.len());
        for (qi, sq) in self.queries.iter_mut().enumerate() {
            let n = sq.order().len();
            let ball = dirty_ball(graph, &delta, n - 1);
            let (clean, dirty) = sq.trie.partition_roots(|r| ball.contains(&r));
            let dirty_roots = dirty.levels.first().map_or(0, |r| r.len());
            let released = session.release_subtrees(&dirty)?;
            let old_paths: BTreeSet<Vec<u32>> = if dirty.depth() == n {
                dirty.paths_at_level(n - 1).into_iter().collect()
            } else {
                BTreeSet::new()
            };

            // Re-seed every ball vertex that passes the level-0 filter
            // on the *new* graph (vertices failing it host no roots).
            let root = &sq.plan.order;
            let mut seeds: Vec<u32> = ball
                .iter()
                .copied()
                .filter(|&v| root.root_passes(graph, v))
                .collect();
            seeds.sort_unstable();

            let mut new_paths: BTreeSet<Vec<u32>> = BTreeSet::new();
            let mut sim_millis = 0.0;
            if !seeds.is_empty() {
                let seed_paths: Vec<Vec<u32>> = seeds.iter().map(|&v| vec![v]).collect();
                let seed = HostTrie::from_flat_paths(&seed_paths);
                let order = sq.order();
                let mut sink = |m: &[u32]| {
                    new_paths.insert(order.iter().map(|&q| m[q as usize]).collect());
                };
                let r = session.execute(&sq.plan, graph, Some(&seed), Some(&mut sink))?;
                sim_millis = r.sim_millis;
            }

            let added: Vec<Vec<u32>> = new_paths.difference(&old_paths).cloned().collect();
            let removed: Vec<Vec<u32>> = old_paths.difference(&new_paths).cloned().collect();

            // Merge: untouched subtrees verbatim, re-expanded subtrees
            // from the device run, rebuilt as one prefix-shared trie.
            let mut all: Vec<Vec<u32>> = if clean.depth() == n {
                clean.paths_at_level(n - 1)
            } else {
                Vec::new()
            };
            all.extend(new_paths.iter().cloned());
            all.sort_unstable();
            sq.trie = HostTrie::from_flat_paths(&all);

            trace.instant_with(
                EventKind::Batch,
                "delta",
                &[
                    ("query", Arg::U64(qi as u64)),
                    ("added", Arg::U64(added.len() as u64)),
                    ("removed", Arg::U64(removed.len() as u64)),
                    ("dirty_roots", Arg::U64(dirty_roots as u64)),
                    ("released", Arg::U64(released as u64)),
                ],
            );
            deltas.push(MatchDelta {
                query: StandingQueryId(qi),
                added: added.iter().map(|p| sq.to_embedding(p)).collect(),
                removed: removed.iter().map(|p| sq.to_embedding(p)).collect(),
                dirty_roots,
                reseeded: seeds.len(),
                released_entries: released,
                sim_millis,
            });
        }
        Ok(BatchOutcome {
            graph: delta,
            deltas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{clique, erdos_renyi, mesh2d};

    fn session(graph: Graph) -> DynamicSession<'static> {
        let device = Box::leak(Box::new(Device::new(DeviceConfig::test_small())));
        DynamicSession::new(device, EngineConfig::default(), graph)
    }

    /// Applies each delta to `set` and checks internal consistency.
    fn fold_delta(set: &mut BTreeSet<Vec<u32>>, d: &MatchDelta) {
        for r in &d.removed {
            assert!(set.remove(r), "removed embedding {r:?} was not present");
        }
        for a in &d.added {
            assert!(
                set.insert(a.clone()),
                "added embedding {a:?} already present"
            );
        }
    }

    #[test]
    fn insert_creates_matches_delete_removes_them() {
        // Start from a triangle-free 2x3 mesh, then close a face.
        let mut dyn_s = session(mesh2d(2, 3));
        let q = dyn_s.register(&clique(3)).unwrap();
        assert!(dyn_s.match_set(q).is_empty());

        let mut b = EdgeBatch::new();
        b.insert(0, 4); // diagonal: 0-1-4 and 0-3-4 become triangles
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        assert_eq!(d.added.len(), 12); // 2 triangles x 3! orderings
        assert!(d.removed.is_empty());
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());

        let mut b = EdgeBatch::new();
        b.delete(0, 4);
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        assert!(d.added.is_empty());
        assert_eq!(d.removed.len(), 12);
        assert!(dyn_s.match_set(q).is_empty());
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
    }

    #[test]
    fn deltas_track_recompute_on_random_graph() {
        let mut dyn_s = session(erdos_renyi(40, 120, 11));
        let q = dyn_s.register(&clique(3)).unwrap();
        let mut folded = dyn_s.match_set(q);

        // Insert a missing edge, delete an existing one, repeat.
        let g = dyn_s.graph();
        let (mut u, mut v) = (0u32, 1u32);
        'outer: for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                if !g.has_edge(a, b) {
                    (u, v) = (a, b);
                    break 'outer;
                }
            }
        }
        let mut b1 = EdgeBatch::new();
        b1.insert(u, v);
        let out = dyn_s.apply_batch(&b1).unwrap();
        fold_delta(&mut folded, &out.deltas[0]);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());
        assert_eq!(folded, dyn_s.match_set(q));

        let mut b2 = EdgeBatch::new();
        b2.delete(u, v);
        let out = dyn_s.apply_batch(&b2).unwrap();
        fold_delta(&mut folded, &out.deltas[0]);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());
        assert_eq!(folded, dyn_s.match_set(q));
    }

    #[test]
    fn clean_subtrees_are_not_reexpanded() {
        // Two far-apart regions on a long mesh: edits in one corner must
        // not re-seed roots in the other.
        let mut dyn_s = session(mesh2d(2, 20));
        let q = dyn_s.register(&clique(3)).unwrap();
        let mut b = EdgeBatch::new();
        b.insert(0, 3); // a diagonal in the left corner
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        // Ball radius 2 around {0, 3} stays well left of column 10.
        assert!(d.reseeded > 0);
        assert!(d.reseeded < 20, "reseeded {} of 40 vertices", d.reseeded);
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let mut dyn_s = session(mesh2d(3, 3));
        let q = dyn_s.register(&clique(3)).unwrap();
        let before = dyn_s.match_set(q);
        let version = dyn_s.graph().version();
        let mut b = EdgeBatch::new();
        b.insert(0, 99); // out of range
        assert!(matches!(
            dyn_s.apply_batch(&b),
            Err(DynamicError::Batch(BatchError::VertexOutOfRange { .. }))
        ));
        assert_eq!(dyn_s.graph().version(), version);
        assert_eq!(dyn_s.match_set(q), before);
    }

    #[test]
    fn dirty_ball_covers_removed_arcs() {
        let mut g = mesh2d(2, 2); // square 0-1-3-2
        let mut b = EdgeBatch::new();
        b.delete(0, 1);
        let delta = g.apply_batch(&b).unwrap();
        // Radius 1 from {0,1}: via the removed arc both endpoints see
        // each other; via the new graph 0 sees 2 and 1 sees 3.
        let ball = dirty_ball(&g, &delta, 1);
        assert_eq!(ball, [0u32, 1, 2, 3].into_iter().collect::<HashSet<_>>());
    }
}
