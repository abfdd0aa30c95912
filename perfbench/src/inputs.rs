//! Seeded inputs. Every graph, job stream and edge-batch schedule is a
//! pure function of the run's `--seed`; the program under test only ever
//! sees what these functions return.

use std::collections::HashSet;

use cuts_graph::generators::{chain, chung_lu, clique, cycle, erdos_renyi, road_network, star};
use cuts_graph::{Dataset, EdgeBatch, Graph, Scale, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A seed for the input named `tag`, derived from the run seed
/// (FNV-1a over the tag, then a splitmix64 finaliser).
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = seed ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Table-2 vertex and undirected-edge counts of `ds` at `scale` (the same
/// sizing as [`Dataset::generate`]).
fn table2_size(ds: Dataset, scale: Scale) -> (usize, usize) {
    let f = scale.factor();
    let n = ((ds.paper_vertices() as f64 * f) as usize).max(256);
    let m = ((ds.paper_edges() as f64 * f / 2.0) as usize).max(256);
    (n, m)
}

/// Heavy-tailed Chung-Lu stand-in for a social graph, at Table-2 size.
pub fn social(ds: Dataset, scale: Scale, seed: u64) -> Graph {
    let beta = match ds {
        Dataset::Enron => 2.0,
        Dataset::Gowalla => 2.65,
        Dataset::WikiTalk => 1.9,
        _ => panic!("{ds} is not a social graph"),
    };
    let (n, m) = table2_size(ds, scale);
    chung_lu(n, m, beta, sub_seed(seed, ds.name()))
}

/// Perturbed-grid stand-in for a road network, at Table-2 size.
pub fn road(ds: Dataset, scale: Scale, seed: u64) -> Graph {
    assert!(!ds.is_skewed(), "{ds} is not a road network");
    let (n, m) = table2_size(ds, scale);
    let keep = (m as f64 / n as f64 / 2.0).min(1.0);
    road_network(n, 1.0 - keep, 0.02, sub_seed(seed, ds.name()))
}

/// Erdős–Rényi graph with `n` vertices and `m` edges.
pub fn er(n: usize, m: usize, seed: u64) -> Graph {
    erdos_renyi(n, m, sub_seed(seed, "er"))
}

/// A query graph from a `family:vertices` spec (`clique:5`, `chain:4`,
/// `cycle:4`, `star:5`) or one of the named shapes `paw` (triangle with a
/// pendant) and `diamond` (4-cycle with one chord).
pub fn query(spec: &str) -> Graph {
    match spec {
        "paw" => return Graph::undirected(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]),
        "diamond" => return Graph::undirected(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        _ => {}
    }
    let (family, n) = spec
        .split_once(':')
        .unwrap_or_else(|| panic!("bad query spec {spec}"));
    let n: usize = n
        .parse()
        .unwrap_or_else(|_| panic!("bad query spec {spec}"));
    match family {
        "clique" => clique(n),
        "chain" => chain(n),
        "cycle" => cycle(n),
        "star" => star(n),
        _ => panic!("bad query spec {spec}"),
    }
}

/// `q` with its vertex ids permuted: the same shape, but a query the
/// plan cache has not seen.
pub fn relabel(q: &Graph, seed: u64) -> Graph {
    let n = q.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    perm.shuffle(&mut SmallRng::seed_from_u64(seed));
    let edges: Vec<(VertexId, VertexId)> = q
        .edges()
        .filter(|(u, v)| u < v)
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    Graph::undirected(n, &edges)
}

/// Canonical bytes of a graph (vertex count, then its arcs in CSR
/// order), for checking that a seed reproduces its inputs exactly.
#[cfg(test)]
pub fn graph_bytes(g: &Graph) -> Vec<u8> {
    let mut out = (g.num_vertices() as u64).to_le_bytes().to_vec();
    for (u, v) in g.edges() {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// One job of the serving stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index of the menu entry the job was drawn from.
    pub entry: usize,
    /// Whether the job gets a freshly relabelled copy of the entry's
    /// query, one the plan cache has not seen.
    pub novel: bool,
}

/// `blocks` blocks of jobs over menu entries with the given `weights`:
/// each block holds entry `e` exactly `weights[e]` times, in a seeded
/// order, so every block (and every seed) carries the same mix. Every
/// `novel_every`-th job is marked novel.
pub fn job_blocks(weights: &[u32], blocks: usize, novel_every: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, "jobs"));
    let block: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(e, &w)| std::iter::repeat_n(e, w as usize))
        .collect();
    let mut out = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        let mut b = block.clone();
        b.shuffle(&mut rng);
        out.extend(b);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, entry)| JobSpec {
            entry,
            novel: novel_every > 0 && i % novel_every == novel_every - 1,
        })
        .collect()
}

/// `count` open-loop arrival times (ms after the phase starts) of a
/// Poisson stream at `rate_per_s`.
pub fn arrivals(rate_per_s: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, "arrivals"));
    let mean_gap_ms = 1e3 / rate_per_s;
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() * mean_gap_ms;
            t
        })
        .collect()
}

/// `count` batches of `inserts` + `deletes` edits over undirected `g`,
/// each valid against `g` itself, so that a batch followed by its
/// inverse leaves the graph as it was. Deletes remove random present
/// edges; inserts close a random path `a-b-c` into a triangle, so every
/// edit changes local structure.
pub fn edge_batches(
    g: &Graph,
    count: usize,
    inserts: usize,
    deletes: usize,
    seed: u64,
) -> Vec<EdgeBatch> {
    let key = |u: VertexId, v: VertexId| if u < v { (u, v) } else { (v, u) };
    let edges: Vec<(VertexId, VertexId)> = g.edges().filter(|(u, v)| u < v).collect();
    let present: HashSet<(VertexId, VertexId)> = edges.iter().copied().collect();
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, "batches"));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut batch = EdgeBatch::new();
        let mut touched: HashSet<(VertexId, VertexId)> = HashSet::new();
        let mut added = 0;
        while added < inserts {
            let (a, b) = edges[rng.random_range(0..edges.len())];
            let (a, b) = if rng.random_bool(0.5) { (a, b) } else { (b, a) };
            let nb = g.out_neighbors(b);
            let c = nb[rng.random_range(0..nb.len())];
            let k = key(a, c);
            if c == a || present.contains(&k) || !touched.insert(k) {
                continue;
            }
            batch.insert(a, c);
            added += 1;
        }
        let mut removed = 0;
        while removed < deletes {
            let k = edges[rng.random_range(0..edges.len())];
            if touched.insert(k) {
                batch.delete(k.0, k.1);
                removed += 1;
            }
        }
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_bytes(batches: &[EdgeBatch]) -> Vec<u8> {
        let mut out = Vec::new();
        for b in batches {
            for &(u, v) in b.inserts().iter().chain(b.deletes()) {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.push(0xff);
        }
        out
    }

    #[test]
    fn one_seed_generates_byte_identical_inputs() {
        for seed in [0, 7, u64::MAX] {
            for ds in [Dataset::Enron, Dataset::Gowalla, Dataset::WikiTalk] {
                let a = graph_bytes(&social(ds, Scale::Tiny, seed));
                assert_eq!(a, graph_bytes(&social(ds, Scale::Tiny, seed)), "{ds}");
            }
            let r = road(Dataset::RoadNetPA, Scale::Tiny, seed);
            assert_eq!(
                graph_bytes(&r),
                graph_bytes(&road(Dataset::RoadNetPA, Scale::Tiny, seed))
            );
            assert_eq!(
                graph_bytes(&er(300, 900, seed)),
                graph_bytes(&er(300, 900, seed))
            );
            let q = query("cycle:5");
            assert_eq!(
                graph_bytes(&relabel(&q, seed)),
                graph_bytes(&relabel(&q, seed))
            );
            assert_eq!(
                job_blocks(&[5, 1], 8, 7, seed),
                job_blocks(&[5, 1], 8, 7, seed)
            );
            assert_eq!(arrivals(40.0, 80, seed), arrivals(40.0, 80, seed));
            assert_eq!(
                batch_bytes(&edge_batches(&r, 20, 4, 4, seed)),
                batch_bytes(&edge_batches(&r, 20, 4, 4, seed))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a = graph_bytes(&social(Dataset::Enron, Scale::Tiny, 1));
        let b = graph_bytes(&social(Dataset::Enron, Scale::Tiny, 2));
        assert_ne!(a, b);
        assert_ne!(sub_seed(1, "jobs"), sub_seed(1, "batches"));
    }

    #[test]
    fn batches_and_their_inverses_apply_cleanly() {
        let mut g = road(Dataset::RoadNetPA, Scale::Tiny, 3);
        let base = graph_bytes(&g);
        for b in edge_batches(&g.clone(), 40, 4, 4, 3) {
            let d = g.apply_batch(&b).expect("every batch is valid");
            assert_eq!((d.inserted.len(), d.removed.len()), (8, 8)); // both arcs
            g.apply_batch(&b.inverse()).expect("its inverse is valid");
            assert_eq!(graph_bytes(&g), base);
        }
    }

    #[test]
    fn job_blocks_hold_the_exact_mix() {
        let s = job_blocks(&[2, 0, 3], 6, 10, 5);
        assert_eq!(s.len(), 30);
        assert_eq!(s.iter().filter(|j| j.novel).count(), 3);
        for block in s.chunks(5) {
            let count = |e| block.iter().filter(|j| j.entry == e).count();
            assert_eq!((count(0), count(1), count(2)), (2, 0, 3));
        }
        let order = |b: &[JobSpec]| b.iter().map(|j| j.entry).collect::<Vec<_>>();
        assert!(
            s.chunks(5).any(|b| order(b) != order(&s[..5])),
            "blocks are shuffled"
        );
    }

    #[test]
    fn relabelled_query_keeps_its_shape() {
        let q = query("paw");
        let r = relabel(&q, 9);
        assert_eq!(r.num_edges(), q.num_edges());
        let degrees = |g: &Graph| {
            let mut d: Vec<u32> = (0..4).map(|v| g.out_degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&r), degrees(&q));
    }

    #[test]
    fn arrivals_match_the_rate() {
        let a = arrivals(100.0, 1000, 1);
        assert_eq!(a.len(), 1000);
        let span_ms = a[999];
        assert!((9_000.0..11_000.0).contains(&span_ms), "{span_ms}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
