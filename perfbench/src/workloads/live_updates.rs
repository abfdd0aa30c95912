//! `live-updates`: a `DynamicSession` on a seeded road stand-in at medium
//! scale with standing `cycle:4` and `chain:4` queries, fed a seeded
//! schedule of small insert/delete batches. Each batch writes the graph,
//! releases dirty trie subtrees and re-expands them; static expansion
//! does little.
//!
//! Unit of work: one batch (`apply_batch`). A round applies every
//! scheduled batch followed by its inverse, which leaves the graph as it
//! was, so the timed region repeats the same batches as many rounds as
//! fit.

use std::time::Instant;

use cuts_core::{DynamicSession, EngineConfig, StandingQueryId};
use cuts_gpu_sim::Device;
use cuts_graph::{Dataset, EdgeBatch, Scale};

use super::{
    ms_since, peak_rss_mb, repeat_setup, set_arena, set_kernels, set_overhead, set_plan_cache, Ctx,
    Outcome, Rounds,
};
use crate::inputs;
use crate::spans::Spans;
use crate::stats::median;

/// Standing queries.
const QUERIES: [&str; 2] = ["cycle:4", "chain:4"];

/// Batches scheduled per run; a round applies each and then its inverse.
const BATCHES: usize = 12;

/// Edits per batch: inserts, then deletes.
const INSERTS: usize = 4;
const DELETES: usize = 4;

struct Setup<'d> {
    session: DynamicSession<'d>,
    ids: Vec<StandingQueryId>,
    /// Each scheduled batch followed by its inverse.
    batches: Vec<EdgeBatch>,
    gen_ms: f64,
    profile_ms: f64,
}

fn setup<'d>(device: &'d Device, seed: u64, spans: &mut Spans) -> Setup<'d> {
    let t = Instant::now();
    let graph = spans.scope("graph.generate", 0, |_| {
        inputs::road(Dataset::RoadNetPA, Scale::Medium, seed)
    });
    let gen_ms = ms_since(t);
    let t = Instant::now();
    spans.scope("graph.profile", 0, |_| graph.profile());
    let profile_ms = ms_since(t);
    let batches = inputs::edge_batches(&graph, BATCHES, INSERTS, DELETES, seed)
        .into_iter()
        .flat_map(|b| {
            let inverse = b.inverse();
            [b, inverse]
        })
        .collect();
    let mut session = DynamicSession::new(device, EngineConfig::default(), graph);
    let ids = QUERIES
        .iter()
        .enumerate()
        .map(|(i, q)| {
            spans
                .scope("dynamic.register", i as u64, |_| {
                    session.register(&inputs::query(q))
                })
                .expect("standing query registers")
        })
        .collect();
    Setup {
        session,
        ids,
        batches,
        gen_ms,
        profile_ms,
    }
}

/// Raw samples of one timed region.
struct Timed {
    batch_ms: Rounds,
    sim_ms: Vec<f64>,
    /// Per round, summed over its batches.
    delta_rows: u64,
    dirty_roots: u64,
    reseeded: u64,
    released: u64,
}

fn timed(ctx: &Ctx, st: &mut Setup<'_>, spans: &mut Spans, out: &mut Outcome) -> Timed {
    let n = st.batches.len();
    let mut t = Timed {
        batch_ms: Rounds::new(n),
        sim_ms: Vec::new(),
        delta_rows: 0,
        dirty_roots: 0,
        reseeded: 0,
        released: 0,
    };
    let device = st.session.session().device();
    let counters_before = device.counters();
    let allocs_before = device.alloc_calls();
    let arena_before = st.session.session().stats().arena;
    let deadline = ctx.deadline();
    let mut round = 0u64;
    spans.scope("timed", 0, |spans| {
        while round == 0 || Instant::now() < deadline {
            for i in 0..n {
                out.attempted += 1;
                let b0 = Instant::now();
                let op = round * n as u64 + i as u64;
                let r = spans.scope("dynamic.apply_batch", op, |_| {
                    st.session.apply_batch(&st.batches[i])
                });
                t.batch_ms.push(i, ms_since(b0));
                match r {
                    Ok(o) => {
                        t.sim_ms.push(o.deltas.iter().map(|d| d.sim_millis).sum());
                        if round == 0 {
                            for d in &o.deltas {
                                t.delta_rows += (d.added.len() + d.removed.len()) as u64;
                                t.dirty_roots += d.dirty_roots as u64;
                                t.reseeded += d.reseeded as u64;
                                t.released += d.released_entries as u64;
                            }
                        }
                    }
                    Err(e) => out.fail(format!("batch {i} of round {round}: {e}")),
                }
            }
            round += 1;
        }
    });
    let device = st.session.session().device();
    let units = t.sim_ms.len() as u64;
    let m = &mut out.metrics;
    set_kernels(m, &(device.counters() - counters_before), units);
    let stats = st.session.session().stats();
    set_arena(
        m,
        device.alloc_calls() - allocs_before,
        arena_before.as_ref(),
        stats.arena.as_ref(),
        units,
    );
    t
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let device = Device::new(cuts_bench::Machine::A100.device_config(Scale::Medium));
    let mut st = repeat_setup(
        spans,
        &mut out.metrics,
        |spans| setup(&device, ctx.seed, spans),
        |s| (s.gen_ms, s.profile_ms),
    );

    let untraced = ctx
        .traced
        .then(|| timed(ctx, &mut st, &mut Spans::new(false), &mut out));
    let t = timed(ctx, &mut st, spans, &mut out);
    let peak = peak_rss_mb();

    let m = &mut out.metrics;
    t.batch_ms.set_end_to_end(m, t.delta_rows);
    m.set(
        "sim_ms",
        median(&t.sim_ms).unwrap_or(0.0),
        t.sim_ms.len() as u64,
    );
    m.set("peak_rss_mb", peak, 1);
    if let Some(u) = &untraced {
        set_overhead(m, u.batch_ms.round_secs(), t.batch_ms.round_secs());
    }
    let n = st.batches.len() as u64;
    let per = |x: u64| x as f64 / n.max(1) as f64;
    m.set("dynamic.dirty_roots", per(t.dirty_roots), n);
    m.set("dynamic.reseeded", per(t.reseeded), n);
    m.set("dynamic.released_entries", per(t.released), n);
    m.set("dynamic.delta_rows", per(t.delta_rows), n);
    m.set(
        "dynamic.delta_per_reseed",
        t.delta_rows as f64 / t.reseeded.max(1) as f64,
        n,
    );
    let stats = st.session.session().stats();
    set_plan_cache(m, stats.plans.hits, stats.plans.misses);
    m.set("trie.entries", stats.trie_entries.unwrap_or(0) as f64, 1);

    spans.scope("check", 0, |_| {
        // A round ends where it started; check a state one batch away.
        if let Err(e) = st.session.apply_batch(&st.batches[0]) {
            out.fail(format!("closing batch: {e}"));
        }
        for (&id, q) in st.ids.iter().zip(QUERIES) {
            match st.session.recompute(id) {
                Ok(full) if full == st.session.match_set(id) => {}
                Ok(full) => out.fail(format!(
                    "{q}: maintained match set has {} embeddings, recompute {}",
                    st.session.match_set(id).len(),
                    full.len()
                )),
                Err(e) => out.fail(format!("{q}: recompute failed: {e}")),
            }
        }
    });
    out
}
