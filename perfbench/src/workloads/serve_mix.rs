//! `serve-mix`: a seeded stream of mostly small jobs on a `ServeTier` of
//! one rank with two lanes. A burst phase measures saturation
//! throughput over rounds of one block of jobs each; an open-loop phase
//! then sends jobs at a fixed rate below saturation and times every job
//! from when it was due until it committed. Admission, queueing, plan
//! caching and arena reuse show here; per-job expansion is small.
//!
//! Unit of work: one job. The stream is made of blocks that each hold
//! every menu entry exactly its weight times, so every seed and every
//! burst round carries the same mix of jobs. The open loop replays one
//! block on one arrival schedule as many times as fit; each job's latency
//! is its fastest over the replays (see `Rounds`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuts_core::sched::{Job, JobId};
use cuts_core::serve::{ServeConfig, ServeReport, ServeTier};
use cuts_core::{CutsError, EngineConfig, ExecSession, SchedError};
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::{Dataset, Graph, Scale};
use cuts_obs::{Arg, EventKind, Trace};

use super::{
    ms_since, peak_rss_mb, repeat_setup, set_kernels, set_overhead, set_p50_p90, set_plan_cache,
    Ctx, Outcome, Rounds,
};
use crate::inputs;
use crate::spans::Spans;
use crate::stats::median;

const ROAD: usize = 0;
const ENRON: usize = 1;
const GOWALLA: usize = 2;
const ER: usize = 3;
const ER_SMALL: usize = 4;

/// `(graph, query, weight)`: eleven shapes of 3–5 vertices. On the
/// seeded heavy-tailed social graphs only shapes whose cost does not hang
/// on hub degree run, so every seed gives a stream of similar weight. The
/// last three entries are the heavy jobs (3 of the 83 jobs of a block),
/// each 3–8× a typical small one.
const MENU: [(usize, &str, u32); 28] = [
    (ROAD, "clique:3", 3),
    (ROAD, "chain:3", 4),
    (ROAD, "chain:4", 4),
    (ROAD, "chain:5", 4),
    (ROAD, "cycle:4", 4),
    (ROAD, "cycle:5", 4),
    (ROAD, "star:4", 3),
    (ROAD, "star:5", 3),
    (ROAD, "paw", 3),
    (ENRON, "clique:3", 3),
    (ENRON, "clique:4", 3),
    (ENRON, "chain:3", 3),
    (ENRON, "paw", 3),
    (ENRON, "diamond", 3),
    (GOWALLA, "clique:3", 3),
    (GOWALLA, "clique:4", 3),
    (GOWALLA, "chain:3", 3),
    (ER, "clique:3", 3),
    (ER, "clique:4", 3),
    (ER, "chain:3", 3),
    (ER_SMALL, "chain:4", 3),
    (ER_SMALL, "cycle:4", 3),
    (ER_SMALL, "star:4", 3),
    (ER, "paw", 3),
    (ER, "diamond", 3),
    (ER_SMALL, "chain:5", 1),
    (ER_SMALL, "cycle:5", 1),
    (ER_SMALL, "star:5", 1),
];

/// Every this-many-th job carries a freshly relabelled query (a plan
/// the cache has not seen).
const NOVEL_EVERY: usize = 40;

/// Blocks of the burst stream; the bursts wrap around if they drain it.
const BLOCKS: usize = 60;

/// Open-loop replays generated per run; the phase stops early at its
/// deadline.
const OPEN_REPLAYS: usize = 16;

/// Lanes of the single rank.
const LANES: usize = 2;

/// Open-loop arrival rate, jobs per second: well under the 70–150
/// jobs/s the burst phase saturates at on a 2-vCPU host, so latency is
/// mostly service time rather than a growing backlog.
const OPEN_RATE: f64 = 25.0;

/// Share of `--seconds` given to the burst phase; the rest is open loop.
const BURST_SHARE: f64 = 0.4;

/// Jobs in one block of the stream (the menu weights' sum); a burst
/// round runs one block.
fn block_len() -> usize {
    MENU.iter().map(|m| m.2 as usize).sum()
}

fn device_config() -> DeviceConfig {
    cuts_bench::Machine::A100.device_config(Scale::Medium)
}

fn tier(trace: Option<Trace>) -> ServeTier {
    let mut b = ServeConfig::builder()
        .ranks(1)
        .lanes(LANES)
        .device_config(device_config())
        .engine_config(EngineConfig::default())
        .pacing(0.0);
    if let Some(t) = trace {
        b = b.trace(t);
    }
    ServeTier::new(b.build().expect("valid serve config"))
}

/// Which (graph, query) pair a job runs: a menu entry, or the novel
/// query of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PairKey {
    Entry(usize),
    Novel(usize),
}

struct Setup {
    graphs: Vec<Arc<Graph>>,
    /// Query of each menu entry.
    queries: Vec<Arc<Graph>>,
    /// The burst stream, then every open-loop replay of one block.
    keys: Vec<PairKey>,
    jobs: Vec<Job>,
    /// Index in `jobs` of the first open-loop replay.
    open_start: usize,
    /// Arrival schedule of one open-loop replay.
    arrivals_ms: Vec<f64>,
    tier: ServeTier,
    gen_ms: f64,
    profile_ms: f64,
}

fn setup(ctx: &Ctx, spans: &mut Spans) -> Setup {
    let seed = ctx.seed;
    let t = Instant::now();
    let graphs: Vec<Arc<Graph>> = spans.scope("graph.generate", 0, |_| {
        vec![
            inputs::road(Dataset::RoadNetPA, Scale::Medium, seed),
            inputs::social(Dataset::Enron, Scale::Small, seed),
            inputs::social(Dataset::Gowalla, Scale::Tiny, seed),
            inputs::er(4000, 12000, seed),
            inputs::er(1000, 3000, seed),
        ]
        .into_iter()
        .map(Arc::new)
        .collect()
    });
    let gen_ms = ms_since(t);
    let t = Instant::now();
    spans.scope("graph.profile", 0, |_| {
        for g in &graphs {
            g.profile();
        }
    });
    let profile_ms = ms_since(t);
    let queries: Vec<Arc<Graph>> = MENU
        .iter()
        .map(|(_, q, _)| Arc::new(inputs::query(q)))
        .collect();
    let weights: Vec<u32> = MENU.iter().map(|m| m.2).collect();
    let novel_seed = inputs::sub_seed(seed, "novel");
    let (mut keys, mut jobs) = (Vec::new(), Vec::new());
    let burst = inputs::job_blocks(&weights, BLOCKS, NOVEL_EVERY, seed);
    let open_block = inputs::job_blocks(&weights, 1, NOVEL_EVERY, inputs::sub_seed(seed, "open"));
    let open_start = burst.len();
    let open = (0..OPEN_REPLAYS).flat_map(|_| open_block.iter().copied());
    for (i, s) in burst.into_iter().chain(open).enumerate() {
        let (graph, shape, _) = MENU[s.entry];
        let (key, query) = if s.novel {
            let q = inputs::relabel(&queries[s.entry], novel_seed ^ i as u64);
            (PairKey::Novel(i), Arc::new(q))
        } else {
            (PairKey::Entry(s.entry), Arc::clone(&queries[s.entry]))
        };
        keys.push(key);
        jobs.push(Job::new(Arc::clone(&graphs[graph]), query).with_class(shape));
    }
    Setup {
        graphs,
        queries,
        keys,
        jobs,
        open_start,
        arrivals_ms: inputs::arrivals(OPEN_RATE, block_len(), seed),
        tier: tier(None),
        gen_ms,
        profile_ms,
    }
}

/// When a job was due and when the tier admitted it.
struct Admitted {
    /// Stream index of the job.
    index: usize,
    due: Instant,
    admit: Instant,
}

/// One `ServeTier::run` of the stream.
struct Phase {
    report: ServeReport,
    jobs: HashMap<JobId, Admitted>,
    late_ms_max: f64,
    rejections: u64,
}

impl Phase {
    /// `(stream index, due→commit latency in ms)` of every job; a job
    /// commits at admission plus the tier's queue and execution times.
    fn latency_ms(&self) -> Vec<(usize, f64)> {
        self.report
            .outcomes
            .iter()
            .map(|o| {
                let a = &self.jobs[&o.id];
                let commit =
                    a.admit + Duration::from_secs_f64((o.queue_millis + o.exec_millis) / 1e3);
                (
                    a.index,
                    commit.saturating_duration_since(a.due).as_secs_f64() * 1e3,
                )
            })
            .collect()
    }
}

/// Runs the stream from job `first` through `tier`: `count` jobs as fast
/// as admission allows when `schedule` is `None` (closed loop), else one
/// job per scheduled arrival (open loop; a job the full queue refuses is
/// counted and then submitted blocking).
fn phase(
    st: &Setup,
    tier: &ServeTier,
    spans: &mut Spans,
    first: usize,
    schedule: Option<&[f64]>,
    count: usize,
) -> Result<Phase, CutsError> {
    let mut jobs = HashMap::new();
    let (mut late_ms_max, mut rejections) = (0.0f64, 0u64);
    let op = first as u64;
    let report = spans.scope("serve.run", op, |spans| {
        let report = tier.run(|h| {
            let t0 = Instant::now();
            for k in 0.. {
                let due = match schedule {
                    None if k >= count => break,
                    None => Instant::now(),
                    Some(s) if k >= s.len() => break,
                    Some(s) => t0 + Duration::from_secs_f64(s[k] / 1e3),
                };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms_max = late_ms_max.max(ms_since(due));
                let index = first + k;
                let job = st.jobs[index].clone();
                let id = match h.submit(job.clone()) {
                    Ok(id) => id,
                    Err(SchedError::Busy { .. }) => {
                        rejections += u64::from(schedule.is_some());
                        h.submit_wait(job)
                    }
                    Err(e) => return Err(e.into()),
                };
                let admit = Instant::now();
                jobs.insert(id, Admitted { index, due, admit });
            }
            Ok(())
        })?;
        for o in &report.outcomes {
            let a = &jobs[&o.id];
            let exec = a.admit + Duration::from_secs_f64(o.queue_millis / 1e3);
            let op = a.index as u64;
            spans.record("serve.queue", op, a.admit, exec);
            spans.record(
                "serve.exec",
                op,
                exec,
                exec + Duration::from_secs_f64(o.exec_millis / 1e3),
            );
        }
        Ok::<_, CutsError>(report)
    })?;
    Ok(Phase {
        report,
        jobs,
        late_ms_max,
        rejections,
    })
}

fn peak_reserved_frac(r: &ServeReport) -> f64 {
    r.stats
        .peak_reserved_words
        .iter()
        .zip(&r.stats.budget_words)
        .map(|(&p, &b)| p as f64 / b.max(1) as f64)
        .fold(0.0, f64::max)
}

/// Burst rounds, then the open-loop replays, of one timed region.
struct Timed {
    bursts: Vec<Phase>,
    opens: Vec<Phase>,
}

impl Timed {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.bursts.iter().chain(&self.opens)
    }

    /// Burst jobs per second and partial paths per second of the
    /// fastest round.
    fn burst_rates(&self) -> (f64, f64) {
        let (mut jobs, mut paths) = (0.0f64, 0.0f64);
        for b in &self.bursts {
            let secs = b.report.wall_millis / 1e3;
            let p: u64 = b
                .report
                .outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().ok())
                .map(|r| r.level_counts.iter().sum::<u64>())
                .sum();
            jobs = jobs.max(b.report.outcomes.len() as f64 / secs);
            paths = paths.max(p as f64 / secs);
        }
        (jobs, paths)
    }

    /// Due→commit latency of each job of the replayed block, every
    /// replay.
    fn open_latency(&self, st: &Setup) -> Rounds {
        let mut r = Rounds::new(block_len());
        for o in &self.opens {
            for (index, ms) in o.latency_ms() {
                r.push((index - st.open_start) % block_len(), ms);
            }
        }
        r
    }
}

/// Burst rounds of one block each for the burst share of `--seconds`,
/// then open-loop replays of one block for the rest (at least two).
fn timed(ctx: &Ctx, st: &Setup, tier: &ServeTier, spans: &mut Spans) -> Result<Timed, CutsError> {
    spans.scope("timed", 0, |spans| {
        let start = Instant::now();
        let burst_end = start + Duration::from_secs_f64(ctx.seconds * BURST_SHARE);
        let (mut bursts, mut next) = (Vec::new(), 0);
        while bursts.is_empty() || Instant::now() < burst_end {
            if next + block_len() > st.open_start {
                next = 0;
            }
            let b = phase(st, tier, spans, next, None, block_len())?;
            next += b.report.outcomes.len();
            bursts.push(b);
        }
        let end = start + Duration::from_secs_f64(ctx.seconds);
        let mut opens = Vec::new();
        while opens.len() < 2 || (opens.len() < OPEN_REPLAYS && Instant::now() < end) {
            let first = st.open_start + opens.len() * block_len();
            opens.push(phase(st, tier, spans, first, Some(&st.arrivals_ms), 0)?);
        }
        Ok(Timed { bursts, opens })
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let st = repeat_setup(
        spans,
        &mut out.metrics,
        |spans| setup(ctx, spans),
        |s| (s.gen_ms, s.profile_ms),
    );

    let untraced = ctx
        .traced
        .then(|| timed(ctx, &st, &st.tier, &mut Spans::new(false)));
    // The traced run also turns on the tier's own trace journal, the only
    // public view of its plan-cache and arena traffic.
    let trace = ctx.traced.then(Trace::enabled);
    let traced_tier = trace.clone().map(|t| tier(Some(t)));
    let result = timed(ctx, &st, traced_tier.as_ref().unwrap_or(&st.tier), spans);
    let peak = peak_rss_mb();

    let mut runs: Vec<Timed> = Vec::new();
    for r in untraced.into_iter().chain([result]) {
        match r {
            Ok(t) => runs.push(t),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("serve run: {e}"));
            }
        }
    }
    let Some(t) = runs.last() else {
        return out;
    };

    let m = &mut out.metrics;
    let burst_jobs: u64 = t
        .bursts
        .iter()
        .map(|b| b.report.outcomes.len() as u64)
        .sum();
    let (jobs_per_s, paths_per_s) = t.burst_rates();
    m.set("jobs_per_s", jobs_per_s, burst_jobs);
    m.set("paths_per_s", paths_per_s, burst_jobs);
    let latency = t.open_latency(&st);
    set_p50_p90(m, "job_ms_p50", "job_ms_p90", &latency.best());
    m.set("peak_rss_mb", peak, 1);
    if runs.len() == 2 {
        set_overhead(m, 1.0 / runs[0].burst_rates().0, 1.0 / jobs_per_s);
    }

    let opens = t.opens.iter().flat_map(|o| &o.report.outcomes);
    let queue: Vec<f64> = opens.clone().map(|x| x.queue_millis).collect();
    let exec: Vec<f64> = opens.map(|x| x.exec_millis).collect();
    set_p50_p90(m, "serve.queue_ms_p50", "serve.queue_ms_p90", &queue);
    set_p50_p90(m, "serve.exec_ms_p50", "serve.exec_ms_p90", &exec);
    let bursts = t.bursts.iter().map(|b| &b.report);
    let busy: f64 = bursts
        .clone()
        .flat_map(|r| &r.outcomes)
        .map(|x| x.exec_millis)
        .sum();
    let wall: f64 = bursts.map(|r| r.wall_millis).sum();
    m.set(
        "serve.lane_busy_frac",
        busy / (LANES as f64 * wall),
        burst_jobs,
    );
    let samples = queue.len() as u64;
    let rejections: u64 = t.opens.iter().map(|o| o.rejections).sum();
    m.set("serve.busy_rejections", rejections as f64, samples);
    m.set(
        "serve.peak_reserved_frac",
        t.phases()
            .map(|p| peak_reserved_frac(&p.report))
            .fold(0.0, f64::max),
        t.phases().count() as u64,
    );
    let late = t.opens.iter().map(|o| o.late_ms_max).fold(0.0, f64::max);
    m.set("loadgen.late_ms_max", late, samples);
    m.set("loadgen.samples", samples as f64, samples);

    let mut counters = Counters::default();
    let (mut cuts, mut naive, mut n) = (0u64, 0u64, 0u64);
    let all = t.phases().flat_map(|p| &p.report.outcomes);
    for r in all.filter_map(|x| x.result.as_ref().ok()) {
        counters += r.counters;
        cuts += r.cuts_words();
        naive += r.naive_words();
        n += 1;
    }
    let n = n.max(1);
    set_kernels(m, &counters, n);
    m.set("trie.cuts_words", cuts as f64 / n as f64, n);
    m.set("trie.naive_words", naive as f64 / n as f64, n);
    m.set("trie.compression", naive as f64 / cuts.max(1) as f64, n);

    if let Some(journal) = trace.as_ref().and_then(Trace::journal) {
        let (mut hits, mut misses, mut carves, mut acq, mut rel, mut hw) = (0, 0, 0, 0, 0, 0u64);
        for e in journal.drain_sorted() {
            match (e.kind, e.name.as_str()) {
                (EventKind::Plan, "hit") => hits += 1,
                (EventKind::Plan, "miss") => misses += 1,
                (EventKind::Arena, "carve") => carves += 1,
                (EventKind::Arena, "acquire") => acq += 1,
                (EventKind::Arena, "release") => rel += 1,
                (EventKind::Arena, "high_water") => {
                    if let Some(Arg::U64(s)) = e.arg("slabs") {
                        hw = hw.max(*s);
                    }
                }
                _ => {}
            }
        }
        set_plan_cache(m, hits, misses);
        m.set("arena.device_allocs", carves as f64, 1);
        m.set("arena.acquires", acq as f64 / n as f64, n);
        m.set("arena.releases", rel as f64 / n as f64, n);
        m.set("arena.high_water", hw as f64, 1);
    }

    spans.scope("check", 0, |spans| check(&st, &runs, spans, &mut out));
    out
}

/// Compares every job's result with a serial `ExecSession` run of the
/// same graph and query (one run per distinct pair), and sets `sim_ms` to
/// the simulated time of the whole menu, one job per entry.
fn check(st: &Setup, runs: &[Timed], spans: &mut Spans, out: &mut Outcome) {
    let device = Device::new(device_config());
    let session = ExecSession::new(&device, EngineConfig::default());
    let mut want: HashMap<PairKey, Result<(Vec<u8>, f64), String>> = HashMap::new();
    let mut plan_ms = Vec::new();
    let mut serial = |key: PairKey, data: &Graph, query: &Graph, spans: &mut Spans| {
        want.entry(key)
            .or_insert_with(|| {
                let t = Instant::now();
                let plan = spans.scope("plan.build", 0, |_| session.plan_for(query));
                plan_ms.push(ms_since(t));
                plan.and_then(|p| session.run_with_plan(&p, data))
                    .map(|r| (r.canonical_bytes(), r.sim_millis))
                    .map_err(|e| e.to_string())
            })
            .clone()
    };
    for t in runs {
        for phase in t.phases() {
            for x in &phase.report.outcomes {
                out.attempted += 1;
                let i = phase.jobs[&x.id].index;
                let job = &st.jobs[i];
                match (&x.result, serial(st.keys[i], &job.data, &job.query, spans)) {
                    (Ok(r), Ok((w, _))) if r.canonical_bytes() == w => {}
                    (Ok(_), Ok(_)) => out.fail(format!(
                        "job {i} ({:?}): result differs from the serial run",
                        st.keys[i]
                    )),
                    (Err(e), _) => out.fail(format!("job {i}: {e}")),
                    (Ok(_), Err(e)) => out.fail(format!("job {i}: serial run failed: {e}")),
                }
            }
        }
    }
    let mut sim = 0.0;
    for (e, &(g, _, _)) in MENU.iter().enumerate() {
        match serial(PairKey::Entry(e), &st.graphs[g], &st.queries[e], spans) {
            Ok((_, ms)) => sim += ms,
            Err(err) => out.fail(format!("menu entry {e}: serial run failed: {err}")),
        }
    }
    out.metrics.set("sim_ms", sim, MENU.len() as u64);
    out.metrics.set(
        "plan.build_ms",
        median(&plan_ms).unwrap_or(0.0),
        plan_ms.len() as u64,
    );
}
