//! The four workloads and what they share.

pub mod dist_donate;
pub mod live_updates;
pub mod serve_mix;
pub mod social_expand;

use std::time::{Duration, Instant};

use cuts_gpu_sim::{ArenaStats, Counters};

use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{median, percentile};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["social-expand", "serve-mix", "live-updates", "dist-donate"];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
}

impl Ctx {
    /// Deadline of a timed region starting now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed regions.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// One line per failed operation or check.
    pub problems: Vec<String>,
    /// Every metric measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPS`] times inside `setup` spans and sets
/// `setup_s` to the median duration. The last repetition's output is
/// kept; `graph_ms` returns its graph generation and first-profile time
/// so the per-layer graph metrics are medians too.
pub fn repeat_setup<T>(
    spans: &mut Spans,
    metrics: &mut Metrics,
    mut setup: impl FnMut(&mut Spans) -> T,
    graph_ms: impl Fn(&T) -> (f64, f64),
) -> T {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let (mut gen, mut prof) = (Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let out = spans.scope("setup", rep as u64, &mut setup);
        secs.push(t.elapsed().as_secs_f64());
        let (g, p) = graph_ms(&out);
        gen.push(g);
        prof.push(p);
        kept = Some(out);
    }
    metrics.set("setup_s", median(&secs).expect("reps"), secs.len() as u64);
    metrics.set(
        "graph.generate_ms",
        median(&gen).expect("reps"),
        gen.len() as u64,
    );
    metrics.set(
        "graph.profile_ms",
        median(&prof).expect("reps"),
        prof.len() as u64,
    );
    kept.expect("at least one repetition")
}

/// Host-time samples of a fixed set of operations that a timed region
/// runs in rounds, every operation once per round.
///
/// Each operation's time is the fastest of its samples. Interference
/// from the shared host only ever adds time: on a 2-vCPU VM the same
/// operation runs in a fast and a ~1.5x slower phase that alternate
/// every few seconds, so a median reads whichever phase dominated the
/// run, while the fastest of many samples spread over the run reads the
/// uncontended speed (see README.md).
#[derive(Debug, Clone)]
pub struct Rounds {
    ms: Vec<Vec<f64>>,
}

impl Rounds {
    /// No samples yet for `ops` operations.
    pub fn new(ops: usize) -> Self {
        Rounds {
            ms: vec![Vec::new(); ops],
        }
    }

    /// Records one run of operation `op` that took `ms`.
    pub fn push(&mut self, op: usize, ms: f64) {
        self.ms[op].push(ms);
    }

    /// Rounds every operation has completed.
    pub fn complete(&self) -> usize {
        self.ms.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Every sample, in operation order.
    pub fn all(&self) -> Vec<f64> {
        self.ms.concat()
    }

    /// Fastest time of each operation, ms (0 for one never run).
    pub fn best(&self) -> Vec<f64> {
        self.ms
            .iter()
            .map(|s| s.iter().copied().reduce(f64::min).unwrap_or(0.0))
            .collect()
    }

    /// Median of each operation's samples (0 for one never run), for
    /// figures the host does not affect.
    pub fn medians(&self) -> Vec<f64> {
        self.ms.iter().map(|s| median(s).unwrap_or(0.0)).collect()
    }

    /// Host seconds of one round at each operation's fastest time.
    pub fn round_secs(&self) -> f64 {
        self.best().iter().sum::<f64>() / 1e3
    }

    /// Sets `jobs_per_s` and `paths_per_s` (operations and partial
    /// paths per host second of one round at the fastest times) and
    /// `job_ms_p50`, `job_ms_p90` (over the operations' fastest times)
    /// from these samples and the partial paths of one round.
    pub fn set_end_to_end(&self, m: &mut Metrics, round_paths: u64) {
        let best = self.best();
        let round_s = self.round_secs();
        let n = self.complete() as u64;
        m.set("jobs_per_s", best.len() as f64 / round_s, n);
        m.set("paths_per_s", round_paths as f64 / round_s, n);
        set_p50_p90(m, "job_ms_p50", "job_ms_p90", &best);
    }
}

/// Sets the latency pair `<p50>`/`<p90>` from `samples_ms`.
pub fn set_p50_p90(m: &mut Metrics, p50: &'static str, p90: &'static str, samples_ms: &[f64]) {
    let n = samples_ms.len() as u64;
    m.set(p50, percentile(samples_ms, 0.5).unwrap_or(0.0), n);
    m.set(p90, percentile(samples_ms, 0.9).unwrap_or(0.0), n);
}

/// Sets the `kernels.*` metrics to `total` divided over `units` units of
/// work.
pub fn set_kernels(m: &mut Metrics, total: &Counters, units: u64) {
    let per = |x: u64| x as f64 / units.max(1) as f64;
    m.set("kernels.instructions", per(total.instructions), units);
    m.set("kernels.dram_words", per(total.dram_total()), units);
    m.set(
        "kernels.shmem_words",
        per(total.shmem_reads + total.shmem_writes),
        units,
    );
    m.set("kernels.atomics", per(total.atomics), units);
    m.set(
        "kernels.divergent_branches",
        per(total.divergent_branches),
        units,
    );
    m.set("kernels.launches", per(total.kernel_launches), units);
    m.set(
        "kernels.instr_per_dram_word",
        Counters::ratio(total.instructions, total.dram_total()),
        units,
    );
}

/// Sets the `plan.*` hit/miss metrics.
pub fn set_plan_cache(m: &mut Metrics, hits: u64, misses: u64) {
    m.set("plan.hits", hits as f64, 1);
    m.set("plan.misses", misses as f64, 1);
    let lookups = hits + misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    m.set("plan.hit_ratio", ratio, lookups);
}

/// Sets the `arena.*` metrics from the device allocations made during a
/// timed region of `units` units of work and arena stats taken before
/// and after it.
pub fn set_arena(
    m: &mut Metrics,
    device_allocs: u64,
    before: Option<&ArenaStats>,
    after: Option<&ArenaStats>,
    units: u64,
) {
    let acq = |s: Option<&ArenaStats>| s.map_or(0, |s| s.slab_acquires());
    let rel = |s: Option<&ArenaStats>| s.map_or(0, |s| s.classes.iter().map(|c| c.releases).sum());
    let per = |x: u64| x as f64 / units.max(1) as f64;
    m.set("arena.device_allocs", device_allocs as f64, 1);
    m.set(
        "arena.acquires",
        per(acq(after).saturating_sub(acq(before))),
        units,
    );
    m.set(
        "arena.releases",
        per(rel(after).saturating_sub(rel(before))),
        units,
    );
    let hw = after.map_or(0, |s| {
        s.classes.iter().map(|c| c.high_water).max().unwrap_or(0)
    });
    m.set("arena.high_water", hw as f64, 1);
}

/// Tracing overhead: how much slower the traced timed region ran, from a
/// time-like figure (higher = slower) of the untraced and traced regions.
pub fn set_overhead(m: &mut Metrics, untraced: f64, traced: f64) {
    let frac = if untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    };
    m.set("trace.overhead_frac", frac, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_take_each_operations_fastest_sample() {
        let mut r = Rounds::new(2);
        for (op, ms) in [(0, 30.0), (1, 10.0), (0, 20.0), (1, 15.0), (0, 25.0)] {
            r.push(op, ms);
        }
        assert_eq!(r.complete(), 2);
        assert_eq!(r.best(), vec![20.0, 10.0]);
        assert_eq!(r.medians(), vec![25.0, 12.5]);
        assert!((r.round_secs() - 0.030).abs() < 1e-12);
        let mut m = Metrics::default();
        r.set_end_to_end(&mut m, 600);
        let rows: Vec<_> = m.rows(&crate::report::HOST).collect();
        let get = |name| rows.iter().find(|r| r.0 == name).map(|r| r.2).unwrap();
        assert!((get("jobs_per_s") - 2.0 / 0.030).abs() < 1e-9);
        assert!((get("paths_per_s") - 600.0 / 0.030).abs() < 1e-6);
        assert_eq!(get("job_ms_p50"), 15.0);
        assert_eq!(get("job_ms_p90"), 19.0);
    }
}
