//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer of the program: name (the layer), the id of the query, job or
//! batch the call serves, start, end, and the enclosing span. Nothing is
//! written until [`Spans::write_jsonl`] at the end of the run. A span's
//! self time is its duration minus the part of its interval that its
//! child spans cover; children may overlap (jobs on parallel lanes), so
//! coverage is the length of the union of their intervals.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cuts_obs::Json;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer the span measures, e.g. `session.run`.
    pub name: &'static str,
    /// Id of the query, job or batch the span serves.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Span recorder; a disabled recorder only runs the wrapped calls.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened by `f` become its children.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.recs.len();
        let start_ns = self.ns(Instant::now());
        self.recs.push(SpanRec {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-finished span under the currently open one —
    /// for work the program timed on other threads (queue wait and
    /// execution of a served job).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rec = SpanRec {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.recs.push(rec);
    }

    /// Every recorded span, in opening order.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let selfs = self_times(&self.recs);
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (rec, self_ns) in self.recs.iter().zip(selfs) {
            let t = out.entry(rec.name).or_default();
            t.count += 1;
            t.total_ns += rec.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.recs);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (rec, self_ns)) in self.recs.iter().zip(selfs).enumerate() {
            let line = Json::obj([
                ("id", Json::U64(i as u64)),
                (
                    "parent",
                    rec.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("name", Json::Str(rec.name.to_string())),
                ("op", Json::U64(rec.op)),
                ("start_ns", Json::U64(rec.start_ns)),
                ("dur_ns", Json::U64(rec.dur_ns())),
                ("self_ns", Json::U64(self_ns)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to its own interval.
pub fn self_times(recs: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for rec in recs {
        if let Some(p) = rec.parent {
            children[p].push((rec.start_ns, rec.end_ns));
        }
    }
    recs.iter()
        .zip(children)
        .map(|(rec, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = rec.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                let e = e.min(rec.end_ns);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            rec.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[rec("a", None, 10, 35)]), vec![25]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60)
        let recs = [
            rec("root", None, 0, 100),
            rec("a", Some(0), 10, 40),
            rec("b", Some(1), 20, 30),
            rec("c", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&recs), vec![100 - 30 - 10, 30 - 10, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two lanes: [10,50) and [30,70) cover [10,70) = 60 of 100.
        let recs = [
            rec("run", None, 0, 100),
            rec("job", Some(0), 10, 50),
            rec("job", Some(0), 30, 70),
        ];
        assert_eq!(self_times(&recs)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let recs = [rec("run", None, 10, 20), rec("job", Some(0), 0, 15)];
        assert_eq!(self_times(&recs)[0], 5);
    }

    #[test]
    fn layers_sum_self_and_total_time_by_name() {
        let mut s = Spans::new(true);
        s.recs = vec![
            rec("root", None, 0, 100),
            rec("leaf", Some(0), 0, 10),
            rec("leaf", Some(0), 20, 50),
        ];
        let l = s.layers();
        assert_eq!(
            l["leaf"],
            LayerTime {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(l["root"].self_ns, 60);
    }

    #[test]
    fn scopes_nest_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        let v = s.scope("outer", 1, |s| s.scope("inner", 2, |_| 7));
        assert_eq!(v, 7);
        let r = s.records();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].name, r[0].parent), ("outer", None));
        assert_eq!((r[1].name, r[1].op, r[1].parent), ("inner", 2, Some(0)));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);

        let mut off = Spans::new(false);
        assert_eq!(off.scope("outer", 1, |_| 3), 3);
        off.record("job", 0, Instant::now(), Instant::now());
        assert!(off.records().is_empty());
    }
}
