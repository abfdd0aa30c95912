//! The crash flight recorder: a bounded, lossy, always-on ring of
//! lifecycle events, dumped to a post-mortem file when something dies.
//!
//! The journal is lossless and opt-in; the flight recorder is the
//! opposite trade: it records *always* (even with tracing off), holds
//! only the last [`FLIGHT_CAPACITY`] events per shard (overwrite-oldest),
//! and its records are fixed-size — no allocation on the record path, so
//! it is safe on serving hot paths. When a worker panics, a rank dies,
//! or an error escapes `cuts serve`, [`postmortem`] writes the rings to
//! a JSON file so the first production failure is debuggable without a
//! re-run under `--trace-out`.
//!
//! Nothing records here directly: [`crate::Trace::instant_with`] is the
//! one emission call, and it feeds the process-wide ring ([`global`])
//! for every lifecycle [`EventKind`] (see [`EventKind::is_lifecycle`]),
//! whether or not the trace is enabled. A record keeps the event's
//! kind, static name, rank, lane and its first [`FLIGHT_ARGS`] `U64`
//! arguments; a dump reads back as the journal's own [`Event`] type.
//!
//! Shards are keyed by the recording thread's [`lane`], so the dump
//! preserves per-lane program order and a reader can ask "what were the
//! last events on the lane/rank that failed".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::{Arg, Event, EventKind};
use crate::journal::lane;
use crate::json::{Json, SchemaError, ToJson};

/// Ring shards (threads map in by `lane() % FLIGHT_SHARDS`).
pub const FLIGHT_SHARDS: usize = 16;

/// Events retained per shard before overwrite-oldest kicks in.
pub const FLIGHT_CAPACITY: usize = 512;

/// `U64` arguments a ring record keeps, first ones first; further and
/// non-integer arguments reach the journal only.
pub const FLIGHT_ARGS: usize = 4;

/// One fixed-size ring entry: an instant [`Event`] without its heap
/// parts.
#[derive(Clone, Copy)]
struct Record {
    seq: u64,
    ts_us: u64,
    kind: EventKind,
    name: &'static str,
    rank: Option<u32>,
    lane: u32,
    args: [(&'static str, u64); FLIGHT_ARGS],
    nargs: usize,
}

impl Record {
    fn to_event(self) -> Event {
        Event {
            seq: self.seq,
            ts_us: self.ts_us,
            dur_us: None,
            kind: self.kind,
            name: self.name.to_string(),
            rank: self.rank,
            lane: self.lane,
            args: self.args[..self.nargs]
                .iter()
                .map(|&(k, v)| (k, Arg::U64(v)))
                .collect(),
            counters: None,
        }
    }
}

struct Ring {
    buf: Vec<Record>,
    next: usize,
    total: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, e: Record) {
        self.total += 1;
        if self.buf.len() < FLIGHT_CAPACITY {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
        }
        self.next = (self.next + 1) % FLIGHT_CAPACITY;
    }
}

/// The recorder: [`FLIGHT_SHARDS`] overwrite-oldest rings. Usually used
/// through the process-wide instance ([`global`]) so the dump on a
/// failure path sees events from every subsystem.
pub struct FlightRecorder {
    shards: Vec<Mutex<Ring>>,
    epoch: Instant,
    seq: AtomicU64,
    enabled: AtomicBool,
}

impl FlightRecorder {
    /// A fresh, enabled recorder. Crate-private: outside this crate the
    /// one recorder is [`global`].
    pub(crate) fn new() -> Self {
        FlightRecorder {
            shards: (0..FLIGHT_SHARDS)
                .map(|_| Mutex::new(Ring::new()))
                .collect(),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns recording on or off (a single atomic flag; the disabled
    /// record path is one relaxed load).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an instant on the calling thread's shard, keeping its
    /// first [`FLIGHT_ARGS`] `U64` arguments. Fixed-size write, no
    /// allocation once the ring is warm. Crate-private: instants arrive
    /// through [`crate::Trace::instant_with`] only.
    #[inline]
    pub(crate) fn record(
        &self,
        kind: EventKind,
        name: &'static str,
        rank: Option<u32>,
        args: &[(&'static str, Arg)],
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut words = [("", 0u64); FLIGHT_ARGS];
        let mut nargs = 0;
        for (key, arg) in args {
            if let (Arg::U64(v), Some(slot)) = (arg, words.get_mut(nargs)) {
                *slot = (*key, *v);
                nargs += 1;
            }
        }
        let lane = lane();
        let e = Record {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            name,
            rank,
            lane,
            args: words,
            nargs,
        };
        self.shards[lane as usize % FLIGHT_SHARDS]
            .lock()
            .unwrap()
            .push(e);
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// rings have since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().total).sum()
    }

    /// Copies out every retained event, ordered by `seq`.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut all: Vec<Record> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap().buf.clone())
            .collect();
        all.sort_by_key(|e| e.seq);
        all.into_iter().map(Record::to_event).collect()
    }

    /// The dump document: reason, retention stats, and the retained
    /// events in record order.
    pub fn dump_json(&self, reason: &str) -> Json {
        let events = self.snapshot();
        Json::obj([
            ("flight_recorder", Json::U64(1)),
            ("reason", Json::Str(reason.to_string())),
            (
                "dumped_ts_us",
                Json::U64(self.epoch.elapsed().as_micros() as u64),
            ),
            ("capacity_per_shard", Json::U64(FLIGHT_CAPACITY as u64)),
            ("shards", Json::U64(FLIGHT_SHARDS as u64)),
            ("total_recorded", Json::U64(self.total_recorded())),
            ("retained", Json::U64(events.len() as u64)),
            (
                "events",
                Json::Arr(events.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Writes [`FlightRecorder::dump_json`] to `path`.
    pub fn dump_to_file(&self, path: &std::path::Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json(reason).render())
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide recorder every lifecycle instant reaches (created
/// enabled on first use).
pub fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::new)
}

/// Turns the process-wide recorder on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Dumps the process-wide recorder to a post-mortem file and returns
/// its path. The directory is `$CUTS_FLIGHT_DIR` when set, else the OS
/// temp dir; the file name carries the pid, a per-process sequence
/// number, and `reason`. Returns `None` if the write fails (a crash
/// path must not raise a second error).
pub fn postmortem(reason: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("CUTS_FLIGHT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let safe: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!(
        "cuts-postmortem-{}-{}-{}.json",
        std::process::id(),
        DUMP_SEQ.fetch_add(1, Ordering::Relaxed),
        safe
    ));
    global().dump_to_file(&path, reason).ok()?;
    Some(path)
}

/// Distinct argument keys [`parse_dump`] interns over a process's
/// lifetime. The program records a few dozen keys; the cap bounds what
/// a crafted dump can make the parser leak.
const MAX_KEYS: usize = 256;

/// Longest argument key [`parse_dump`] accepts, in bytes.
const MAX_KEY_LEN: usize = 64;

/// The `&'static` form of a parsed argument key. Each distinct key is
/// leaked once per process; `None` once a key is longer than
/// [`MAX_KEY_LEN`] or [`MAX_KEYS`] keys are interned.
fn intern(key: &str) -> Option<&'static str> {
    static KEYS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    if key.len() > MAX_KEY_LEN {
        return None;
    }
    let mut keys = KEYS.lock().unwrap();
    if let Some(k) = keys.iter().find(|k| **k == key) {
        return Some(k);
    }
    if keys.len() == MAX_KEYS {
        return None;
    }
    let k: &'static str = Box::leak(Box::<str>::from(key));
    keys.push(k);
    Some(k)
}

/// Parses one dumped event (the [`Event`] JSON shape, `U64` args only).
fn parse_event(i: usize, e: &Json) -> Result<Event, SchemaError> {
    let err = |what: &str| SchemaError::new(format!("event {i}: {what}"));
    let field = |k: &str| {
        e.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| err(&format!("missing {k}")))
    };
    let kind_name = e
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing kind"))?;
    let kind =
        EventKind::parse(kind_name).ok_or_else(|| err(&format!("unknown kind '{kind_name}'")))?;
    let name = e
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing name"))?;
    let mut args = Vec::new();
    if let Some(raw) = e.get("args") {
        let Json::Obj(pairs) = raw else {
            return Err(err("args is not an object"));
        };
        if pairs.len() > FLIGHT_ARGS {
            return Err(err(&format!("more than {FLIGHT_ARGS} args")));
        }
        for (k, v) in pairs {
            let key = intern(k).ok_or_else(|| err("arg key too long or too many distinct keys"))?;
            let v = v
                .as_u64()
                .ok_or_else(|| err(&format!("arg '{key}' is not a u64")))?;
            args.push((key, Arg::U64(v)));
        }
    }
    Ok(Event {
        seq: field("seq")?,
        ts_us: field("ts_us")?,
        dur_us: None,
        kind,
        name: name.to_string(),
        rank: e.get("rank").and_then(Json::as_u64).map(|r| r as u32),
        lane: field("lane")? as u32,
        args,
        counters: None,
    })
}

/// Parses a dump file produced by [`FlightRecorder::dump_to_file`] /
/// [`postmortem`]: returns the reason and the retained events.
pub fn parse_dump(text: &str) -> Result<(String, Vec<Event>), SchemaError> {
    let doc = Json::parse(text)?;
    if doc.get("flight_recorder").and_then(Json::as_u64) != Some(1) {
        return Err(SchemaError::new("not a flight-recorder dump"));
    }
    let reason = doc
        .get("reason")
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError::new("missing reason"))?
        .to_string();
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| SchemaError::new("missing events array"))?
        .iter()
        .enumerate()
        .map(|(i, e)| parse_event(i, e))
        .collect::<Result<Vec<_>, _>>()?;
    let declared = doc.get("retained").and_then(Json::as_u64);
    if declared.is_some_and(|n| n != events.len() as u64) {
        return Err(SchemaError::new("retained count mismatch"));
    }
    Ok((reason, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(r: &FlightRecorder, i: u64) {
        r.record(EventKind::Heartbeat, "beat", None, &[("i", Arg::U64(i))]);
    }

    fn arg(e: &Event, key: &str) -> u64 {
        match e.arg(key) {
            Some(Arg::U64(v)) => *v,
            other => panic!("arg {key}: {other:?}"),
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new();
        let n = (FLIGHT_CAPACITY + 100) as u64;
        for i in 0..n {
            beat(&r, i);
        }
        // Single thread → single shard: exactly FLIGHT_CAPACITY retained,
        // and they are the newest FLIGHT_CAPACITY records.
        let events = r.snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total_recorded(), n);
        assert_eq!(arg(&events[0], "i"), n - FLIGHT_CAPACITY as u64);
        assert_eq!(arg(events.last().unwrap(), "i"), n - 1);
        // seq order is record order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        beat(&r, 1);
        assert_eq!(r.total_recorded(), 0);
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        beat(&r, 1);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn dump_roundtrip() {
        let r = FlightRecorder::new();
        r.record(EventKind::Job, "submit", None, &[("job", Arg::U64(7))]);
        // Only the first FLIGHT_ARGS `U64` args are kept.
        r.record(
            EventKind::Job,
            "fail",
            Some(2),
            &[
                ("job", Arg::U64(7)),
                ("note", Arg::Str("journal only".into())),
                ("queue_us", Arg::U64(1)),
                ("exec_us", Arg::U64(2)),
                ("deadline_missed", Arg::U64(0)),
                ("dropped", Arg::U64(9)),
            ],
        );
        let text = r.dump_json("test-crash").render();
        let (reason, events) = parse_dump(&text).expect("dump parses");
        assert_eq!(reason, "test-crash");
        assert_eq!(events.len(), 2);
        let fail = &events[1];
        assert_eq!((fail.kind, fail.name.as_str()), (EventKind::Job, "fail"));
        assert_eq!(fail.rank, Some(2));
        assert_eq!(fail.dur_us, None);
        let keys: Vec<_> = fail.args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["job", "queue_us", "exec_us", "deadline_missed"]);
        assert_eq!(arg(fail, "job"), 7);
    }

    #[test]
    fn parse_rejects_non_dumps() {
        assert!(parse_dump("{}").is_err());
        assert!(parse_dump("not json").is_err());
        let dump = |event: Json| {
            Json::obj([
                ("flight_recorder", Json::U64(1)),
                ("reason", Json::Str("x".into())),
                ("events", Json::Arr(vec![event])),
            ])
            .render()
        };
        let event = |kind: &str, args: Json| {
            Json::obj([
                ("seq", Json::U64(0)),
                ("ts_us", Json::U64(0)),
                ("kind", Json::Str(kind.into())),
                ("name", Json::Str("n".into())),
                ("lane", Json::U64(0)),
                ("args", args),
            ])
        };
        let ok = Json::obj([("k", Json::U64(1))]);
        assert!(parse_dump(&dump(event("job", ok.clone()))).is_ok());
        assert!(parse_dump(&dump(event("bogus", ok)))
            .unwrap_err()
            .message()
            .contains("unknown kind"));
        let text_arg = Json::obj([("k", Json::Str("v".into()))]);
        assert!(parse_dump(&dump(event("job", text_arg))).is_err());
        // A record holds at most FLIGHT_ARGS args and short keys; a dump
        // claiming more is not one the recorder wrote.
        let keys = ["a", "b", "c", "d", "e"];
        let five = Json::obj(keys.map(|k| (k, Json::U64(1))));
        assert!(parse_dump(&dump(event("job", five)))
            .unwrap_err()
            .message()
            .contains("more than 4 args"));
        let long_key = "k".repeat(MAX_KEY_LEN + 1);
        let long = Json::Obj(vec![(long_key, Json::U64(1))]);
        assert!(parse_dump(&dump(event("job", long)))
            .unwrap_err()
            .message()
            .contains("key too long"));
    }

    #[test]
    fn postmortem_writes_parseable_file() {
        crate::Trace::disabled().instant(EventKind::Heartbeat, "beat");
        let path = postmortem("unit-test").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        let (reason, events) = parse_dump(&text).expect("file parses");
        assert_eq!(reason, "unit-test");
        assert!(events.iter().any(|e| e.kind == EventKind::Heartbeat));
        let _ = std::fs::remove_file(path);
    }
}
