//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public entry
//! points — the program itself carries no tracing. Each span keeps its
//! name, start, end, parent and round id; self time is a span's
//! duration minus the union of its children's intervals.
//!
//! The recorder is thread-local and off by default, so the untraced
//! runs pay one branch per wrapped call.

use bytes::Bytes;
use flips_core::fl::{FlError, Transport};
use flips_core::selection::{ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        round: 0,
        counts: BTreeMap::new(),
    });
}

/// Turns recording on or off for this thread, clearing what was kept.
pub fn enable(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.origin = Instant::now();
        r.spans.clear();
        r.stack.clear();
        r.counts.clear();
        r.round = 0;
    });
}

pub fn is_on() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Sets the round id stamped on spans opened from now on.
pub fn set_round(round: usize) {
    REC.with(|r| r.borrow_mut().round = round as u32);
}

fn nanos(r: &Recorder, t: Instant) -> u64 {
    t.saturating_duration_since(r.origin).as_nanos() as u64
}

/// Runs `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !is_on() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start = nanos(&r, Instant::now());
        let idx = r.spans.len();
        let parent = r.stack.last().copied();
        let round = r.round;
        r.spans.push(Span { name, start, end: start, parent, round });
        r.stack.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = nanos(&r, Instant::now());
        r.spans[idx].end = end;
        r.stack.pop();
    });
    out
}

/// Records a finished interval measured elsewhere (a worker thread) as
/// a child of the innermost open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        let (s, e) = (nanos(&r, start), nanos(&r, end));
        let parent = r.stack.last().copied();
        let round = r.round;
        r.spans.push(Span { name, start: s, end: e, parent, round });
    });
}

/// Adds `n` to a named counter.
pub fn count(name: &'static str, n: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.counts.entry(name).or_insert(0) += n;
        }
    });
}

/// Everything recorded on this thread since [`enable`].
pub struct Ledger {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

/// Takes the recorded spans and counters and switches recording off.
pub fn take() -> Ledger {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        Ledger { spans: std::mem::take(&mut r.spans), counts: std::mem::take(&mut r.counts) }
    })
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl Ledger {
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).collect()
    }

    /// Sum of the durations (ns) of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Children of every span, by parent index.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Summed self time (ns) of the spans named `name`: each span's
    /// duration minus the union of its children's intervals.
    pub fn self_time(&self, name: &str) -> f64 {
        let kids = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered = union_len(
                    kids[i].iter().map(|&k| (self.spans[k].start, self.spans[k].end)).collect(),
                );
                s.dur().saturating_sub(covered) as f64
            })
            .sum()
    }

    /// Union (ns) of the intervals of every span named `name`.
    pub fn covered(&self, name: &str) -> f64 {
        union_len(self.spans.iter().filter(|s| s.name == name).map(|s| (s.start, s.end)).collect())
            as f64
    }

    /// Share of the `root` spans' time not covered by any child span.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let total = self.total(root);
        if total == 0.0 {
            return 0.0;
        }
        self.self_time(root) / total
    }

    /// Writes the spans as tab-separated lines: index, name, start ns,
    /// end ns, parent index (-1 for roots), round.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\tround")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.round)?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "#count\t{name}\t{n}")?;
        }
        out.flush()
    }
}

/// Wire-format constants of a transport frame (docs/WIRE.md):
/// `dest u64 ‖ magic u32 ‖ tag u8 ‖ job u64 ‖ ...`.
const TAG_OFFSET: usize = 8 + 4;
const TAG_GLOBAL: u8 = 1;
const TAG_UPDATE: u8 = 2;

fn frame_tag(frame: &[u8]) -> u8 {
    frame.get(TAG_OFFSET).copied().unwrap_or(0)
}

/// Which side of the link a [`Traced`] transport sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Coordinator,
    Party,
}

/// A [`Transport`] that times `send`/`try_recv` and counts frames and
/// bytes by direction. On the party side, the interval between
/// receiving a global model and the pool's next transport call is the
/// party handling that model (decode, local training, encode or tree
/// fold), recorded as an `ml.handle_global` span.
pub struct Traced<T> {
    inner: T,
    side: Side,
    handling: Option<Instant>,
    /// Uplink frames seen, as `(round, job, party, is_update)`, for the
    /// guard replay.
    pub uplink: Vec<(u32, u64, u64, bool)>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, side: Side) -> Self {
        Traced { inner, side, handling: None, uplink: Vec::new() }
    }

    fn end_handling(&mut self) {
        if let Some(start) = self.handling.take() {
            record("ml.handle_global", start, Instant::now());
        }
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        if !is_on() {
            return self.inner.send(frame);
        }
        self.end_handling();
        let tag = frame_tag(frame);
        match self.side {
            Side::Coordinator => {
                count("wire.frames_down", 1);
                count("wire.bytes_down", frame.len() as u64);
            }
            Side::Party => {
                count("wire.frames_up", 1);
                count("wire.bytes_up", frame.len() as u64);
                let round = REC.with(|r| r.borrow().round);
                let job = flips_core::fl::message::frame_job_of(frame).unwrap_or(0);
                let party = flips_core::fl::message::frame_party_of(frame).unwrap_or(u64::MAX);
                self.uplink.push((round, job, party, tag == TAG_UPDATE));
            }
        }
        span("transport.send", || self.inner.send(frame))
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        if !is_on() {
            return self.inner.try_recv();
        }
        self.end_handling();
        let got = span("transport.recv", || self.inner.try_recv())?;
        if let Some(frame) = &got {
            if self.side == Side::Party && frame_tag(frame.as_slice()) == TAG_GLOBAL {
                self.handling = Some(Instant::now());
            }
        }
        Ok(got)
    }
}

/// A selector wrapper timing `select` and `report`.
pub struct TracedSelector(pub Box<dyn ParticipantSelector>);

impl ParticipantSelector for TracedSelector {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select(&mut self, round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        span("selection.select", || self.0.select(round, target))
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        span("selection.report", || self.0.report(feedback))
    }

    fn num_parties(&self) -> usize {
        self.0.num_parties()
    }

    fn set_available(&mut self, party: PartyId, available: bool) {
        self.0.set_available(party, available)
    }
}
