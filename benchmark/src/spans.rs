//! In-memory spans for the traced run: name, start, end, the span that
//! caused it, and the job it belongs to. Spans are written out only when
//! the run ends.

use crate::json::{self, Json};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    /// Layer and operation, e.g. `netlist.hgb_open`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Job this span belongs to.
    pub job: u64,
    /// Counts recorded at the boundary (nodes, passes, cut, …).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The value of attribute `key`.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any thread. Nesting is tracked per thread, so a
/// span's parent is the innermost span still open on the thread that
/// opened it. Use one recorder at a time per thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    job: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            job: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags every span opened from now on with `job`.
    pub fn set_job(&self, job: u64) {
        self.job.store(job, Ordering::Relaxed);
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str) -> usize {
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job: self.job.load(Ordering::Relaxed),
            attrs: Vec::new(),
        });
        let id = spans.len() - 1;
        OPEN.with(|s| s.borrow_mut().push(id));
        id
    }

    /// Closes span `id`, which must be the innermost open span of this
    /// thread, recording `attrs` on it.
    pub fn close(&self, id: usize, attrs: &[(&'static str, f64)]) {
        let end_ns = self.now_ns();
        let popped = OPEN.with(|s| s.borrow_mut().pop());
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = end_ns;
        spans[id].attrs.extend_from_slice(attrs);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, &[]);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
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

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let s = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let e = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((s, e));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_ns() - union_ns(kids))
        .collect()
}

/// The spans as a JSON array, for the trace file.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                json::obj([
                    ("name", json::s(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("job", Json::Num(s.job as f64)),
                    (
                        "attrs",
                        Json::Obj(
                            s.attrs
                                .iter()
                                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // job [0,100) > load [0,10), run [10,90) > improve [20,50), [40,70)
        let spans = vec![
            span("job", 0, 100, None),
            span("load", 0, 10, Some(0)),
            span("run", 10, 90, Some(0)),
            span("improve", 20, 50, Some(2)),
            span("improve", 40, 70, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![10, 10, 30, 30, 30]);
        // Self times partition the root's duration when children nest
        // without overlap.
        let nested = vec![
            span("a", 0, 50, None),
            span("b", 5, 45, Some(0)),
            span("c", 10, 20, Some(1)),
            span("c", 20, 40, Some(1)),
        ];
        assert_eq!(self_ns(&nested).iter().sum::<u64>(), 50);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn recorder_tracks_nesting_and_jobs() {
        let rec = Recorder::default();
        rec.set_job(7);
        let outer = rec.open("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.close(outer, &[("cut", 3.0)]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].job, 7);
        assert_eq!(spans[0].attr("cut"), Some(3.0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
