//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the benchmark's *calls into* each crate's public functions —
//! nothing inside the program is instrumented. They are kept in memory and
//! written to `out/trace-<workload>.json` when the traced pass ends.

use crate::json::{self, Json};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the ambient parent.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    /// Shared identifier of every span of this recorder.
    pub workload: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span list poisoned: a recording thread panicked")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Id of the innermost span open on this thread.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Run `f` inside a span whose parent is the innermost open span of
    /// this thread.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_under(self.current(), name, f)
    }

    /// Run `f` inside a span with an explicit parent — for work a span
    /// hands to another thread.
    pub fn span_under<T>(&self, parent: Option<u32>, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.lock();
            let id = spans.len() as u32;
            let now = self.ns(Instant::now());
            spans.push(Span { id, parent, name: name.to_string(), start_ns: now, end_ns: now });
            id
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let value = f();
        let end = self.ns(Instant::now());
        OPEN.with(|open| open.borrow_mut().pop());
        self.lock()[id as usize].end_ns = end;
        value
    }

    /// Record a span whose interval was measured by the caller (an
    /// open-loop request is timed from its due time, not from the call).
    pub fn record(&self, parent: Option<u32>, name: &str, start: Instant, end: Instant) {
        let mut spans = self.lock();
        let id = spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.lock().iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64
            / 1e9
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let self_ns = self_times_ns(&spans);
        json::obj([
            ("workload", json::string(&self.workload)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .zip(self_ns)
                        .map(|(s, self_ns)| {
                            json::obj([
                                ("id", json::num(f64::from(s.id))),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| json::num(f64::from(p))),
                                ),
                                ("name", json::string(&s.name)),
                                ("workload", json::string(&self.workload)),
                                ("start_ns", json::num(s.start_ns as f64)),
                                ("end_ns", json::num(s.end_ns as f64)),
                                ("self_ns", json::num(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (parallel
/// threads) and are clipped to the parent, so self time is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Cost of recording one empty span, in nanoseconds (median of a few
/// batches) — what the traced pass pays per span on top of the work.
pub fn calibrate_span_cost_ns() -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let rec = Recorder::new("calibration");
            let n = 20_000;
            let t0 = Instant::now();
            for _ in 0..n {
                rec.span("empty", || std::hint::black_box(0u8));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25), // grandchild: only its parent pays for it
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150), // two threads overlapping 130..150
            span(2, Some(0), 130, 170),
            span(3, Some(0), 190, 260), // outlives the parent: clipped at 200
            span(4, Some(0), 20, 90),   // entirely outside: ignored
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn ambient_and_explicit_parents() {
        let rec = Recorder::new("w");
        let seen = rec.span("outer", || {
            let outer = rec.current();
            rec.span("inner", || ());
            std::thread::scope(|s| {
                s.spawn(|| rec.span_under(outer, "worker", || rec.span("worker.child", || ())));
            });
            outer
        });
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(seen, Some(by_name("outer").id));
        assert_eq!(by_name("outer").parent, None);
        assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
        assert_eq!(by_name("worker").parent, Some(by_name("outer").id));
        assert_eq!(by_name("worker.child").parent, Some(by_name("worker").id));
        assert_eq!(rec.current(), None);
        assert!(by_name("outer").end_ns >= by_name("worker").end_ns);
    }
}
