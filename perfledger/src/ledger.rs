//! The traced run's span recorder.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions: name (`layer.what`), start, end, and the span
//! that was open on the same thread when it began. They stay in memory
//! until the run ends. A layer's self time is its spans' time minus the
//! time of their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store plus the run's counters. When built with
/// [`Ledger::off`], spans cost one branch and record nothing.
pub struct Ledger {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<String, f64>>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            on: true,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn off() -> Ledger {
        Ledger {
            on: false,
            ..Ledger::new()
        }
    }

    /// Whether spans and counters are recorded: true for the traced run.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let id = spans.len();
            let parent = OPEN.with(|o| o.borrow().last().copied());
            spans.push(Span {
                id,
                parent,
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let _close = Close { led: self, id };
        f()
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&self, name: &str, v: f64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("count store poisoned")
                .entry(name.to_owned())
                .or_insert(0.0) += v;
        }
    }

    /// Raises the counter `name` to at least `v`.
    pub fn max(&self, name: &str, v: f64) {
        if self.on {
            let mut counts = self.counts.lock().expect("count store poisoned");
            let e = counts.entry(name.to_owned()).or_insert(v);
            *e = e.max(v);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.counts.lock().expect("count store poisoned").clone()
    }
}

/// Closes a span when dropped, so one whose call panics (an op failure
/// the caller catches) still ends and leaves the thread's nesting intact.
struct Close<'a> {
    led: &'a Ledger,
    id: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.led.now_ns();
        if let Ok(mut spans) = self.led.spans.lock() {
            spans[self.id].end_ns = end_ns;
        }
    }
}

/// Self time in seconds of each span, in span order: its duration minus
/// its children's (children on one thread never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64 / 1e9)
        .collect()
}

/// Share of `[0, wall_ns]` covered by the union of root spans.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    roots.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in roots {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    if wall_ns == 0 {
        0.0
    } else {
        covered as f64 / wall_ns as f64
    }
}

/// The spans as JSON lines, tagged with the run id.
pub fn to_jsonl(spans: &[Span], run: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"run\":\"{run}\",\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.name.split('.').next().unwrap_or(""),
            s.name,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_and_cover_wall() {
        let led = Ledger::new();
        led.span("a.outer", || {
            led.span("b.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = led.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(&spans);
        let outer = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        assert!(st[1] >= 0.005 && (st[0] + st[1] - outer).abs() < 1e-9);
        let wall = spans[0].end_ns;
        assert!(coverage(&spans, wall) > 0.5);
    }

    #[test]
    fn a_panicking_call_still_closes_its_span() {
        let led = Ledger::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            led.span("a.boom", || panic!("op failed"))
        }));
        assert!(caught.is_err());
        led.span("a.after", || ());
        let spans = led.spans();
        assert_eq!(spans[1].parent, None);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn off_ledger_records_nothing() {
        let led = Ledger::off();
        assert_eq!(led.span("a.x", || 7), 7);
        led.add("a.n", 1.0);
        assert!(led.spans().is_empty() && led.counts().is_empty());
    }
}
