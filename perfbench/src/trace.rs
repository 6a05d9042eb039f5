//! The benchmark's own span recorder.
//!
//! Spans are opened and closed in the benchmark's files, around each call
//! into a layer, never inside the crates. A span carries a name, its
//! start and end, the span that caused it, and an operation id shared by
//! every span of one attack, morph generation or serve request. Spans
//! stay in memory until the run ends; a disabled recorder records
//! nothing, so the untraced run pays one branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `attacks.sat_attack`.
    pub name: &'static str,
    /// Operation id shared by the spans of one operation.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when the recorder is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(None);
}

/// A thread-safe, in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Trace {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(SpanRec {
            name,
            op,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Trace::begin`] now.
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.ns(Instant::now());
            self.spans.lock().expect("span log poisoned")[i].end_ns = end_ns;
        }
    }

    /// Records an already-finished span between two instants (used where
    /// the interval is measured on one thread and recorded on another).
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            let rec = SpanRec {
                name,
                op,
                parent: None,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.lock().expect("span log poisoned").push(rec);
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes the spans as JSON lines, self time included.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn write_jsonl(&self, path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its wall time minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Summed wall time, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Every span's wall time, seconds, in recording order.
    pub durations_s: Vec<f64>,
}

/// Groups spans by name.
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.total_s += s.dur_ns() as f64 * 1e-9;
        e.self_s += self_ns as f64 * 1e-9;
        e.durations_s.push(s.dur_ns() as f64 * 1e-9);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name: "x",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            rec(None, 0, 100),
            rec(Some(0), 10, 30),
            // Overlaps the first child: 25..30 is covered once.
            rec(Some(0), 25, 40),
            rec(Some(0), 60, 70),
            // Grandchild: charged to its parent, not the root.
            rec(Some(3), 62, 64),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 15, 8, 2]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![rec(None, 10, 20), rec(Some(0), 0, 15), rec(Some(0), 18, 40)];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn recorder_nests_and_groups_spans() {
        let t = Trace::new(true);
        let root = t.begin("a.outer", 7, SpanId::ROOT);
        t.within("a.inner", 7, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let g = by_name(&spans);
        let (outer, inner) = (&g["a.outer"], &g["a.inner"]);
        assert!(inner.total_s >= 0.002);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Trace::new(false);
        let id = t.begin("a", 1, SpanId::ROOT);
        t.end(id);
        t.record("b", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
