//! In-memory spans around the calls the benchmark makes into each layer,
//! and the self-time accounting built from them.
//!
//! A span is `(name, start, end, parent, job)`. Spans are kept in memory
//! while a traced pass runs and written out as JSONL when it ends. A
//! span's *self time* is its duration minus the part of that interval
//! its children cover (the union of their intervals, clipped to the
//! parent), so self times of one tree partition the root's duration.
//!
//! The untraced passes use [`Tracer::off`], whose `begin`/`end` do not
//! read the clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `scene.compile`; roots are named `bench.*`.
    pub name: &'static str,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Job, experiment or run the call served.
    pub job: u64,
}

/// Records spans on one thread; nesting follows `begin`/`end` order.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; tracers that share `epoch` can be merged.
    pub fn on(epoch: Instant) -> Self {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    /// An empty tracer for another thread, recording (or not) against
    /// the same epoch, so its spans can later be [`Tracer::absorb`]ed.
    pub fn fork(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            ..Tracer::off()
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| {
            u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            job,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, job);
        let out = f();
        self.end(open);
        out
    }

    /// Append another tracer's spans (recorded on another thread against
    /// the same epoch) as separate trees.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSONL, one object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Layer name under which a root's own (uncovered) time is reported.
pub const UNATTRIBUTED: &str = "bench.unattributed";

/// Self nanoseconds per layer. Built from span trees and refined by
/// moving time from a span's layer to finer layers the program's own
/// profiler measured inside it, so the total never changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    layers: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Sum the self times of every span in `spans` by name. A root's own
    /// time is reported as [`UNATTRIBUTED`].
    pub fn from_spans(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut b = Breakdown::default();
        for (s, ns) in spans.iter().zip(selfs) {
            let layer = if s.parent.is_none() {
                UNATTRIBUTED
            } else {
                s.name
            };
            *b.layers.entry(layer).or_default() += ns;
        }
        b
    }

    /// Move up to `ns` from layer `from` to layer `to`, never more than
    /// `from` holds; returns what was moved.
    pub fn carve(&mut self, from: &'static str, to: &'static str, ns: u64) -> u64 {
        let have = self.layers.get(from).copied().unwrap_or(0);
        let moved = ns.min(have);
        if moved > 0 {
            *self.layers.entry(from).or_default() -= moved;
            *self.layers.entry(to).or_default() += moved;
        }
        moved
    }

    /// Nanoseconds attributed to `layer`.
    pub fn get(&self, layer: &str) -> u64 {
        self.layers.get(layer).copied().unwrap_or(0)
    }

    /// Total nanoseconds over all layers (the traced wall time).
    pub fn total(&self) -> u64 {
        self.layers.values().sum()
    }

    /// Layers in descending order of self time.
    pub fn ranked(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.layers.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),  // overlaps a: union is 10..50
            span("c", Some(0), 90, 120), // clipped to the parent's end
            span("d", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 25, 20, 30, 5]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = vec![
            span("bench.root", None, 0, 1000),
            span("x", Some(0), 0, 400),
            span("y", Some(1), 100, 300),
            span("z", Some(0), 500, 1000),
            span("w", Some(3), 600, 700),
        ];
        let b = Breakdown::from_spans(&spans);
        assert_eq!(b.total(), 1000);
        assert_eq!(b.get(UNATTRIBUTED), 100);
        assert_eq!(b.get("x"), 200);
        assert_eq!(b.get("z"), 400);
    }

    #[test]
    fn carve_moves_time_without_changing_the_total() {
        let spans = vec![
            span("bench.root", None, 0, 100),
            span("sim.run", Some(0), 0, 80),
        ];
        let mut b = Breakdown::from_spans(&spans);
        assert_eq!(b.carve("sim.run", "sim.calendar.pop", 30), 30);
        assert_eq!(b.carve("sim.run", "atm.switch", 500), 50, "clipped");
        assert_eq!(b.total(), 100);
        assert_eq!(b.get("sim.run"), 0);
        assert_eq!(b.ranked()[0], ("atm.switch", 50));
    }

    #[test]
    fn tracer_nests_and_merges_threads() {
        let epoch = Instant::now();
        let mut t = Tracer::on(epoch);
        let root = t.begin("bench.root", 0);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.end(root);
        let mut other = Tracer::on(epoch);
        let r2 = other.begin("bench.other", 0);
        other.span("leaf", 1, || ());
        other.end(r2);
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].job), (Some(0), 7));
        assert_eq!((s[2].parent, s[3].parent), (None, Some(2)));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let roots = (s[0].end_ns - s[0].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(Breakdown::from_spans(s).total(), roots);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let o = t.begin("bench.root", 0);
        t.end(o);
        assert!(t.spans().is_empty());
    }
}
