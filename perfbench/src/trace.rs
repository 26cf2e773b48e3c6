//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans stay in memory while the
//! workload runs; [`Tracer::write_tsv`] writes them once it has ended.
//! A disabled tracer records nothing: every method is one branch, so the
//! untraced run that gives the end-to-end metrics pays nothing for it.
//! An enabled tracer can pause, so that a traced run can leave some of
//! its measured chunks unrecorded (see `Chunks`).
//!
//! Span names are `<layer>.<call>`, where the layer is the first two
//! dot-separated parts (`reputation.pgrid`, `trust.engine`,
//! `market.sim`, ...). Phase spans of the benchmark's own code are named
//! `bench.<phase>`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<u32>);

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    /// Whether spans are recorded now: `on` and not paused.
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            recording: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Whether spans are recorded now.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Pauses or resumes recording; a disabled tracer stays silent.
    /// Spans still open keep their place as parents.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = self.on && recording;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(ROOT)
    }

    /// Opens a span that encloses the spans recorded until its
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end_ns = self.ns(Instant::now());
            self.spans[index as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Records a leaf span timed elsewhere (e.g. on a worker thread)
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.recording {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.parent(),
            };
            self.spans.push(span);
        }
    }

    /// Durations in nanoseconds of every span named `name`, in record
    /// order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of its interval that its child spans cover (children on
    /// parallel workers may overlap, so covered time is the union of
    /// their intervals), summed over the spans of each layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                children[span.parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_len(kids, span.start_ns, span.end_ns);
            let own = span.dur_ns().saturating_sub(covered) as f64 / 1e9;
            *out.entry(layer_of(span.name)).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as tab-separated `index parent name start_ns
    /// end_ns` lines (parent `-` for a root span).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                writeln!(out, "{i}\t-\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}",
                    s.parent, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        Ok(())
    }
}

/// The layer a span name belongs to: its first two dot-separated parts,
/// or `bench` for the benchmark's own phase spans.
pub fn layer_of(name: &'static str) -> &'static str {
    if name.starts_with("bench.") {
        return "bench";
    }
    match name.match_indices('.').nth(1) {
        Some((at, _)) => &name[..at],
        None => name,
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_is_the_first_two_name_parts() {
        assert_eq!(layer_of("reputation.pgrid.query_at"), "reputation.pgrid");
        assert_eq!(layer_of("bench.setup"), "bench");
        assert_eq!(layer_of("netsim"), "netsim");
    }

    #[test]
    fn union_merges_overlapping_children() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60)];
        assert_eq!(union_len(&mut kids, 0, 100), 40);
        let mut clipped = vec![(0, 200)];
        assert_eq!(union_len(&mut clipped, 10, 20), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.enter("bench.setup");
        assert_eq!(t.call("trust.engine.publish", || 7), 7);
        t.exit(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn paused_tracer_records_nothing_until_resumed() {
        let mut t = Tracer::on();
        t.set_recording(false);
        t.call("trust.engine.publish", || ());
        assert!(t.spans().is_empty() && t.is_on());
        t.set_recording(true);
        t.call("trust.engine.publish", || ());
        assert_eq!(t.spans().len(), 1);
        let mut off = Tracer::off();
        off.set_recording(true);
        assert!(!off.is_recording());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let open = t.enter("bench.measure");
        t.call("trust.engine.publish", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(open);
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["trust.engine"] >= 0.004);
        assert!(by_layer["bench"] < by_layer["trust.engine"]);
    }
}
