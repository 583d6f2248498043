//! In-memory span recording for the traced run, and self-time derivation.
//!
//! A span is one timed call into a layer: a name, start and end relative
//! to the log's epoch, the span that caused it, the run or request it
//! belongs to, and the worker thread that made it. Spans stay in memory
//! until the benchmark writes them out at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `pileup`, `decode`, `exact`.
    pub name: &'static str,
    /// Start, relative to the log epoch.
    pub start: Duration,
    /// End, relative to the log epoch.
    pub end: Duration,
    /// Index of the causing span in the same log.
    pub parent: Option<usize>,
    /// Run (batch) or request (serve) id shared by related spans.
    pub run: u64,
    /// Worker thread that recorded the span.
    pub thread: usize,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span log with a fixed epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose span times are measured from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its index, for use as a later parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u64,
        thread: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            run,
            thread,
        });
        self.spans.len() - 1
    }

    /// Set the end of an already recorded span (a parent is recorded
    /// before its children, so its index exists when they name it).
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end = end.saturating_duration_since(self.epoch);
    }

    /// Move every span of `other` into this log, keeping parent links
    /// intact and re-expressing its times against this log's epoch.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        let (ahead, behind) = if other.epoch >= self.epoch {
            (other.epoch - self.epoch, Duration::ZERO)
        } else {
            (Duration::ZERO, self.epoch - other.epoch)
        };
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start = (s.start + ahead).saturating_sub(behind);
            s.end = (s.end + ahead).saturating_sub(behind);
            s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated text, one per line, times in
    /// nanoseconds from the epoch.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\trun\tthread\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.run,
                s.thread,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover (overlapping children count once,
/// and a child's time outside its parent is not subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|&p| p < spans.len() && p != i) {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(Duration, Duration)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort();
        let mut union = Duration::ZERO;
        let mut cursor = s.start;
        for (a, b) in covered {
            let a = a.max(cursor);
            if b > a {
                union += b - a;
                cursor = b;
            }
        }
        *out.entry(s.name).or_default() += s.duration().saturating_sub(union);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn log_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        for &(name, a, b, parent) in spans {
            log.record(name, epoch + ms(a), epoch + ms(b), parent, 1, 0);
        }
        log
    }

    #[test]
    fn self_time_subtracts_children() {
        // pileup [0,10) ⊃ decode [0,4) ⊃ read [0,1)
        let log = log_with(&[
            ("pileup", 0, 10, None),
            ("decode", 0, 4, Some(0)),
            ("read", 0, 1, Some(1)),
        ]);
        let t = self_times(log.spans());
        assert_eq!(t["pileup"], ms(6));
        assert_eq!(t["decode"], ms(3));
        assert_eq!(t["read"], ms(1));
        // Self times partition the root's interval.
        assert_eq!(t.values().sum::<Duration>(), ms(10));
    }

    #[test]
    fn overlapping_children_count_once() {
        let log = log_with(&[
            ("chunk", 0, 10, None),
            ("a", 1, 5, Some(0)),
            ("b", 3, 7, Some(0)),
        ]);
        let t = self_times(log.spans());
        // Children cover [1,7) → 6 ms; the parent keeps 4 ms.
        assert_eq!(t["chunk"], ms(4));
    }

    #[test]
    fn children_outside_parent_are_clipped() {
        let log = log_with(&[("p", 2, 6, None), ("c", 0, 4, Some(0))]);
        let t = self_times(log.spans());
        assert_eq!(t["p"], ms(2));
        assert_eq!(t["c"], ms(4));
    }

    #[test]
    fn same_names_accumulate() {
        let log = log_with(&[
            ("exact", 0, 2, None),
            ("exact", 5, 8, None),
            ("screen", 2, 3, None),
        ]);
        let t = self_times(log.spans());
        assert_eq!(t["exact"], ms(5));
        assert_eq!(t["screen"], ms(1));
    }

    #[test]
    fn append_remaps_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.record("x", epoch, epoch + ms(1), None, 1, 0);
        let mut b = SpanLog::new(epoch);
        let p = b.record("chunk", epoch, epoch + ms(5), None, 2, 1);
        b.record("pileup", epoch, epoch + ms(3), Some(p), 2, 1);
        a.append(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let t = self_times(a.spans());
        assert_eq!(t["chunk"], ms(2));
        assert_eq!(t["pileup"], ms(3));
    }

    #[test]
    fn append_rebases_a_later_epoch() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let mut b = SpanLog::new(epoch + ms(10));
        b.record("x", epoch + ms(12), epoch + ms(15), None, 1, 0);
        a.append(b);
        assert_eq!((a.spans()[0].start, a.spans()[0].end), (ms(12), ms(15)));
        let mut c = SpanLog::new(epoch + ms(20));
        c.append(a);
        assert_eq!(c.spans()[0].start, Duration::ZERO);
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let log = log_with(&[("p", 0, 1, None), ("c", 0, 1, Some(0))]);
        let mut out = Vec::new();
        log.write_tsv(&mut out).expect("test input is valid");
        let text = String::from_utf8(out).expect("test input is valid");
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .expect("test input is valid")
            .starts_with("1\t0\t1\t0\tc\t"));
    }
}
