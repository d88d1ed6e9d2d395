//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out as Chrome trace-event JSON when the run ends.
//!
//! Every span is parented to the epoch span that caused it, and the epoch
//! span carries the epoch's kind. A span's self time is its duration minus
//! the time its direct children cover.

use crate::stats::Kind;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    epoch: Option<u64>,
    kind: Option<Kind>,
    /// Placed from a duration the program reports rather than timed here.
    derived: bool,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed self time (duration minus direct children), milliseconds.
    pub self_ms: f64,
}

/// In-memory span recorder. Disabled, it records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    /// Turns recording on or off from the next span on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens the parent span of everything recorded until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, epoch: Option<u64>, kind: Option<Kind>) {
        if !self.enabled {
            return;
        }
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            name,
            start_us,
            dur_us: 0.0,
            parent: None,
            epoch,
            kind,
            derived: false,
        });
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the span [`Tracer::open`] started.
    pub fn close(&mut self) {
        if let Some(id) = self.open.take() {
            let now = self.micros(Instant::now());
            self.spans[id].dur_us = now - self.spans[id].start_us;
        }
    }

    /// Records a finished child span of the open parent.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_us = self.micros(start);
        let (epoch, kind) = match self.open {
            Some(p) => (self.spans[p].epoch, self.spans[p].kind),
            None => (None, None),
        };
        self.spans.push(Span {
            name,
            start_us,
            dur_us: self.micros(end) - start_us,
            parent: self.open,
            epoch,
            kind,
            derived: false,
        });
    }

    /// Splits the last span called `parent` into children laid end to end
    /// from its start, with durations the program reported (e.g. a seal's
    /// detection and characterization times).
    pub fn derive(&mut self, parent: &'static str, parts: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(at) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let (mut start_us, epoch, kind) = {
            let s = &self.spans[at];
            (s.start_us, s.epoch, s.kind)
        };
        for &(name, dur_ms) in parts {
            let dur_us = dur_ms * 1e3;
            self.spans.push(Span {
                name,
                start_us,
                dur_us,
                parent: Some(at),
                epoch,
                kind,
                derived: true,
            });
            start_us += dur_us;
        }
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_us[p] += s.dur_us;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child_us) in self.spans.iter().zip(children_us) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.dur_us / 1e3;
            t.self_ms += (s.dur_us - child_us).max(0.0) / 1e3;
        }
        out
    }

    /// Renders every span as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{",
                s.name,
                if s.parent.is_some() { "layer" } else { "epoch" },
                s.start_us,
                s.dur_us,
            );
            let mut args = Vec::new();
            if let Some(e) = s.epoch {
                args.push(format!("\"epoch\":{e}"));
            }
            if let Some(k) = s.kind {
                args.push(format!("\"kind\":\"{}\"", k.as_str()));
            }
            if let Some(p) = s.parent {
                args.push(format!("\"parent\":\"{}\"", self.spans[p].name));
            }
            if s.derived {
                args.push("\"derived\":true".to_string());
            }
            out.push_str(&args.join(","));
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.open("epoch", Some(0), Some(Kind::Quiet));
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let b = Instant::now();
        t.span("seal", a, b);
        t.derive("seal", &[("seal.detect", 0.5), ("seal.characterize", 0.5)]);
        t.close();
        let totals = t.totals();
        let seal = totals["seal"];
        assert!((seal.total_ms - seal.self_ms - 1.0).abs() < 1e-6);
        assert!(totals["epoch"].self_ms <= totals["epoch"].total_ms - seal.total_ms + 1e-6);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"kind\":\"quiet\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("epoch", Some(0), None);
        let now = Instant::now();
        t.span("seal", now, now);
        t.close();
        assert!(t.totals().is_empty());
    }
}
