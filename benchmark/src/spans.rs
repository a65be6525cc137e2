//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files around each call into a
//! workspace layer: name, optional tag (`p4096`, a registry id, a figure
//! stem), start, end, parent, the op they belong to and the pass index.
//! Nothing goes through `dls_obs`, so the program's own metric registry and
//! trace buffers stay exactly as the workload left them.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names the benchmark uses for its own structure (not a layer): their
/// self time is the pass time no layer span covers.
const STRUCTURAL: [&str; 2] = ["bench.pass", "bench.op"];

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub pass: usize,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<usize>);

/// In-memory recorder; a no-op (no clock reads) when built with `on = false`.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    pass: usize,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new pass: later spans carry its index.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Starts a new op: later spans carry its id.
    pub fn new_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str, tag: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag: tag.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            pass: self.pass,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Records `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, tag: &str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, tag);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Per-pass sums of the durations of spans named `name` with tag `tag`,
    /// one entry per pass that has at least one such span.
    pub fn per_pass_sums(&self, name: &str, tag: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<usize, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name && s.tag == tag) {
            *sums.entry(s.pass).or_default() += s.dur_s();
        }
        sums.into_values().collect()
    }

    /// Durations of every span named `name` with tag `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(Span::dur_s)
            .collect()
    }

    /// Share of pass time covered by no layer span: the self time of the
    /// structural spans over the total pass time.
    pub fn unattributed_frac(&self) -> f64 {
        let self_ns = self.self_ns();
        let mut total = 0u64;
        let mut gaps = 0u64;
        for (s, own) in self.spans.iter().zip(&self_ns) {
            if s.name == "bench.pass" {
                total += s.end_ns - s.start_ns;
            }
            if STRUCTURAL.contains(&s.name) {
                gaps += own;
            }
        }
        if total == 0 {
            0.0
        } else {
            gaps as f64 / total as f64
        }
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{},\"pass\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, own, parent, s.op, s.pass
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_gaps_are_unattributed() {
        let mut rec = Recorder::new(true);
        let pass = rec.enter("bench.pass", "");
        rec.time("lp.lower", "p1", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        rec.exit(pass);
        let own = rec.self_ns();
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(own[0] < spans[0].end_ns - spans[0].start_ns);
        let frac = rec.unattributed_frac();
        assert!(frac > 0.0 && frac < 0.6, "{frac}");
        assert_eq!(rec.per_pass_sums("lp.lower", "p1").len(), 1);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("bench.pass", "");
        assert_eq!(rec.time("x", "", || 3), 3);
        rec.exit(open);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.unattributed_frac(), 0.0);
    }
}
