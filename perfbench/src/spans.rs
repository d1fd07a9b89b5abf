//! In-memory span recorder for the traced run. A span covers one call
//! the benchmark makes into a layer; spans are kept in memory and
//! written out only when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `workload.replay_direct`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job (or set-up pass) the span belongs to.
    pub job: u64,
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Spans {
    /// A recorder that records only if `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Turn recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans that follow with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Close every open span (after a caught panic skipped their exits).
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Write the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut s = Spans::new(true);
        s.spans.push(Span {
            name: "job",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            job: 0,
        });
        s.spans.push(Span {
            name: "a",
            start_ns: 10,
            end_ns: 40,
            parent: Some(0),
            job: 0,
        });
        s.spans.push(Span {
            name: "b",
            start_ns: 50,
            end_ns: 90,
            parent: Some(0),
            job: 0,
        });
        s.spans.push(Span {
            name: "c",
            start_ns: 55,
            end_ns: 60,
            parent: Some(2),
            job: 0,
        });
        assert_eq!(s.self_times_ns(), vec![30, 30, 35, 5]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", || 7), 7);
        assert!(s.spans().is_empty());
    }
}
