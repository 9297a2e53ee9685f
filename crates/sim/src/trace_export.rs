//! Chrome-trace / Perfetto JSON exporter for the probe layer.
//!
//! [`ChromeTraceProbe`] buffers every event a run emits and, at
//! [`Probe::finish`], writes a `{"traceEvents": [...]}` JSON file that
//! loads directly in <https://ui.perfetto.dev> or `chrome://tracing`.
//! Simulated cycles are written as microseconds 1:1, so the viewer's
//! time axis reads in cycles.
//!
//! Mapping: each SM becomes a trace *process* (pid = SM + 1) with one
//! *thread* per warp; the shared page-walk system, DRAM, and the UVM
//! driver get pseudo-processes (pids 9001-9003) named via `process_name`
//! metadata events. Every span — request-lifecycle phases, warp windows
//! such as `fast_path`, component windows — is a complete (`"X"`) event
//! written when it closes; there are no begin/end (`"B"`/`"E"`) pairs.
//! Faults and verdicts are instants (`"i"`), and occupancy samples are
//! counter (`"C"`) tracks.
//!
//! The file is written atomically (unique temp file in the destination
//! directory, then rename), so a path shared by parallel grid cells
//! always holds one complete, loadable trace — last finisher wins.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::Cycle;
use crate::probe::{Probe, SpanPoint, Track};

/// Buffered events beyond this are dropped (and counted) rather than
/// exhausting memory on a full-scale run with sampling disabled.
const MAX_EVENTS: usize = 4_000_000;

/// Distinguishes temp files when parallel cells target one directory.
static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, Clone, Copy)]
enum Kind {
    Complete { dur: u64, arg: u64 },
    Mark { arg: u64 },
    Counter { value: u64 },
}

#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    name: &'static str,
    cat: &'static str,
    ts: Cycle,
    pid: u32,
    tid: u32,
    kind: Kind,
}

/// A [`Probe`] sink that renders the run as Chrome-trace JSON.
#[derive(Debug)]
pub struct ChromeTraceProbe {
    path: PathBuf,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl ChromeTraceProbe {
    /// Create an exporter that will write `path` when the run finishes.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ChromeTraceProbe { path: path.into(), events: Vec::with_capacity(4096), dropped: 0 }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    fn category(point: SpanPoint) -> &'static str {
        match point {
            SpanPoint::Phase(_) => "phase",
            SpanPoint::FastPath => "warp",
            _ => "component",
        }
    }

    fn pid_name(pid: u32) -> String {
        match pid {
            Track::WALKERS_PID => "Page walkers".to_string(),
            Track::UVM_PID => "UVM driver".to_string(),
            p => format!("SM {}", p.saturating_sub(1)),
        }
    }

    /// Render the buffered events as a Chrome-trace JSON document.
    fn render(&mut self, end: Cycle) -> String {
        // Stable sort: events that share a timestamp keep emission order.
        self.events.sort_by_key(|e| e.ts);

        let mut pids: Vec<u32> = self.events.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();

        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for pid in &pids {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                Self::pid_name(*pid)
            ));
        }
        for ev in &self.events {
            sep(&mut out);
            let head = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                ev.name, ev.cat, ev.pid, ev.tid, ev.ts
            );
            out.push_str(&head);
            match ev.kind {
                Kind::Complete { dur, arg } => out
                    .push_str(&format!(",\"ph\":\"X\",\"dur\":{dur},\"args\":{{\"v\":{arg}}}}}")),
                Kind::Mark { arg } => out
                    .push_str(&format!(",\"ph\":\"i\",\"s\":\"t\",\"args\":{{\"v\":{arg}}}}}")),
                Kind::Counter { value } => {
                    out.push_str(&format!(",\"ph\":\"C\",\"args\":{{\"value\":{value}}}}}"))
                }
            }
        }
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"run_end\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{end}}}"
        ));
        out.push_str("\n]}\n");
        out
    }

    /// Write `contents` to `self.path` atomically: unique temp file in
    /// the same directory, then rename over the destination.
    fn write_atomic(&self, contents: &str) {
        let nonce = TEMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let mut tmp = self.path.clone();
        let mut name = tmp.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(format!(".tmp.{}.{nonce}", std::process::id()));
        tmp.set_file_name(name);
        let write = || -> std::io::Result<()> {
            let file = fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::new(file);
            w.write_all(contents.as_bytes())?;
            w.flush()?;
            drop(w);
            fs::rename(&tmp, &self.path)
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp);
            eprintln!("avatar-sim: failed to write trace {}: {e}", self.path.display());
        }
    }
}

impl Probe for ChromeTraceProbe {
    fn span(&mut self, point: SpanPoint, track: Track, start: Cycle, end: Cycle, arg: u64) {
        self.push(TraceEvent {
            name: point.label(),
            cat: Self::category(point),
            ts: start,
            pid: track.pid,
            tid: track.tid,
            kind: Kind::Complete { dur: end.saturating_sub(start), arg },
        });
    }

    fn instant(&mut self, point: SpanPoint, track: Track, at: Cycle, arg: u64) {
        self.push(TraceEvent {
            name: point.label(),
            cat: Self::category(point),
            ts: at,
            pid: track.pid,
            tid: track.tid,
            kind: Kind::Mark { arg },
        });
    }

    fn counter(&mut self, name: &'static str, track: Track, at: Cycle, value: u64) {
        self.push(TraceEvent {
            name,
            cat: "counter",
            ts: at,
            pid: track.pid,
            tid: track.tid,
            kind: Kind::Counter { value },
        });
    }

    fn finish(&mut self, end: Cycle) {
        if self.dropped > 0 {
            eprintln!(
                "avatar-sim: trace {} dropped {} events past the {MAX_EVENTS}-event cap \
                 (raise AVATAR_TRACE_SAMPLE to thin request spans)",
                self.path.display(),
                self.dropped
            );
        }
        let doc = self.render(end);
        self.write_atomic(&doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Phase;

    fn demo_probe() -> ChromeTraceProbe {
        let mut p = ChromeTraceProbe::new("/dev/null");
        p.span(SpanPoint::Phase(Phase::Tlb), Track::sm_warp(0, 3), 10, 14, 7);
        p.span(SpanPoint::Phase(Phase::Walk), Track::sm_warp(0, 3), 14, 200, 7);
        p.span(SpanPoint::FastPath, Track::sm_warp(1, 0), 5, 9, 2);
        p.instant(SpanPoint::UvmFault, Track::uvm(0), 50, 42);
        p.counter("resident_pages", Track::uvm(0), 50, 128);
        p.span(SpanPoint::WalkService, Track::walker(2), 20, 120, 1);
        p
    }

    #[test]
    fn render_is_sorted_valid_json_shape() {
        let doc = demo_probe().render(300);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("]}"));
        // Balanced braces and brackets (no string payloads can skew it:
        // all names are static identifiers).
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in rendered trace");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // Timestamps are non-decreasing in the events array.
        let ts: Vec<u64> = doc
            .lines()
            .filter_map(|l| l.split("\"ts\":").nth(1))
            .map(|t| {
                t.chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().expect("ts field is numeric")
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events not time-sorted: {ts:?}");
        // Metadata names every pid we emitted on.
        for name in ["SM 0", "SM 1", "Page walkers", "UVM driver"] {
            assert!(doc.contains(name), "missing process_name {name}");
        }
        assert!(doc.contains("\"ph\":\"X\""));
        // The fast-path window is one complete span; no begin/end events.
        let fast_path = "\"fast_path\",\"cat\":\"warp\",\"pid\":2,\"tid\":0,\"ts\":5,\"ph\":\"X\"";
        assert!(doc.contains(fast_path));
        assert!(!doc.contains("\"ph\":\"B\"") && !doc.contains("\"ph\":\"E\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn cap_drops_instead_of_growing() {
        let mut p = ChromeTraceProbe::new("/dev/null");
        for i in 0..(MAX_EVENTS + 10) {
            p.instant(SpanPoint::Eviction, Track::uvm(0), i as Cycle, 0);
        }
        assert_eq!(p.events.len(), MAX_EVENTS);
        assert_eq!(p.dropped, 10);
    }

    #[test]
    fn finish_writes_the_file_atomically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("avatar_trace_test_{}.json", std::process::id()));
        let mut p = demo_probe();
        p.path.clone_from(&path);
        p.finish(300);
        let body = fs::read_to_string(&path).expect("trace file written");
        assert!(body.contains("\"traceEvents\""));
        let _ = fs::remove_file(&path);
    }
}
