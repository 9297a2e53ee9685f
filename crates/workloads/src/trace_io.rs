//! Plain-text warp-trace import/export.
//!
//! The simulator consumes [`WarpProgram`]s; this module serializes them to
//! a simple line format so traces can be produced once (or converted from
//! external tools such as NVBit/Accel-Sim traces) and replayed:
//!
//! ```text
//! # avatar-trace v1
//! <sm> <warp> L <pc-hex> <addr-hex>[,<addr-hex>...]
//! <sm> <warp> S <pc-hex> <addr-hex>[,<addr-hex>...]
//! <sm> <warp> C <cycles>
//! ```
//!
//! `L` is a load, `S` a store and `C` a compute delay. An op line holds
//! exactly its fields (a trailing token is a parse error); a line starting
//! with `#` is a comment. Lines are grouped per warp in program order;
//! ordering between different warps is irrelevant (each warp replays its
//! own stream).

use avatar_sim::addr::VirtAddr;
use avatar_sim::fxhash::FxHashMap;
use avatar_sim::sm::{WarpOp, WarpProgram};
use std::io::{self, BufRead, BufReader, Read, Write};

/// Magic header for the trace format.
pub const HEADER: &str = "# avatar-trace v1";

/// Serializes a warp program by draining it.
///
/// The writer can be passed as `&mut w` if further use is needed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(
    program: &mut dyn WarpProgram,
    num_sms: usize,
    warps_per_sm: usize,
    mut w: W,
) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for sm in 0..num_sms {
        for warp in 0..warps_per_sm {
            while let Some(op) = program.next_op(sm, warp) {
                match op {
                    WarpOp::Load { pc, addrs } => {
                        write!(w, "{sm} {warp} L {pc:x} ")?;
                        write_addrs(&mut w, &addrs)?;
                    }
                    WarpOp::Store { pc, addrs } => {
                        write!(w, "{sm} {warp} S {pc:x} ")?;
                        write_addrs(&mut w, &addrs)?;
                    }
                    WarpOp::Compute { cycles } => writeln!(w, "{sm} {warp} C {cycles}")?,
                }
            }
        }
    }
    Ok(())
}

fn write_addrs<W: Write>(w: &mut W, addrs: &[VirtAddr]) -> io::Result<()> {
    let mut first = true;
    for a in addrs {
        if !first {
            write!(w, ",")?;
        }
        write!(w, "{:x}", a.0)?;
        first = false;
    }
    writeln!(w)
}

/// A parse failure with its 1-based line number.
#[derive(Debug)]
pub struct ParseTraceError {
    /// Line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl From<ParseTraceError> for io::Error {
    fn from(e: ParseTraceError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A replayable program loaded from a trace.
#[derive(Debug, Clone, Default)]
pub struct FileProgram {
    ops: FxHashMap<(usize, usize), Vec<WarpOp>>,
    cursor: FxHashMap<(usize, usize), usize>,
}

impl FileProgram {
    /// Parses a trace from any reader (pass `&mut r` to retain the reader).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed lines.
    pub fn from_reader<R: Read>(r: R) -> io::Result<FileProgram> {
        let reader = BufReader::new(r);
        let mut ops: FxHashMap<(usize, usize), Vec<WarpOp>> = FxHashMap::default();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let err = |message: String| ParseTraceError { line: lineno, message };
            let sm: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("missing/invalid sm".into()))?;
            let warp: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("missing/invalid warp".into()))?;
            let kind = parts.next().ok_or_else(|| err("missing op kind".into()))?;
            let op = match kind {
                "C" => {
                    let cycles = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("missing/invalid cycles".into()))?;
                    WarpOp::Compute { cycles }
                }
                "L" | "S" => {
                    let pc = parts
                        .next()
                        .and_then(|t| u64::from_str_radix(t, 16).ok())
                        .ok_or_else(|| err("missing/invalid pc".into()))?;
                    let addr_tok = parts.next().ok_or_else(|| err("missing addresses".into()))?;
                    let addrs: Result<Vec<VirtAddr>, _> = addr_tok
                        .split(',')
                        .map(|t| u64::from_str_radix(t, 16).map(VirtAddr))
                        .collect();
                    let addrs = addrs.map_err(|e| err(format!("bad address: {e}")))?;
                    if addrs.is_empty() {
                        return Err(err("empty address list".into()).into());
                    }
                    if kind == "L" {
                        WarpOp::Load { pc, addrs }
                    } else {
                        WarpOp::Store { pc, addrs }
                    }
                }
                other => return Err(err(format!("unknown op kind '{other}'")).into()),
            };
            if let Some(extra) = parts.next() {
                return Err(err(format!("trailing token '{extra}' after the {kind} op")).into());
            }
            ops.entry((sm, warp)).or_default().push(op);
        }
        Ok(FileProgram { ops, cursor: FxHashMap::default() })
    }

    /// Total operations across all warps.
    #[allow(clippy::disallowed_methods, reason = "a sum of list lengths is order-free")]
    pub fn len(&self) -> usize {
        self.ops.values().map(Vec::len).sum()
    }

    /// Whether the trace holds no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The geometry the trace spans: one past its highest SM index and
    /// one past its highest warp index (`(0, 0)` when empty). The engine
    /// asks only for the SMs and warps of its own geometry, so a smaller
    /// one would never run the rest of the trace.
    #[allow(clippy::disallowed_methods, reason = "a max over the keys is order-free")]
    pub fn extent(&self) -> (usize, usize) {
        self.ops.keys().fold((0, 0), |(sms, warps), &(sm, warp)| {
            (sms.max(sm.saturating_add(1)), warps.max(warp.saturating_add(1)))
        })
    }
}

impl WarpProgram for FileProgram {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let key = (sm, warp);
        let list = self.ops.get(&key)?;
        let cur = self.cursor.entry(key).or_insert(0);
        let op = list.get(*cur).cloned();
        if op.is_some() {
            *cur += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use avatar_sim::rng::SimRng;

    #[test]
    fn roundtrip_generated_trace() {
        let w = Workload::by_abbr("GEMM").unwrap();
        let mut original = w.program(2, 2, 0.05);
        let mut buf = Vec::new();
        write_trace(&mut original, 2, 2, &mut buf).unwrap();

        let mut replay = FileProgram::from_reader(buf.as_slice()).unwrap();
        let mut regen = w.program(2, 2, 0.05);
        for sm in 0..2 {
            for warp in 0..2 {
                loop {
                    let a = regen.next_op(sm, warp);
                    let b = replay.next_op(sm, warp);
                    assert_eq!(a, b, "sm {sm} warp {warp}");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn parses_minimal_trace() {
        let text = "# avatar-trace v1\n0 0 L 100 20,40,60\n0 0 C 25\n0 1 S 110 80\n";
        let mut p = FileProgram::from_reader(text.as_bytes()).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.next_op(0, 0),
            Some(WarpOp::Load {
                pc: 0x100,
                addrs: vec![VirtAddr(0x20), VirtAddr(0x40), VirtAddr(0x60)]
            })
        );
        assert_eq!(p.next_op(0, 0), Some(WarpOp::Compute { cycles: 25 }));
        assert_eq!(p.next_op(0, 0), None);
        assert_eq!(
            p.next_op(0, 1),
            Some(WarpOp::Store { pc: 0x110, addrs: vec![VirtAddr(0x80)] })
        );
        assert_eq!(p.next_op(1, 0), None, "unknown slots are empty");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["0 0 X 100 20", "0 L 100 20", "0 0 L zz 20", "0 0 L 100", "0 0 C"] {
            let text = format!("{HEADER}\n{bad}\n");
            assert!(
                FileProgram::from_reader(text.as_bytes()).is_err(),
                "must reject: {bad}"
            );
        }
    }

    #[test]
    fn rejects_trailing_tokens() {
        for (bad, extra) in [
            ("0 0 C 5 junk trailing", "junk"),
            ("0 0 L 100 20,40 7", "7"),
            ("0 1 S 110 80 #", "#"),
        ] {
            let text = format!("{HEADER}\n0 0 C 1\n{bad}\n");
            let e = FileProgram::from_reader(text.as_bytes()).expect_err(bad);
            let e = e.into_inner().expect("a parse error").to_string();
            assert!(e.contains("line 3") && e.contains(&format!("'{extra}'")), "{bad}: {e}");
        }
    }

    #[test]
    fn extent_is_one_past_the_highest_sm_and_warp() {
        let text = format!("{HEADER}\n0 5 C 1\n3 0 C 1\n");
        let p = FileProgram::from_reader(text.as_bytes()).unwrap();
        assert_eq!(p.extent(), (4, 6));
        assert_eq!(FileProgram::default().extent(), (0, 0));
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        // Lines built from the fields of a valid load, each field kept,
        // dropped, or swapped for a hostile token or a random byte.
        const FIELDS: [&str; 9] = ["3", " ", "1", " ", "L", " ", "1f", " ", "40,80"];
        const HOSTILE: &[&str] = &[
            "0", "18446744073709551615", "18446744073709551616", "-1", "+5", "0x10", "S", "C",
            "X", "zz", ",", ",,", "#", "\t", "  ", "\u{e9}",
        ];
        let mut rng = SimRng::seed_from_u64(0x7ace);
        let (mut parsed, mut rejected) = (0, 0);
        for _ in 0..4000 {
            let mut text = format!("{HEADER}\n").into_bytes();
            for field in FIELDS {
                match rng.index(10) {
                    0 => {}
                    1 => text.extend_from_slice(HOSTILE[rng.index(HOSTILE.len())].as_bytes()),
                    2 => text.push(rng.next_below(256) as u8),
                    _ => text.extend_from_slice(field.as_bytes()),
                }
            }
            text.push(b'\n');
            match FileProgram::from_reader(text.as_slice()) {
                Ok(p) => {
                    let _ = p.extent();
                    parsed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(parsed > 0 && rejected > 0, "parsed {parsed}, rejected {rejected}");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# comment\n\n   \n0 0 C 5\n# more\n";
        let p = FileProgram::from_reader(text.as_bytes()).unwrap();
        assert_eq!(p.len(), 1);
    }
}
