//! Operation-stream model and text formats.
//!
//! Two ingestion formats parse into the same [`OpStream`]:
//!
//! # Legacy 4-column format
//!
//! One operation per line: `<rank> <r|w> <offset> <bytes>`. Blank lines
//! and `#` comments are ignored; fields are separated by any whitespace
//! (spaces or tabs) and CRLF line endings are accepted. This is the
//! format the original `iosim replay` shipped with and it must keep
//! parsing identically forever.
//!
//! ```text
//! # rank op offset bytes
//! 0 w 0     65536
//! 1 w 65536 65536
//! 0 r 0     4096
//! ```
//!
//! # Extended op-stream format (strace-style)
//!
//! One operation per line, `<rank> <verb> <args…>`, with named files,
//! explicit open/close/seek, and optional cross-rank dependency edges:
//!
//! ```text
//! #iosim opstream v1
//! 0 open  ckpt.dat
//! 1 open  ckpt.dat
//! 0 write ckpt.dat 0     65536  @w0
//! 1 write ckpt.dat 65536 65536
//! 0 seek  ckpt.dat 0
//! 1 read  ckpt.dat 0     4096   <-w0
//! 0 close ckpt.dat
//! 1 close ckpt.dat
//! ```
//!
//! Lines are in **per-rank program order** (each rank executes its own
//! lines top to bottom). A trailing `@LABEL` names an operation; a
//! trailing `<-LABEL[,LABEL…]` makes the operation wait until every named
//! operation (on any rank) has completed — the cross-rank dependency
//! edges a recorded distributed application carries. Labels must be
//! defined before use, which also guarantees the dependency graph is
//! acyclic.

use iosim_simkit::hash::FxHashMap;
use std::fmt;

/// Operation kind in a legacy trace (read or write only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A read.
    Read,
    /// A write.
    Write,
}

/// One legacy traced operation (`rank op offset bytes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing rank.
    pub rank: usize,
    /// Read or write.
    pub kind: TraceKind,
    /// Absolute file offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Trace parse error with line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// What one extended operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkKind {
    /// Open the file (and preallocate its full traced extent).
    Open,
    /// Close the file.
    Close,
    /// Reposition the file pointer.
    Seek(u64),
    /// Read `len` bytes at `offset`.
    Read {
        /// Absolute file offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// Absolute file offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
}

/// One operation of an [`OpStream`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkOp {
    /// Issuing rank.
    pub rank: usize,
    /// Index into [`OpStream::files`].
    pub file: usize,
    /// The operation.
    pub kind: WorkKind,
    /// Label other operations can depend on (`@LABEL`).
    pub label: Option<String>,
    /// Indices (into [`OpStream::ops`]) this operation waits for.
    pub deps: Vec<usize>,
}

/// A parsed workload: a file table plus operations in per-rank program
/// order (the global order of `ops` is the recorded interleaving and is
/// preserved by [`render_opstream`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStream {
    /// File names, indexed by [`WorkOp::file`].
    pub files: Vec<String>,
    /// The operations.
    pub ops: Vec<WorkOp>,
}

impl OpStream {
    /// Number of ranks the stream needs (max rank + 1; at least 1).
    pub fn ranks(&self) -> usize {
        self.ops.iter().map(|o| o.rank + 1).max().unwrap_or(1)
    }

    /// Extent each file requires (max end offset over its data ops).
    pub fn extents(&self) -> Vec<u64> {
        let mut ext = vec![0u64; self.files.len()];
        for op in &self.ops {
            let end = match op.kind {
                WorkKind::Read { offset, len } | WorkKind::Write { offset, len } => offset + len,
                WorkKind::Seek(pos) => pos,
                _ => 0,
            };
            ext[op.file] = ext[op.file].max(end);
        }
        ext
    }

    /// Total bytes moved by read + write ops.
    pub fn data_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                WorkKind::Read { len, .. } | WorkKind::Write { len, .. } => len,
                _ => 0,
            })
            .sum()
    }

    /// Count of read + write ops.
    pub fn data_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| matches!(o.kind, WorkKind::Read { .. } | WorkKind::Write { .. }))
            .count() as u64
    }

    /// Whether any operation carries a dependency edge.
    pub fn has_deps(&self) -> bool {
        self.ops.iter().any(|o| !o.deps.is_empty())
    }

    /// Build a stream from legacy ops: one shared file, every rank opens
    /// it up front and closes it at the end (exactly the structure the
    /// original replay executed), reads/writes in recorded order.
    pub fn from_legacy(ops: &[TraceOp]) -> OpStream {
        let ranks = ops.iter().map(|o| o.rank + 1).max().unwrap_or(1);
        let mut out = OpStream {
            files: vec!["replay.data".to_string()],
            ops: Vec::with_capacity(ops.len() + 2 * ranks),
        };
        for r in 0..ranks {
            out.ops.push(WorkOp {
                rank: r,
                file: 0,
                kind: WorkKind::Open,
                label: None,
                deps: Vec::new(),
            });
        }
        for op in ops {
            out.ops.push(WorkOp {
                rank: op.rank,
                file: 0,
                kind: match op.kind {
                    TraceKind::Read => WorkKind::Read {
                        offset: op.offset,
                        len: op.len,
                    },
                    TraceKind::Write => WorkKind::Write {
                        offset: op.offset,
                        len: op.len,
                    },
                },
                label: None,
                deps: Vec::new(),
            });
        }
        for r in 0..ranks {
            out.ops.push(WorkOp {
                rank: r,
                file: 0,
                kind: WorkKind::Close,
                label: None,
                deps: Vec::new(),
            });
        }
        out
    }
}

/// Number of ranks a legacy trace needs.
pub fn ranks_of(ops: &[TraceOp]) -> usize {
    ops.iter().map(|o| o.rank + 1).max().unwrap_or(1)
}

/// File size a legacy trace requires (max end offset).
pub fn extent_of(ops: &[TraceOp]) -> u64 {
    ops.iter().map(|o| o.offset + o.len).max().unwrap_or(0)
}

/// Synthesize a strided checkpoint-style legacy trace: `ranks` ranks
/// each writing `ops_per_rank` interleaved records of `record` bytes.
pub fn synthesize_strided(ranks: usize, ops_per_rank: u64, record: u64) -> Vec<TraceOp> {
    let mut ops = Vec::with_capacity(ranks * ops_per_rank as usize);
    for k in 0..ops_per_rank {
        for r in 0..ranks {
            ops.push(TraceOp {
                rank: r,
                kind: TraceKind::Write,
                offset: (k * ranks as u64 + r as u64) * record,
                len: record,
            });
        }
    }
    ops
}

// ---------------------------------------------------------------------
// Legacy 4-column format

/// Parse the legacy text format (`rank r|w offset bytes`). Tolerates
/// CRLF line endings, tab separators, `#` comments, and blank lines.
pub fn parse_legacy(text: &str) -> Result<Vec<TraceOp>, ParseError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(err(
                line,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        }
        let rank: usize = fields[0]
            .parse()
            .map_err(|_| err(line, format!("bad rank '{}'", fields[0])))?;
        let kind = match fields[1] {
            "r" | "R" => TraceKind::Read,
            "w" | "W" => TraceKind::Write,
            other => return Err(err(line, format!("bad op '{other}' (expected r or w)"))),
        };
        let offset: u64 = fields[2]
            .parse()
            .map_err(|_| err(line, format!("bad offset '{}'", fields[2])))?;
        let len: u64 = fields[3]
            .parse()
            .map_err(|_| err(line, format!("bad length '{}'", fields[3])))?;
        if len == 0 {
            return Err(err(line, "zero-length operation"));
        }
        ops.push(TraceOp {
            rank,
            kind,
            offset,
            len,
        });
    }
    Ok(ops)
}

/// Render legacy operations back to the 4-column text format.
pub fn render_legacy(ops: &[TraceOp]) -> String {
    let mut out = String::from("# rank op offset bytes\n");
    for op in ops {
        out.push_str(&format!(
            "{} {} {} {}\n",
            op.rank,
            match op.kind {
                TraceKind::Read => "r",
                TraceKind::Write => "w",
            },
            op.offset,
            op.len
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Extended op-stream format

/// Parse the extended strace-style op-stream format.
///
/// ```
/// use iosim_workload::opstream::{parse_opstream, WorkKind};
/// let s = parse_opstream(
///     "0 open f\n0 write f 0 4096 @a\n1 open f\n1 read f 0 4096 <-a\n",
/// )
/// .unwrap();
/// assert_eq!(s.files, vec!["f"]);
/// assert_eq!(s.ops.len(), 4);
/// assert_eq!(s.ops[3].deps, vec![1]);
/// assert!(matches!(s.ops[3].kind, WorkKind::Read { .. }));
/// ```
pub fn parse_opstream(text: &str) -> Result<OpStream, ParseError> {
    let mut stream = OpStream::default();
    // Point lookups only (name -> id); nothing reads these in map order.
    let mut file_ids: FxHashMap<String, usize> = FxHashMap::default();
    let mut labels: FxHashMap<String, usize> = FxHashMap::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut fields: Vec<&str> = body.split_whitespace().collect();
        // Trailing annotations: `@LABEL` then/or `<-A,B`.
        let mut label: Option<String> = None;
        let mut deps: Vec<usize> = Vec::new();
        while let Some(last) = fields.last() {
            if let Some(l) = last.strip_prefix('@') {
                if l.is_empty() {
                    return Err(err(line, "empty label after '@'"));
                }
                if label.is_some() {
                    return Err(err(line, "more than one '@LABEL'"));
                }
                label = Some(l.to_string());
                fields.pop();
            } else if let Some(ds) = last.strip_prefix("<-") {
                if !deps.is_empty() {
                    return Err(err(line, "more than one '<-' dependency list"));
                }
                for d in ds.split(',') {
                    match labels.get(d) {
                        Some(&idx) => deps.push(idx),
                        None => {
                            return Err(err(line, format!("dependency on undefined label '{d}'")))
                        }
                    }
                }
                fields.pop();
            } else {
                break;
            }
        }
        if fields.len() < 2 {
            return Err(err(line, "expected '<rank> <verb> ...'"));
        }
        let rank: usize = fields[0]
            .parse()
            .map_err(|_| err(line, format!("bad rank '{}'", fields[0])))?;
        let verb = fields[1];
        let need = |n: usize| -> Result<(), ParseError> {
            if fields.len() != n {
                Err(err(
                    line,
                    format!("'{verb}' takes {} args, got {}", n - 2, fields.len() - 2),
                ))
            } else {
                Ok(())
            }
        };
        let num = |s: &str, what: &str| -> Result<u64, ParseError> {
            s.parse()
                .map_err(|_| err(line, format!("bad {what} '{s}'")))
        };
        let kind = match verb {
            "open" => {
                need(3)?;
                WorkKind::Open
            }
            "close" => {
                need(3)?;
                WorkKind::Close
            }
            "seek" => {
                need(4)?;
                WorkKind::Seek(num(fields[3], "offset")?)
            }
            "read" | "r" => {
                need(5)?;
                let len = num(fields[4], "length")?;
                if len == 0 {
                    return Err(err(line, "zero-length operation"));
                }
                WorkKind::Read {
                    offset: num(fields[3], "offset")?,
                    len,
                }
            }
            "write" | "w" => {
                need(5)?;
                let len = num(fields[4], "length")?;
                if len == 0 {
                    return Err(err(line, "zero-length operation"));
                }
                WorkKind::Write {
                    offset: num(fields[3], "offset")?,
                    len,
                }
            }
            other => {
                return Err(err(
                    line,
                    format!("unknown verb '{other}' (open|close|seek|read|write)"),
                ))
            }
        };
        let fname = fields[2].to_string();
        let next_id = file_ids.len();
        let file = *file_ids.entry(fname.clone()).or_insert(next_id);
        if file == stream.files.len() {
            stream.files.push(fname);
        }
        if let Some(l) = &label {
            if labels.insert(l.clone(), stream.ops.len()).is_some() {
                return Err(err(line, format!("duplicate label '{l}'")));
            }
        }
        stream.ops.push(WorkOp {
            rank,
            file,
            kind,
            label,
            deps,
        });
    }
    Ok(stream)
}

/// Render an [`OpStream`] back to the extended text format. Parsing the
/// result reproduces the stream exactly (`parse → render → parse` is the
/// identity; the round-trip tests pin this).
pub fn render_opstream(stream: &OpStream) -> String {
    let mut out = String::from("#iosim opstream v1\n");
    for op in &stream.ops {
        let file = &stream.files[op.file];
        match op.kind {
            WorkKind::Open => out.push_str(&format!("{} open {}", op.rank, file)),
            WorkKind::Close => out.push_str(&format!("{} close {}", op.rank, file)),
            WorkKind::Seek(pos) => out.push_str(&format!("{} seek {} {}", op.rank, file, pos)),
            WorkKind::Read { offset, len } => {
                out.push_str(&format!("{} read {} {} {}", op.rank, file, offset, len))
            }
            WorkKind::Write { offset, len } => {
                out.push_str(&format!("{} write {} {} {}", op.rank, file, offset, len))
            }
        }
        if let Some(l) = &op.label {
            out.push_str(&format!(" @{l}"));
        }
        if !op.deps.is_empty() {
            let names: Vec<&str> = op
                .deps
                .iter()
                .map(|&d| {
                    stream.ops[d]
                        .label
                        .as_deref()
                        .expect("dependency target must be labelled")
                })
                .collect();
            out.push_str(&format!(" <-{}", names.join(",")));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Format detection

/// The trace formats the front-end understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Legacy 4-column `rank r|w offset bytes`.
    Legacy,
    /// Extended strace-style op stream.
    OpStream,
    /// Darshan-like per-file summary (see [`crate::darshan`]).
    Darshan,
}

/// Sniff which format a trace text is in, from the first non-comment,
/// non-blank line (a `#iosim opstream` / `#iosim darshan` header wins
/// even as a comment).
pub fn detect_format(text: &str) -> TraceFormat {
    for raw in text.lines() {
        let t = raw.trim();
        if let Some(h) = t.strip_prefix("#iosim") {
            let h = h.trim_start();
            if h.starts_with("darshan") {
                return TraceFormat::Darshan;
            }
            if h.starts_with("opstream") {
                return TraceFormat::OpStream;
            }
        }
        let body = t.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut fields = body.split_whitespace();
        let first = fields.next().unwrap_or("");
        if matches!(first, "file" | "rhist" | "whist") {
            return TraceFormat::Darshan;
        }
        return match fields.next().unwrap_or("") {
            "open" | "close" | "seek" | "read" | "write" => TraceFormat::OpStream,
            _ => TraceFormat::Legacy,
        };
    }
    TraceFormat::Legacy
}

/// Parse any supported format into an [`OpStream`], expanding a Darshan
/// summary with `seed` (ignored for the literal formats).
pub fn parse_any(text: &str, seed: u64) -> Result<OpStream, ParseError> {
    match detect_format(text) {
        TraceFormat::Legacy => Ok(OpStream::from_legacy(&parse_legacy(text)?)),
        TraceFormat::OpStream => parse_opstream(text),
        TraceFormat::Darshan => Ok(crate::darshan::parse_darshan(text)?.expand(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_parse_matches_original_semantics() {
        let ops = parse_legacy("# demo\n0 w 0 4096\n1 r 4096 512\n").unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].kind, TraceKind::Read);
        assert!(parse_legacy("0 q 0 1\n").is_err());
        let e = parse_legacy("0 w 0 10\n0 x 0 10\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad op"));
        assert!(parse_legacy("0 w 0\n")
            .unwrap_err()
            .message
            .contains("4 fields"));
        assert!(parse_legacy("0 w 0 0\n")
            .unwrap_err()
            .message
            .contains("zero-length"));
    }

    #[test]
    fn parse_error_displays_its_line_as_a_std_error() {
        let err = parse_legacy("0 w 0 10\n0 q 0 1\n").unwrap_err();
        let e: &dyn std::error::Error = &err;
        assert!(e.to_string().starts_with("trace line 2: "), "{e}");
    }

    #[test]
    fn extent_and_ranks_derive_from_ops() {
        let ops = synthesize_strided(4, 10, 256);
        assert_eq!(ops.len(), 40);
        assert_eq!(ranks_of(&ops), 4);
        assert_eq!(extent_of(&ops), 4 * 10 * 256);
        assert_eq!(ranks_of(&[]), 1);
        assert_eq!(extent_of(&[]), 0);
    }

    #[test]
    fn legacy_tolerates_crlf_and_tabs() {
        let unix = parse_legacy("0 w 0 10\n1 r 10 5\n").unwrap();
        let crlf = parse_legacy("0 w 0 10\r\n1 r 10 5\r\n").unwrap();
        let tabs = parse_legacy("0\tw\t0\t10\n1\tr\t10\t5\n").unwrap();
        let mixed = parse_legacy("0 \tw  0\t10 # c\r\n\r\n1\tr 10 \t 5\r\n").unwrap();
        assert_eq!(unix, crlf);
        assert_eq!(unix, tabs);
        assert_eq!(unix, mixed);
    }

    #[test]
    fn legacy_roundtrip_is_identity() {
        let ops = vec![
            TraceOp {
                rank: 0,
                kind: TraceKind::Write,
                offset: 0,
                len: 100,
            },
            TraceOp {
                rank: 3,
                kind: TraceKind::Read,
                offset: 4096,
                len: 512,
            },
        ];
        assert_eq!(parse_legacy(&render_legacy(&ops)).unwrap(), ops);
    }

    #[test]
    fn opstream_roundtrip_is_identity() {
        let text = "\
#iosim opstream v1
0 open a.dat
1 open a.dat
0 write a.dat 0 65536 @w0
1 write a.dat 65536 65536 @w1
0 seek a.dat 0
0 read a.dat 65536 4096 <-w1
1 read a.dat 0 4096 <-w0,w1
0 close a.dat
1 close a.dat
";
        let s = parse_opstream(text).unwrap();
        assert_eq!(s.ranks(), 2);
        assert_eq!(s.files, vec!["a.dat"]);
        assert_eq!(s.data_ops(), 4);
        assert_eq!(s.ops[5].deps, vec![3]);
        assert_eq!(s.ops[6].deps, vec![2, 3]);
        let rendered = render_opstream(&s);
        let s2 = parse_opstream(&rendered).unwrap();
        assert_eq!(s, s2);
        // And the rendering itself is a fixed point.
        assert_eq!(rendered, render_opstream(&s2));
    }

    #[test]
    fn opstream_rejects_bad_lines() {
        assert!(parse_opstream("0 read f 0\n")
            .unwrap_err()
            .message
            .contains("takes"));
        assert!(parse_opstream("0 fsync f\n")
            .unwrap_err()
            .message
            .contains("unknown verb"));
        assert!(parse_opstream("0 read f 0 10 <-nope\n")
            .unwrap_err()
            .message
            .contains("undefined label"));
        assert!(parse_opstream("0 write f 0 10 @a\n0 write f 0 10 @a\n")
            .unwrap_err()
            .message
            .contains("duplicate label"));
        assert!(parse_opstream("0 write f 0 0\n")
            .unwrap_err()
            .message
            .contains("zero-length"));
        assert!(parse_opstream("0 write f 0 10 @\n")
            .unwrap_err()
            .message
            .contains("empty label"));
    }

    #[test]
    fn opstream_tolerates_crlf_and_tabs() {
        let a = parse_opstream("0 open f\n0 write f 0 10\n").unwrap();
        let b = parse_opstream("0\topen\tf\r\n0\twrite\tf\t0\t10\r\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detection_distinguishes_the_three_formats() {
        assert_eq!(detect_format("0 w 0 4096\n"), TraceFormat::Legacy);
        assert_eq!(detect_format("# c\n\n1 r 0 512\n"), TraceFormat::Legacy);
        assert_eq!(detect_format("0 open f\n"), TraceFormat::OpStream);
        assert_eq!(
            detect_format("#iosim opstream v1\n0 w 0 1\n"),
            TraceFormat::OpStream
        );
        assert_eq!(detect_format("file scratch 4 0.9\n"), TraceFormat::Darshan);
        assert_eq!(detect_format("#iosim darshan v1\n"), TraceFormat::Darshan);
        assert_eq!(detect_format(""), TraceFormat::Legacy);
    }

    #[test]
    fn legacy_to_stream() {
        let ops = parse_legacy("0 w 0 10\n1 r 0 10\n").unwrap();
        let s = OpStream::from_legacy(&ops);
        // 2 opens + 2 data ops + 2 closes.
        assert_eq!(s.ops.len(), 6);
        assert_eq!(s.extents(), vec![10]);
        assert_eq!((s.data_ops(), s.data_bytes()), (2, 20));
        assert!(!s.has_deps());
    }

    #[test]
    fn parse_any_dispatches_on_format() {
        let legacy = parse_any("0 w 0 10\n", 1).unwrap();
        assert_eq!(legacy.files, vec!["replay.data"]);
        let ext = parse_any("0 open f\n0 write f 0 10\n0 close f\n", 1).unwrap();
        assert_eq!(ext.files, vec!["f"]);
    }
}
