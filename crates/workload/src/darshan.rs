//! Darshan-like summarized trace format and its expansion.
//!
//! Real sites rarely archive full op streams; what they have are
//! Darshan-style *summaries*: per-file operation counters and access-size
//! histograms (see "Tools for Analyzing Parallel I/O", PAPERS.md). This
//! module parses such a summary and expands it into a representative
//! [`OpStream`] with the in-tree seeded xoshiro RNG — deterministic for a
//! fixed seed, so an expanded workload is exactly reproducible.
//!
//! # Format
//!
//! ```text
//! #iosim darshan v1
//! # file <name> <ranks> <seq_frac>
//! # rhist/whist <name> <size_bytes> <count>
//! file  scratch.dat 4 0.9
//! whist scratch.dat 65536 200
//! rhist scratch.dat 4096  800
//! ```
//!
//! `ranks` is how many ranks shared the file; `seq_frac` in `[0, 1]` is
//! the fraction of accesses that were sequential (Darshan's
//! `*_SEQ_{READS,WRITES}` counters over totals). Each `rhist`/`whist`
//! line adds `count` accesses of `size_bytes` each (Darshan's
//! `*_SIZE_*_{0_100,100_1K,…}` bins, keyed by a representative size).
//!
//! # Expansion
//!
//! Writes are expanded before reads per file (so reads hit written
//! extents), each rank walks its own sequential cursor, and a
//! non-sequential access jumps to a random record-aligned offset. Ranks
//! interleave round-robin — the classic striding of a parallel dump.

use iosim_simkit::rng::SimRng;

use crate::opstream::{OpStream, ParseError, WorkKind, WorkOp};

/// Per-file access-size histogram entry: `count` accesses of `size` bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeBin {
    /// Representative access size in bytes.
    pub size: u64,
    /// Number of accesses in this bin.
    pub count: u64,
}

/// Summary of one file's recorded activity.
#[derive(Clone, Debug, PartialEq)]
pub struct FileSummary {
    /// File name.
    pub name: String,
    /// Ranks that shared the file.
    pub ranks: usize,
    /// Fraction of accesses that were sequential, in `[0, 1]`.
    pub seq_frac: f64,
    /// Read-size histogram.
    pub reads: Vec<SizeBin>,
    /// Write-size histogram.
    pub writes: Vec<SizeBin>,
}

impl FileSummary {
    /// Total accesses (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.reads.iter().chain(&self.writes).map(|b| b.count).sum()
    }

    /// Total bytes (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.reads
            .iter()
            .chain(&self.writes)
            .map(|b| b.size * b.count)
            .sum()
    }
}

/// A parsed Darshan-like summary: one entry per file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DarshanSummary {
    /// Per-file summaries, in declaration order.
    pub files: Vec<FileSummary>,
}

impl DarshanSummary {
    /// Number of ranks the expanded workload needs.
    pub fn ranks(&self) -> usize {
        self.files.iter().map(|f| f.ranks).max().unwrap_or(1)
    }

    /// Expand into a representative [`OpStream`], deterministically for
    /// `seed`. Two calls with the same seed yield bit-identical streams.
    pub fn expand(&self, seed: u64) -> OpStream {
        let mut root = SimRng::seed_from(seed);
        let mut out = OpStream::default();
        for (fid, f) in self.files.iter().enumerate() {
            let mut rng = root.split(fid as u64);
            out.files.push(f.name.clone());
            let ranks = f.ranks.max(1);
            for r in 0..ranks {
                out.ops.push(WorkOp {
                    rank: r,
                    file: fid,
                    kind: WorkKind::Open,
                    label: None,
                    deps: Vec::new(),
                });
            }
            // Writes first so subsequent reads cover written extents.
            let mut cursor = vec![0u64; ranks]; // per-rank sequential cursor
            let mut extent = 0u64;
            for (bins, is_write) in [(&f.writes, true), (&f.reads, false)] {
                // Flatten bins into a draw-order list: round-robin over
                // bins so sizes interleave like a mixed recorded stream.
                let mut remaining: Vec<SizeBin> = bins.clone();
                let mut rank_rr = 0usize;
                loop {
                    let mut progressed = false;
                    for bin in remaining.iter_mut() {
                        if bin.count == 0 {
                            continue;
                        }
                        bin.count -= 1;
                        progressed = true;
                        let rank = rank_rr % ranks;
                        rank_rr += 1;
                        let sequential = rng.unit() < f.seq_frac;
                        let offset = if sequential || extent == 0 {
                            cursor[rank]
                        } else {
                            // Random record-aligned jump within the
                            // already-populated extent.
                            let records = (extent / bin.size.max(1)).max(1);
                            rng.range(0, records) * bin.size
                        };
                        cursor[rank] = offset + bin.size;
                        extent = extent.max(offset + bin.size);
                        out.ops.push(WorkOp {
                            rank,
                            file: fid,
                            kind: if is_write {
                                WorkKind::Write {
                                    offset,
                                    len: bin.size,
                                }
                            } else {
                                WorkKind::Read {
                                    offset,
                                    len: bin.size,
                                }
                            },
                            label: None,
                            deps: Vec::new(),
                        });
                    }
                    if !progressed {
                        break;
                    }
                }
            }
            for r in 0..ranks {
                out.ops.push(WorkOp {
                    rank: r,
                    file: fid,
                    kind: WorkKind::Close,
                    label: None,
                    deps: Vec::new(),
                });
            }
        }
        out
    }
}

/// Parse the Darshan-like summary format.
///
/// ```
/// use iosim_workload::darshan::parse_darshan;
/// let s = parse_darshan(
///     "#iosim darshan v1\nfile f 2 0.5\nwhist f 4096 10\nrhist f 4096 10\n",
/// )
/// .unwrap();
/// assert_eq!(s.files.len(), 1);
/// assert_eq!(s.files[0].total_ops(), 20);
/// ```
pub fn parse_darshan(text: &str) -> Result<DarshanSummary, ParseError> {
    let err = |line: usize, m: String| ParseError { line, message: m };
    let mut out = DarshanSummary::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        match fields[0] {
            "file" => {
                if fields.len() != 4 {
                    return Err(err(
                        line,
                        format!(
                            "'file' takes 3 args (name ranks seq_frac), got {}",
                            fields.len() - 1
                        ),
                    ));
                }
                let ranks: usize = fields[2]
                    .parse()
                    .map_err(|_| err(line, format!("bad ranks '{}'", fields[2])))?;
                let seq_frac: f64 = fields[3]
                    .parse()
                    .map_err(|_| err(line, format!("bad seq_frac '{}'", fields[3])))?;
                if !(0.0..=1.0).contains(&seq_frac) {
                    return Err(err(line, format!("seq_frac {seq_frac} outside [0, 1]")));
                }
                if ranks == 0 {
                    return Err(err(line, "file needs at least 1 rank".into()));
                }
                if out.files.iter().any(|f| f.name == fields[1]) {
                    return Err(err(line, format!("duplicate file '{}'", fields[1])));
                }
                out.files.push(FileSummary {
                    name: fields[1].to_string(),
                    ranks,
                    seq_frac,
                    reads: Vec::new(),
                    writes: Vec::new(),
                });
            }
            kw @ ("rhist" | "whist") => {
                if fields.len() != 4 {
                    return Err(err(
                        line,
                        format!(
                            "'{kw}' takes 3 args (name size count), got {}",
                            fields.len() - 1
                        ),
                    ));
                }
                let size: u64 = fields[2]
                    .parse()
                    .map_err(|_| err(line, format!("bad size '{}'", fields[2])))?;
                let count: u64 = fields[3]
                    .parse()
                    .map_err(|_| err(line, format!("bad count '{}'", fields[3])))?;
                if size == 0 {
                    return Err(err(line, "zero-byte access size".into()));
                }
                let f = out
                    .files
                    .iter_mut()
                    .find(|f| f.name == fields[1])
                    .ok_or_else(|| err(line, format!("'{kw}' before 'file {}'", fields[1])))?;
                let bin = SizeBin { size, count };
                if kw == "rhist" {
                    f.reads.push(bin);
                } else {
                    f.writes.push(bin);
                }
            }
            other => {
                return Err(err(
                    line,
                    format!("unknown record '{other}' (file|rhist|whist)"),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        "#iosim darshan v1\n\
         file scratch.dat 4 0.75\n\
         whist scratch.dat 65536 40\n\
         whist scratch.dat 512 24\n\
         rhist scratch.dat 4096 64\n"
    }

    #[test]
    fn parse_reads_every_record() {
        let s = parse_darshan(sample()).unwrap();
        assert_eq!(s.files.len(), 1);
        let f = &s.files[0];
        assert_eq!(
            (f.name.as_str(), f.ranks, f.seq_frac),
            ("scratch.dat", 4, 0.75)
        );
        assert_eq!(f.writes.len(), 2);
        assert_eq!(f.reads.len(), 1);
        assert_eq!(f.total_ops(), 128);
        assert_eq!(f.total_bytes(), 40 * 65536 + 24 * 512 + 64 * 4096);
    }

    #[test]
    fn expansion_is_bit_deterministic() {
        let s = parse_darshan(sample()).unwrap();
        let a = s.expand(42);
        let b = s.expand(42);
        assert_eq!(a, b);
        let c = s.expand(43);
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn expansion_matches_the_counters() {
        let s = parse_darshan(sample()).unwrap();
        let stream = s.expand(7);
        assert_eq!(stream.data_ops(), 128);
        assert_eq!(stream.data_bytes(), s.files[0].total_bytes());
        assert_eq!(stream.ranks(), 4);
        // Every rank participates.
        for r in 0..4 {
            assert!(stream
                .ops
                .iter()
                .any(|o| o.rank == r && matches!(o.kind, WorkKind::Write { .. })));
        }
        // Reads come after all writes (per file), so they hit data.
        let first_read = stream
            .ops
            .iter()
            .position(|o| matches!(o.kind, WorkKind::Read { .. }))
            .unwrap();
        let last_write = stream
            .ops
            .iter()
            .rposition(|o| matches!(o.kind, WorkKind::Write { .. }))
            .unwrap();
        assert!(first_read > last_write);
    }

    #[test]
    fn sequentiality_shapes_offsets() {
        // seq_frac 1.0: each rank's ops are strictly sequential.
        let s = parse_darshan("file f 2 1.0\nwhist f 1024 20\n").unwrap();
        let stream = s.expand(1);
        for r in 0..2 {
            let mut expect = 0u64;
            for op in stream.ops.iter().filter(|o| o.rank == r) {
                if let WorkKind::Write { offset, len } = op.kind {
                    assert_eq!(offset, expect);
                    expect = offset + len;
                }
            }
        }
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        let e = parse_darshan("file f 2 0.5\nrhist g 4096 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("before 'file"));
        assert!(parse_darshan("file f 0 0.5\n").is_err());
        assert!(parse_darshan("file f 2 1.5\n").is_err());
        assert!(parse_darshan("blob x\n").is_err());
        assert!(parse_darshan("file f 2 0.5\nwhist f 0 5\n").is_err());
        assert!(parse_darshan("file f 2 0.5\nfile f 2 0.5\n").is_err());
    }
}
