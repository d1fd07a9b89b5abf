//! Striping arithmetic: mapping a file byte range onto per-I/O-node
//! contiguous runs.
//!
//! PFS and PIOFS stripe a file round-robin across the I/O nodes in units
//! of the stripe unit (PFS default 64 KB, PIOFS BSU 32 KB). Consecutive
//! stripe units land on consecutive I/O nodes; the units assigned to one
//! node are stored contiguously in that node's fragment. Hence a single
//! contiguous file request decomposes into **at most one contiguous local
//! run per I/O node**, which is what the service model books on each
//! node's disk queue.

/// Striping description of one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Striping {
    /// Stripe unit in bytes.
    pub unit: u64,
    /// Number of I/O nodes the file is striped across (stripe factor).
    pub factor: usize,
    /// I/O node holding stripe unit 0.
    pub start_node: usize,
}

/// One contiguous run of bytes on a single I/O node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The I/O node index.
    pub io_node: usize,
    /// Offset within that node's fragment of the file.
    pub local_offset: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl Striping {
    /// Create a striping; panics on degenerate parameters.
    pub fn new(unit: u64, factor: usize, start_node: usize) -> Striping {
        assert!(unit > 0, "stripe unit must be positive");
        assert!(factor > 0, "stripe factor must be positive");
        assert!(start_node < factor, "start node must be < factor");
        Striping {
            unit,
            factor,
            start_node,
        }
    }

    /// I/O node holding global stripe unit `u`.
    #[inline]
    pub fn node_of_unit(&self, u: u64) -> usize {
        ((self.start_node as u64 + u) % self.factor as u64) as usize
    }

    /// Index of global unit `u` within its node's fragment.
    #[inline]
    pub fn local_unit_index(&self, u: u64) -> u64 {
        u / self.factor as u64
    }

    /// Local fragment offset of global file offset `off`.
    #[inline]
    pub fn local_offset(&self, off: u64) -> u64 {
        let u = off / self.unit;
        self.local_unit_index(u) * self.unit + off % self.unit
    }

    /// Decompose `[offset, offset+len)` into per-node contiguous runs.
    ///
    /// Runs are yielded in increasing I/O node index, computed on demand
    /// (no allocation). A zero-length request yields no runs.
    pub fn runs(&self, offset: u64, len: u64) -> RunIter {
        if len == 0 {
            return RunIter {
                striping: *self,
                offset,
                end: offset,
                first_unit: 0,
                last_unit: 0,
                touched: 0,
                rotate: 0,
                next: 0,
            };
        }
        let first_unit = offset / self.unit;
        let last_unit = (offset + len - 1) / self.unit;
        let factor = self.factor as u64;
        // The touched nodes are the `touched` consecutive nodes (mod
        // factor) starting at the first unit's node. Those that wrap past
        // the last node index come first in node order, so yield the
        // touched-order indices rotated by the unwrapped count.
        let touched = (last_unit - first_unit + 1).min(factor);
        let first_node = self.node_of_unit(first_unit) as u64;
        let wrapped = touched.saturating_sub(factor - first_node);
        RunIter {
            striping: *self,
            offset,
            end: offset + len,
            first_unit,
            last_unit,
            touched,
            rotate: touched - wrapped,
            next: 0,
        }
    }
}

/// Iterator over the per-node runs of one request; see
/// [`Striping::runs`].
#[derive(Clone, Debug)]
pub struct RunIter {
    striping: Striping,
    offset: u64,
    end: u64,
    first_unit: u64,
    last_unit: u64,
    /// Nodes the request touches (= runs yielded in total).
    touched: u64,
    /// Touched-order index of the lowest-numbered node.
    rotate: u64,
    /// Runs yielded so far.
    next: u64,
}

impl Iterator for RunIter {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if self.next == self.touched {
            return None;
        }
        let s = &self.striping;
        let i = (self.next + self.rotate) % self.touched;
        self.next += 1;
        // The node's units are u0, u0 + factor, … up to `last_unit`; they
        // are consecutive in its local fragment, so they form one run.
        // Only the request's first unit can start mid-unit and only its
        // last unit can end mid-unit.
        let u0 = self.first_unit + i;
        let factor = s.factor as u64;
        let units = (self.last_unit - u0) / factor + 1;
        let head = if u0 == self.first_unit {
            self.offset - u0 * s.unit
        } else {
            0
        };
        let tail = if (self.last_unit - u0).is_multiple_of(factor) {
            (self.last_unit + 1) * s.unit - self.end
        } else {
            0
        };
        Some(Run {
            io_node: s.node_of_unit(u0),
            local_offset: s.local_unit_index(u0) * s.unit + head,
            bytes: units * s.unit - head - tail,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.touched - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RunIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::rng::SimRng;

    #[test]
    fn single_unit_request_hits_one_node() {
        let s = Striping::new(64, 4, 0);
        let runs: Vec<Run> = s.runs(0, 64).collect();
        assert_eq!(
            runs,
            vec![Run {
                io_node: 0,
                local_offset: 0,
                bytes: 64
            }]
        );
    }

    #[test]
    fn request_spanning_all_nodes() {
        let s = Striping::new(64, 4, 0);
        let runs: Vec<Run> = s.runs(0, 256).collect();
        assert_eq!(runs.len(), 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.io_node, i);
            assert_eq!(r.local_offset, 0);
            assert_eq!(r.bytes, 64);
        }
    }

    #[test]
    fn large_request_wraps_round_robin() {
        let s = Striping::new(64, 2, 0);
        // Units 0..6: node0 gets 0,2,4 (local 0..192), node1 gets 1,3,5.
        let runs: Vec<Run> = s.runs(0, 6 * 64).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            Run {
                io_node: 0,
                local_offset: 0,
                bytes: 192
            }
        );
        assert_eq!(
            runs[1],
            Run {
                io_node: 1,
                local_offset: 0,
                bytes: 192
            }
        );
    }

    #[test]
    fn partial_units_at_both_ends() {
        let s = Striping::new(100, 3, 0);
        // [50, 250): 50 B of unit 0 (node 0), 100 B of unit 1 (node 1),
        // 50 B of unit 2 (node 2).
        let runs: Vec<Run> = s.runs(50, 200).collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(
            runs[0],
            Run {
                io_node: 0,
                local_offset: 50,
                bytes: 50
            }
        );
        assert_eq!(
            runs[1],
            Run {
                io_node: 1,
                local_offset: 0,
                bytes: 100
            }
        );
        assert_eq!(
            runs[2],
            Run {
                io_node: 2,
                local_offset: 0,
                bytes: 50
            }
        );
    }

    #[test]
    fn start_node_shifts_mapping() {
        let s = Striping::new(64, 4, 2);
        let runs: Vec<Run> = s.runs(0, 64).collect();
        assert_eq!(runs[0].io_node, 2);
        let runs: Vec<Run> = s.runs(64, 64).collect();
        assert_eq!(runs[0].io_node, 3);
        let runs: Vec<Run> = s.runs(128, 64).collect();
        assert_eq!(runs[0].io_node, 0);
    }

    #[test]
    fn local_offset_accounts_for_round_robin() {
        let s = Striping::new(64, 4, 0);
        // Unit 4 is node 0's second unit: local offset 64.
        assert_eq!(s.local_offset(4 * 64), 64);
        assert_eq!(s.local_offset(4 * 64 + 10), 74);
    }

    #[test]
    fn zero_length_request_has_no_runs() {
        let s = Striping::new(64, 4, 0);
        assert_eq!(s.runs(123, 0).len(), 0);
    }

    #[test]
    fn mid_file_request_local_offsets() {
        let s = Striping::new(64, 2, 0);
        // Units: n0 ← 0,2,4,…  n1 ← 1,3,5,…
        // Request units 3..=4: node1 unit 3 (local idx 1), node0 unit 4
        // (local idx 2).
        let runs: Vec<Run> = s.runs(3 * 64, 128).collect();
        assert_eq!(runs.len(), 2);
        let n0 = runs.iter().find(|r| r.io_node == 0).unwrap();
        let n1 = runs.iter().find(|r| r.io_node == 1).unwrap();
        assert_eq!(n1.local_offset, 64);
        assert_eq!(n0.local_offset, 128);
    }

    /// The unit-by-unit decomposition `runs` used to collect: one slot per
    /// node, filled by walking each touched node's units.
    fn runs_by_unit_walk(s: &Striping, offset: u64, len: u64) -> Vec<Run> {
        if len == 0 {
            return Vec::new();
        }
        let first_unit = offset / s.unit;
        let last_unit = (offset + len - 1) / s.unit;
        let touched = ((last_unit - first_unit + 1) as usize).min(s.factor);
        let mut runs: Vec<Option<Run>> = vec![None; s.factor];
        for u0 in first_unit..first_unit + touched as u64 {
            let start = (u0 * s.unit).max(offset);
            let mut bytes = ((u0 + 1) * s.unit).min(offset + len) - start;
            let mut u = u0 + s.factor as u64;
            while u <= last_unit {
                bytes += ((u + 1) * s.unit).min(offset + len) - u * s.unit;
                u += s.factor as u64;
            }
            runs[s.node_of_unit(u0)] = Some(Run {
                io_node: s.node_of_unit(u0),
                local_offset: s.local_unit_index(u0) * s.unit + (start - u0 * s.unit),
                bytes,
            });
        }
        runs.into_iter().flatten().collect()
    }

    #[test]
    fn runs_match_unit_walk() {
        for unit in [1u64, 3, 64, 100] {
            for factor in 1..=6usize {
                for start in 0..factor {
                    let s = Striping::new(unit, factor, start);
                    for offset in (0..4 * unit * factor as u64).step_by(unit as usize / 2 + 1) {
                        for len in [
                            0,
                            1,
                            unit - 1,
                            unit,
                            unit + 1,
                            2 * unit,
                            7 * unit + 5,
                            40 * unit,
                        ] {
                            let want = runs_by_unit_walk(&s, offset, len);
                            let it = s.runs(offset, len);
                            assert_eq!(it.len(), want.len());
                            assert_eq!(it.collect::<Vec<_>>(), want, "{s:?} [{offset}, +{len})");
                        }
                    }
                }
            }
        }
    }

    /// Seeds per drawn striping property; each failure names its seed.
    const DRAWS: u64 = 2_000;

    #[test]
    fn drawn_runs_cover_exactly_len_with_one_run_per_node() {
        for seed in 0x1a70_1000..0x1a70_1000 + DRAWS {
            let mut rng = SimRng::seed_from(seed);
            let unit = rng.range(1, 256);
            let factor = rng.range(1, 9) as usize;
            let start = rng.range(0, factor as u64) as usize;
            let (offset, len) = (rng.range(0, 10_000), rng.range(0, 10_000));
            let s = Striping::new(unit, factor, start);
            let runs: Vec<Run> = s.runs(offset, len).collect();
            let tag = format!("seed {seed}: {s:?} [{offset}, +{len})");
            assert_eq!(runs.iter().map(|r| r.bytes).sum::<u64>(), len, "{tag}");
            let mut nodes: Vec<usize> = runs.iter().map(|r| r.io_node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), runs.len(), "{tag}: two runs on one node");
        }
    }

    #[test]
    fn drawn_follow_on_requests_move_each_node_forward() {
        // Reading [offset, offset + len) then the bytes after it: every
        // node the second request touches continues at or past where
        // the first request's run on that node started.
        for seed in 0x1a70_2000..0x1a70_2000 + DRAWS {
            let mut rng = SimRng::seed_from(seed);
            let unit = rng.range(1, 128);
            let factor = rng.range(1, 5) as usize;
            let (offset, len) = (rng.range(0, 5_000), rng.range(1, 2_000));
            let s = Striping::new(unit, factor, 0);
            let a: Vec<Run> = s.runs(offset, len).collect();
            let b: Vec<Run> = s
                .runs(offset + len, len.max(unit * factor as u64))
                .collect();
            for rb in &b {
                if let Some(ra) = a.iter().find(|r| r.io_node == rb.io_node) {
                    assert!(
                        rb.local_offset >= ra.local_offset,
                        "seed {seed}: {s:?} [{offset}, +{len}): {ra:?} then {rb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn drawn_local_offsets_are_monotone_per_node() {
        for seed in 0x1a70_3000..0x1a70_3000 + DRAWS {
            let mut rng = SimRng::seed_from(seed);
            let unit = rng.range(1, 128);
            let factor = rng.range(1, 6) as usize;
            let (a, b) = (rng.range(0, 100_000), rng.range(0, 100_000));
            let s = Striping::new(unit, factor, 0);
            let (lo, hi) = (a.min(b), a.max(b));
            if s.node_of_unit(lo / unit) == s.node_of_unit(hi / unit) {
                assert!(
                    s.local_offset(lo) <= s.local_offset(hi),
                    "seed {seed}: {s:?} offsets {lo} and {hi}"
                );
            }
        }
    }
}
