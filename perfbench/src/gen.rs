//! Seeded input generators. Everything the simulator sees in a benchmark
//! run comes from here, and the same seed always yields the same inputs.

use std::fmt::Write as _;

use iosim_simkit::rng::SimRng;
use iosim_simkit::time::SimDuration;
use iosim_workload::{ArrivalModel, SynthSpec};

/// The seeded paper grid points one `paper_apps` job visits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaperPoints {
    /// FFT process count (Fig. 5), run unoptimized and optimized.
    pub fft_procs: usize,
    /// I/O nodes of the unoptimized FFT run (Fig. 5 plots 2 and 4).
    pub fft_unopt_io_nodes: usize,
    /// SCF 1.1 prefetch-version process count (Fig. 2).
    pub scf_procs: usize,
    /// SCF 1.1 I/O nodes (Fig. 2 plots 16 and 64).
    pub scf_io_nodes: usize,
}

/// FFT matrix dimension of `paper_apps` (Fig. 5 at a reduced scale).
pub const FFT_N: u64 = 256;
/// SCF 1.1 volume scale of `paper_apps` (Fig. 2 at a reduced scale).
pub const SCF_SCALE: f64 = 0.01;
/// Grid size of the stored-mode BTIO capture pair.
pub const CAPTURE_GRID: u64 = 16;
/// Process count of the stored-mode BTIO capture pair.
pub const CAPTURE_PROCS: usize = 9;
/// Dumps of the stored-mode BTIO capture pair.
pub const CAPTURE_DUMPS: u32 = 2;

/// BTIO class A point (Fig. 6) of every job: 16 procs, 3 dumps, run
/// Unix-style and two-phase. BTIO is most of a job's host time, and the
/// Fig. 6 points differ by up to 50% in host time per simulated op, so a
/// seeded BTIO point would move either `job_ms_p50` or `sim_ops_per_s`
/// from seed to seed; the point is fixed instead.
pub const BTIO_PROCS: usize = 16;
/// See [`BTIO_PROCS`].
pub const BTIO_DUMPS: u32 = 3;

/// Pick the FFT and SCF 1.1 points from `seed`. Each choice list is the
/// part of the figure's grid whose points issue about the same number of
/// operations at about the same host cost, so the seed varies the inputs
/// without moving the job's cost.
pub fn paper_points(seed: u64) -> PaperPoints {
    let mut rng = SimRng::seed_from(seed ^ 0x7061_7065_725f_6170);
    let mut pick = |choices: &[usize]| choices[rng.range(0, choices.len() as u64) as usize];
    PaperPoints {
        fft_procs: pick(&[1, 2, 4]),
        fft_unopt_io_nodes: pick(&[2, 4]),
        scf_procs: pick(&[4, 16]),
        scf_io_nodes: pick(&[16, 64]),
    }
}

/// Ranks of the `replay_deps` trace.
pub const REPLAY_RANKS: usize = 64;
/// Checkpoint rounds of the `replay_deps` trace.
pub const REPLAY_ROUNDS: usize = 5;
/// Seek + write pairs each rank logs to its scratch file per round.
pub const REPLAY_SCRATCH_WRITES: usize = 6;

/// A generated op-stream trace plus what the generator put into it, so
/// the parse can be checked against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayTrace {
    /// The trace in the extended op-stream text format.
    pub text: String,
    /// Operations emitted (every line but the header and comments).
    pub ops: u64,
    /// Read and write operations emitted.
    pub data_ops: u64,
    /// Cross-rank dependency edges emitted.
    pub dep_edges: u64,
}

/// Generate the `replay_deps` trace: [`REPLAY_RANKS`] ranks write a
/// shared strided checkpoint in [`REPLAY_ROUNDS`] rounds, log to a
/// private scratch file with explicit seeks, and read back another
/// rank's checkpoint record behind a `<-dep` edge on its write.
pub fn replay_trace(seed: u64) -> ReplayTrace {
    let mut rng = SimRng::seed_from(seed ^ 0x7265_706c_6179_5f64);
    let ranks = REPLAY_RANKS as u64;
    let mut out = ReplayTrace {
        text: String::from("#iosim opstream v1\n# replay_deps benchmark trace\n"),
        ops: 0,
        data_ops: 0,
        dep_edges: 0,
    };
    let line = |out: &mut ReplayTrace, s: std::fmt::Arguments<'_>, data: bool, deps: u64| {
        out.text
            .write_fmt(s)
            .expect("writing to a String cannot fail");
        out.text.push('\n');
        out.ops += 1;
        out.data_ops += u64::from(data);
        out.dep_edges += deps;
    };
    for r in 0..ranks {
        line(&mut out, format_args!("{r} open ckpt.dat"), false, 0);
        line(&mut out, format_args!("{r} open scratch.{r}"), false, 0);
    }
    // Checkpoint records are 16–64 KB, whole KB, fixed for the run.
    let record = rng.range(16, 65) << 10;
    let mut scratch_end = vec![0u64; REPLAY_RANKS];
    for round in 0..REPLAY_ROUNDS as u64 {
        for r in 0..ranks {
            let off = (round * ranks + r) * record;
            line(
                &mut out,
                format_args!("{r} write ckpt.dat {off} {record} @c{round}_{r}"),
                true,
                0,
            );
        }
        for r in 0..ranks {
            for _ in 0..REPLAY_SCRATCH_WRITES {
                // Append-mostly log with occasional rewinds.
                let end = scratch_end[r as usize];
                let pos = if end >= 4096 && rng.unit() < 0.25 {
                    rng.range(0, end / 4096) * 4096
                } else {
                    end
                };
                let len = rng.range(1, 9) << 10;
                scratch_end[r as usize] = end.max(pos + len);
                line(
                    &mut out,
                    format_args!("{r} seek scratch.{r} {pos}"),
                    false,
                    0,
                );
                line(
                    &mut out,
                    format_args!("{r} write scratch.{r} {pos} {len}"),
                    true,
                    0,
                );
            }
        }
        for r in 0..ranks {
            let peer = (r + rng.range(1, ranks)) % ranks;
            let off = (round * ranks + peer) * record;
            line(
                &mut out,
                format_args!("{r} read ckpt.dat {off} {record} <-c{round}_{peer}"),
                true,
                1,
            );
        }
    }
    for r in 0..ranks {
        line(&mut out, format_args!("{r} close scratch.{r}"), false, 0);
        line(&mut out, format_args!("{r} close ckpt.dat"), false, 0);
    }
    out
}

/// Clients of the `openloop_cache` workload.
pub const OPENLOOP_CLIENTS: usize = 256;
/// Per-I/O-node LRU cache of the `openloop_cache` machine, in MB.
pub const OPENLOOP_CACHE_MB: u64 = 8;
/// Command-queue depth of the `openloop_cache` machine.
pub const OPENLOOP_QUEUE_DEPTH: usize = 8;

/// The `openloop_cache` generator spec: Poisson clients with a 50/50
/// read/write mix over a working set of twice the machine's total cache
/// (4 SP-2 I/O nodes × 8 MB, against 4 files × 16 MB). The seed drives
/// the arrival streams and offsets, never the population's shape.
pub fn openloop_spec(seed: u64) -> SynthSpec {
    SynthSpec {
        clients: OPENLOOP_CLIENTS,
        duration: SimDuration::from_secs_f64(13.0),
        arrival: ArrivalModel::Poisson { rate: 6.0 },
        read_frac: 0.5,
        op_bytes: 16 << 10,
        fragments: 1,
        files: 4,
        file_bytes: 16 << 20,
        seed: seed ^ 0x6f70_656e_6c6f_6f70,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_workload::parse_any;

    const SEEDS: [u64; 5] = [0, 1, 7, 42, 0xdead_beef];

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        for seed in SEEDS {
            assert_eq!(replay_trace(seed).text, replay_trace(seed).text);
            assert_eq!(paper_points(seed), paper_points(seed));
            assert_eq!(openloop_spec(seed), openloop_spec(seed));
        }
        assert_ne!(replay_trace(1).text, replay_trace(2).text);
    }

    #[test]
    fn parsed_counts_match_what_the_generator_emitted() {
        for seed in SEEDS {
            let t = replay_trace(seed);
            let s = parse_any(&t.text, seed).expect("generated trace parses");
            let deps: u64 = s.ops.iter().map(|o| o.deps.len() as u64).sum();
            assert_eq!(s.ops.len() as u64, t.ops, "seed {seed}");
            assert_eq!(s.data_ops(), t.data_ops, "seed {seed}");
            assert_eq!(deps, t.dep_edges, "seed {seed}");
            assert_eq!(s.ranks(), REPLAY_RANKS);
        }
    }

    #[test]
    fn seeds_cover_every_grid_choice() {
        let picked: Vec<PaperPoints> = (0..64).map(paper_points).collect();
        for procs in [1, 2, 4] {
            assert!(picked.iter().any(|p| p.fft_procs == procs));
        }
        for procs in [4, 16] {
            assert!(picked.iter().any(|p| p.scf_procs == procs));
        }
    }
}
