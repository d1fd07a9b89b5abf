//! Extension experiments beyond the paper (DESIGN.md §9): failure
//! injection on the I/O subsystem, data sieving vs two-phase I/O, the
//! collective-buffer-size ablation, mesh-link contention, the
//! disk-based/re-compute crossover, and the 1998 playbook on modern
//! hardware.

use iosim_apps::common::run_ranks;
use iosim_apps::scf11::{Scf11Config, Scf11Version, ScfInput};
use iosim_core::sieve::write_sieved;
use iosim_core::two_phase::{write_collective, write_collective_buffered, Piece};
use iosim_machine::{presets, Interface};
use iosim_pfs::CreateOptions;
use iosim_trace::figure::{Series, TextFigure};
use iosim_trace::report::{Comparison, ExperimentReport};

use crate::parallel::{default_threads, map_parallel};

/// Extension 1: hot-spot sensitivity. Degrade one of 16 I/O nodes and
/// measure SCF 1.1. Round-robin striping drags every striped operation to
/// the slowest node, so a single degraded node costs far more than 1/16th
/// of the bandwidth — quantifying how fragile the "balanced architecture"
/// is to heterogeneity.
pub fn ext_hotspot(scale: f64) -> ExperimentReport {
    let speeds = [1.0f64, 0.5, 0.25, 0.1];
    let jobs: Vec<f64> = speeds.to_vec();
    let results = map_parallel(jobs, default_threads(), |&speed| {
        let cfg = Scf11Config {
            procs: 16,
            io_nodes: 16,
            scale,
            ..Scf11Config::new(ScfInput::Small, Scf11Version::Passion)
        };
        // Run through the generic harness with a degraded machine.
        run_scf11_degraded(&cfg, speed)
    });
    let mut report = ExperimentReport::new(
        "Extension 1: hot-spot sensitivity — one degraded I/O node (SCF 1.1, 16 procs, 16 I/O nodes)",
    );
    let mut fig = TextFigure::new(
        "execution time vs speed of the slowest I/O node",
        "node speed",
        "exec time (s)",
    );
    fig.push(Series::new(
        "1 of 16 nodes degraded",
        speeds.iter().zip(&results).map(|(&s, &t)| (s, t)).collect(),
    ));
    report.push_figure(fig);
    let nominal = results[0];
    let tenth = results[3];
    report.push(Comparison::claim(
        "a single 10%-speed node slows the whole run by >2x",
        "striping couples every operation to the slowest node (extension; no paper value)",
        tenth > 2.0 * nominal,
    ));
    // A node at 25% speed removes (1−0.25)/16 ≈ 4.7% of aggregate
    // capacity; the run should slow far more than that.
    let quarter_slowdown = (results[2] - nominal) / nominal;
    report.push(Comparison::claim(
        "degradation is superlinear in the lost capacity share",
        "losing ~5% of aggregate capacity costs several times that",
        quarter_slowdown > 3.0 * 0.047,
    ));
    report
}

fn run_scf11_degraded(cfg: &Scf11Config, hot_speed: f64) -> f64 {
    // scf11::run builds its machine internally; for the degraded variant
    // we reproduce its read phase shape with the generic harness.
    let mcfg = presets::paragon_large()
        .with_compute_nodes(cfg.procs)
        .with_io_nodes(cfg.io_nodes)
        .with_degraded_io_node(0, hot_speed);
    let volume =
        ((iosim_apps::scf11::integral_volume(cfg.input.basis()) as f64) * cfg.scale) as u64;
    let per_proc = volume / cfg.procs as u64;
    let res = run_ranks(mcfg, cfg.procs, move |ctx| {
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::Passion,
                    &format!("hot.{}", ctx.rank),
                    Some(CreateOptions::default()),
                )
                .await
                .expect("open");
            fh.preallocate(per_proc);
            for iter in 0..5u64 {
                let _ = iter;
                let mut off = 0u64;
                while off < per_proc {
                    let len = (64 << 10).min(per_proc - off);
                    fh.read_discard_at(off, len).await.expect("read");
                    off += len;
                }
            }
        })
    });
    res.exec_time.as_secs_f64()
}

/// Extension 2: data sieving vs two-phase I/O vs direct writes, on the
/// BTIO dump pattern. Sieving needs no peers but transfers the holes;
/// two-phase exchanges over the network and writes densely. On a
/// high-density pattern both beat direct I/O, and two-phase wins once
/// several processes interleave (its writes are hole-free).
pub fn ext_sieve_vs_two_phase(scale: f64) -> ExperimentReport {
    let _ = scale;
    let procs = 4usize;
    let records_per_rank = 200u64;
    let record = 512u64;
    let stride = 2048u64; // rank-interleaved: 25% density per rank

    let run_variant = |variant: &'static str| -> f64 {
        let res = run_ranks(
            presets::sp2().with_compute_nodes(procs),
            procs,
            move |ctx| {
                Box::pin(async move {
                    let fh = ctx
                        .fs
                        .open(
                            ctx.rank,
                            Interface::UnixStyle,
                            "sieve-cmp",
                            Some(CreateOptions::default()),
                        )
                        .await
                        .expect("open");
                    let pieces: Vec<Piece> = (0..records_per_rank)
                        .map(|k| Piece::synthetic(k * stride + ctx.rank as u64 * record, record))
                        .collect();
                    match variant {
                        "direct" => {
                            for p in pieces {
                                fh.seek(p.offset).await;
                                fh.write_discard(p.payload.len).await.expect("write");
                            }
                        }
                        "sieved" => {
                            write_sieved(&fh, pieces).await.expect("sieve");
                        }
                        "two-phase" => {
                            write_collective(&ctx.comm, &fh, pieces)
                                .await
                                .expect("collective");
                        }
                        _ => unreachable!(),
                    }
                    ctx.comm.barrier().await;
                })
            },
        );
        res.exec_time.as_secs_f64()
    };

    let direct = run_variant("direct");
    let sieved = run_variant("sieved");
    let two_phase = run_variant("two-phase");

    let mut report = ExperimentReport::new(
        "Extension 2: data sieving vs two-phase I/O (interleaved 25%-density writes, 4 procs)",
    );
    report.push_body(&format!(
        "{:>12} {:>12} {:>12}   [exec time (s)]\n{:>12.2} {:>12.2} {:>12.2}\n",
        "direct", "sieved", "two-phase", direct, sieved, two_phase
    ));
    report.push(Comparison::claim(
        "sieving beats direct per-record writes",
        "one RMW extent instead of hundreds of seeks (extension; no paper value)",
        sieved < direct / 2.0,
    ));
    report.push(Comparison::claim(
        "two-phase beats sieving when peers interleave",
        "exchange removes the hole transfers entirely",
        two_phase < sieved,
    ));
    report
}

/// Extension 3: the collective-buffer-size knob of
/// [`write_collective_buffered`] — the PASSION/ROMIO "cb_buffer_size"
/// trade-off.
pub fn ext_collective_buffer(scale: f64) -> ExperimentReport {
    let _ = scale;
    let procs = 8usize;
    let total: u64 = 16 << 20;
    let per_rank = total / procs as u64;
    let buffers = [64u64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let times = map_parallel(buffers.to_vec(), default_threads(), |&buf| {
        let res = run_ranks(
            presets::paragon_large()
                .with_compute_nodes(procs)
                .with_io_nodes(16),
            procs,
            move |ctx| {
                Box::pin(async move {
                    let fh = ctx
                        .fs
                        .open(
                            ctx.rank,
                            Interface::Passion,
                            "cb",
                            Some(CreateOptions::default()),
                        )
                        .await
                        .expect("open");
                    // Rank-strided pieces of 8 KB.
                    let pieces: Vec<Piece> = (0..per_rank / 8192)
                        .map(|k| {
                            Piece::synthetic((k * procs as u64 + ctx.rank as u64) * 8192, 8192)
                        })
                        .collect();
                    write_collective_buffered(&ctx.comm, &fh, pieces, buf)
                        .await
                        .expect("buffered collective");
                    ctx.comm.barrier().await;
                })
            },
        );
        res.exec_time.as_secs_f64()
    });
    let mut report =
        ExperimentReport::new("Extension 3: collective buffer size (16 MB strided write, 8 procs)");
    let mut fig = TextFigure::new(
        "execution time vs per-process collective buffer",
        "buffer (KB)",
        "exec time (s)",
    );
    fig.push(Series::new(
        "two-phase, buffered",
        buffers
            .iter()
            .zip(&times)
            .map(|(&b, &t)| ((b >> 10) as f64, t))
            .collect(),
    ));
    report.push_figure(fig);
    report.push(Comparison::claim(
        "larger collective buffers are monotonically cheaper (fewer rounds)",
        "rounds = extent / (ranks x buffer) (extension; no paper value)",
        times.windows(2).all(|w| w[1] <= w[0] * 1.05),
    ));
    report
}

/// Extension 4: mesh-link contention and the two-phase exchange. The
/// collective's all-to-all is bisection-heavy; modelling per-link
/// bandwidth shows how much headroom the default NIC-only model leaves.
pub fn ext_link_contention(scale: f64) -> ExperimentReport {
    let _ = scale;
    let run_with = |contend: bool, procs: usize| -> f64 {
        let mut mcfg = presets::paragon_large()
            .with_compute_nodes(procs)
            .with_io_nodes(16);
        mcfg.net.link_contention = contend;
        let res = run_ranks(mcfg, procs, move |ctx| {
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::Passion,
                        "lc",
                        Some(CreateOptions::default()),
                    )
                    .await
                    .expect("open");
                // Strided pieces so the exchange is all-to-all heavy.
                let per_rank: u64 = 4 << 20;
                let pieces: Vec<Piece> = (0..per_rank / 65536)
                    .map(|k| {
                        Piece::synthetic(
                            (k * ctx.comm.size() as u64 + ctx.rank as u64) * 65536,
                            65536,
                        )
                    })
                    .collect();
                write_collective(&ctx.comm, &fh, pieces)
                    .await
                    .expect("collective");
                ctx.comm.barrier().await;
            })
        });
        res.exec_time.as_secs_f64()
    };
    let mut report = ExperimentReport::new(
        "Extension 4: mesh-link contention on the two-phase exchange (4 MB per process)",
    );
    let mut fig = TextFigure::new("execution time vs processes", "procs", "exec time (s)");
    let procs = [8usize, 32, 64];
    let mut at_64 = [0.0f64; 2];
    for (ci, contend) in [false, true].into_iter().enumerate() {
        let pts: Vec<(f64, f64)> = procs
            .iter()
            .map(|&p| (p as f64, run_with(contend, p)))
            .collect();
        at_64[ci] = pts.last().expect("procs non-empty").1;
        fig.push(Series::new(
            if contend {
                "with link contention"
            } else {
                "NIC-only model"
            },
            pts,
        ));
    }
    let slow_64 = at_64[1] / at_64[0];
    report.push_figure(fig);
    report.push(Comparison::claim(
        "link contention never speeds the exchange up",
        "per-link booking adds queueing on shared route links (extension; no paper value)",
        slow_64 >= 1.0,
    ));
    report
}

/// Extension 5: the paper's concluding SCF anecdote, quantified — "for
/// small numbers of compute nodes \[users\] use the version which makes
/// I/O; for large numbers they tend to use the re-compute version, as the
/// I/O version performs very poorly". Sweep processors for the disk-based
/// (100% cached) and direct (0% cached) variants and locate the
/// crossover.
pub fn ext_disk_vs_recompute(scale: f64) -> ExperimentReport {
    use iosim_apps::scf30::{run as scf30_run, Scf30Config};
    let procs = [8usize, 32, 128, 256];
    let sweep = |cached: u32| -> Vec<f64> {
        let jobs: Vec<Scf30Config> = procs
            .iter()
            .map(|&p| Scf30Config {
                io_nodes: 12,
                scale,
                ..Scf30Config::new(ScfInput::Medium, p, cached)
            })
            .collect();
        map_parallel(jobs, default_threads(), scf30_run)
            .into_iter()
            .map(|r| r.run.exec_time.as_secs_f64())
            .collect()
    };
    let disk = sweep(100);
    let direct = sweep(0);
    let mut report = ExperimentReport::new(
        "Extension 5: disk-based vs re-compute SCF across processor counts (12 I/O nodes)",
    );
    let mut fig = TextFigure::new("execution time vs processes", "procs", "exec time (s)");
    fig.push(Series::new(
        "disk-based (100% cached)",
        procs
            .iter()
            .zip(&disk)
            .map(|(&p, &t)| (p as f64, t))
            .collect(),
    ));
    fig.push(Series::new(
        "direct (full re-compute)",
        procs
            .iter()
            .zip(&direct)
            .map(|(&p, &t)| (p as f64, t))
            .collect(),
    ));
    report.push_figure(fig);
    report.push(Comparison::claim(
        "small processor counts favour the disk-based version",
        "for small number of compute nodes, use the version of the code which makes I/O",
        disk[0] < direct[0],
    ));
    report.push(Comparison::claim(
        "large processor counts favour the re-compute version",
        "for large number of compute nodes, they tend to use the re-compute version",
        direct[procs.len() - 1] < disk[procs.len() - 1],
    ));
    report
}

/// Extension 6: does the 1998 playbook survive modern hardware? Re-run
/// the technique-gain measurements on the anachronistic
/// [`presets::modern_cluster`] (50 GFLOPS nodes, NVMe-class storage,
/// microsecond interfaces) and compare against the period machines.
///
/// The measured finding is sharper than the folklore "flash killed
/// seeks, so layout stopped mattering": both techniques are *call-count*
/// optimizations, and per-call software cost outlived the disk heads —
/// the layout gain survives on the modern machine and only collapses
/// when the interface cost is artificially zeroed as well.
pub fn ext_modern_hardware(scale: f64) -> ExperimentReport {
    use iosim_apps::btio::{BtClass, BtioConfig};
    use iosim_apps::fft::FftConfig;
    let _ = scale;

    #[derive(Clone, Copy)]
    enum Flavor {
        Period,
        Modern,
        /// Modern with a (hypothetical) near-free I/O software path.
        ModernFreeCalls,
    }

    // FFT layout gain under each machine flavour (same logical workload).
    let fft_gain_on = |flavor: Flavor| -> f64 {
        let run_one = |optimized: bool| -> f64 {
            let mut cfg = FftConfig::new(512, 4, optimized);
            cfg.mem_per_proc = 256 << 10;
            cfg.io_nodes = 2;
            let mut mcfg = match flavor {
                Flavor::Period => presets::paragon_small()
                    .with_compute_nodes(4)
                    .with_io_nodes(2),
                _ => presets::modern_cluster()
                    .with_compute_nodes(4)
                    .with_io_nodes(2),
            };
            if matches!(flavor, Flavor::ModernFreeCalls) {
                let free = iosim_simkit::time::SimDuration::from_nanos(100);
                mcfg.unix.read_call = free;
                mcfg.unix.write_call = free;
                mcfg.unix.seek = free;
                mcfg.disk.per_request_overhead = free;
                mcfg.disk.seek_penalty = free;
            }
            run_ranks(mcfg, 4, move |ctx| {
                let cfg = cfg.clone();
                Box::pin(async move {
                    iosim_apps::fft::rank_program(ctx, cfg).await;
                })
            })
            .exec_time
            .as_secs_f64()
        };
        run_one(false) / run_one(true)
    };

    // BTIO collective gain, period vs modern.
    let btio_gain_on = |modern: bool| -> f64 {
        let run_one = |optimized: bool| -> f64 {
            let cfg = BtioConfig {
                dumps: 5,
                ..BtioConfig::new(BtClass::Custom(16), 9, optimized)
            };
            let mcfg = if modern {
                presets::modern_cluster().with_compute_nodes(9)
            } else {
                presets::sp2().with_compute_nodes(9)
            };
            run_ranks(mcfg, 9, move |ctx| {
                let cfg = cfg.clone();
                Box::pin(async move {
                    iosim_apps::btio::rank_program(ctx, cfg).await;
                })
            })
            .exec_time
            .as_secs_f64()
        };
        run_one(false) / run_one(true)
    };

    let fft_1998 = fft_gain_on(Flavor::Period);
    let fft_2026 = fft_gain_on(Flavor::Modern);
    let fft_free = fft_gain_on(Flavor::ModernFreeCalls);
    let btio_1998 = btio_gain_on(false);
    let btio_2026 = btio_gain_on(true);

    let mut report = ExperimentReport::new(
        "Extension 6: the 1998 optimizations on a modern (NVMe-class) cluster",
    );
    report.push_body(&format!(
        "{:<22} {:>13} {:>8} {:>18}\n{:<22} {:>12.2}x {:>7.2}x {:>17.2}x\n{:<22} {:>12.2}x {:>7.2}x {:>18}\n",
        "technique (speedup)", "1990s machine", "modern", "modern, free calls",
        "file layout (FFT)", fft_1998, fft_2026, fft_free,
        "collective I/O (BTIO)", btio_1998, btio_2026, "-",
    ));
    report.push(Comparison::claim(
        "collective I/O remains clearly effective on modern hardware",
        "request counts and per-call software costs outlived the hardware (extension)",
        btio_2026 > 1.3,
    ));
    report.push(Comparison::claim(
        "the layout optimization also survives — it is a call-count optimization",
        "per-call software cost, not the seek arm, carries the 1998 advice forward (extension)",
        fft_2026 > 1.5,
    ));
    report.push(Comparison::claim(
        "zeroing the software path (hypothetical) finally collapses the layout gain",
        "with free calls and free seeks only bandwidth remains (extension)",
        fft_free < fft_2026 / 2.0,
    ));
    report
}

/// Extension 7: I/O-node buffer-cache ablation. Sweep the per-node LRU
/// cache capacity (0 = the paper's uncached machine) over two workloads
/// that exercise different cache mechanisms: the unoptimized
/// out-of-core FFT (re-reads its panel files and benefits from LRU
/// residency, read-ahead, and write-behind) and the data-sieving
/// read-modify-write pattern (whose writes the cache absorbs). The
/// paper's machines ran the PFS I/O daemons without such a cache; this
/// quantifies what one would have bought.
pub fn ext_cache_ablation(scale: f64) -> ExperimentReport {
    use iosim_apps::fft::FftConfig;
    let _ = scale;
    let sizes_mb = [0u64, 1, 4, 16];

    let fft = map_parallel(sizes_mb.to_vec(), default_threads(), |&mb| {
        let mut cfg = FftConfig::new(512, 4, false);
        cfg.mem_per_proc = 256 << 10;
        cfg.io_nodes = 2;
        cfg.cache_mb = mb;
        let res = iosim_apps::fft::run(&cfg);
        (res.io_time.as_secs_f64(), res.cache.hit_rate())
    });
    let sieve = map_parallel(sizes_mb.to_vec(), default_threads(), |&mb| {
        run_sieve_cached(mb)
    });

    let mut report = ExperimentReport::new(
        "Extension 7: I/O-node buffer-cache ablation (LRU + write-behind + read-ahead)",
    );
    let mut fig = TextFigure::new(
        "I/O time vs per-I/O-node cache capacity",
        "cache (MB)",
        "I/O time (s)",
    );
    fig.push(Series::new(
        "FFT (unoptimized, 512^2)",
        sizes_mb
            .iter()
            .zip(&fft)
            .map(|(&mb, &(t, _))| (mb as f64, t))
            .collect(),
    ));
    fig.push(Series::new(
        "sieve RMW (4 procs)",
        sizes_mb
            .iter()
            .zip(&sieve)
            .map(|(&mb, &(t, _))| (mb as f64, t))
            .collect(),
    ));
    report.push_figure(fig);
    report.push_body(&format!(
        "hit rates: FFT {} / sieve {}\n",
        sizes_mb
            .iter()
            .zip(&fft)
            .filter(|(&mb, _)| mb > 0)
            .map(|(&mb, &(_, h))| format!("{mb}MB={:.0}%", 100.0 * h))
            .collect::<Vec<_>>()
            .join(" "),
        sizes_mb
            .iter()
            .zip(&sieve)
            .filter(|(&mb, _)| mb > 0)
            .map(|(&mb, &(_, h))| format!("{mb}MB={:.0}%", 100.0 * h))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    report.push(Comparison::claim(
        "a 4 MB per-node cache strictly reduces FFT I/O time",
        "panel re-reads hit the LRU cache; write-behind absorbs the transpose writes (extension)",
        fft[2].0 < fft[0].0,
    ));
    report.push(Comparison::claim(
        "a 4 MB per-node cache strictly reduces the sieve RMW I/O time",
        "write-behind completes the sieved write-back at memory speed (extension)",
        sieve[2].0 < sieve[0].0,
    ));
    report.push(Comparison::claim(
        "growing the cache never hurts these workloads",
        "more residency, same background flush traffic (extension)",
        fft.windows(2).all(|w| w[1].0 <= w[0].0 * 1.05)
            && sieve.windows(2).all(|w| w[1].0 <= w[0].0 * 1.05),
    ));
    report
}

/// Extension 8: fragment loop vs vectored list-I/O ablation. Two
/// strided workloads — the out-of-core FFT column read (512 fragments
/// of 2 KB at an 8 KB stride per process) and the BTIO dump pattern
/// (interleaved 512-byte cell runs at a 2 KB stride) — issued either as
/// one `read_at`/`write_at` call per fragment or as a single
/// `readv`/`writev` request. Under PASSION the interface overhead is
/// charged once per *request* and the per-node disk queue is booked
/// once per request, so list-I/O strictly reduces I/O time; Unix-style
/// interfaces charge per *fragment* either way, so the vectored call
/// degenerates to the loop and gains exactly nothing.
pub fn ext_listio_ablation(scale: f64) -> ExperimentReport {
    use iosim_pfs::IoRequest;
    type ReqBuilder<'a> = &'a dyn Fn(usize) -> IoRequest;
    let _ = scale;
    let procs = 4usize;

    // Workload A: FFT column-block read. Row-major 512x512 complex
    // array; each rank reads its 128-column block — one fragment per
    // row.
    let fft_req = |rank: usize| -> IoRequest {
        let n = 512u64;
        let cols = n / procs as u64;
        IoRequest::strided(rank as u64 * cols * 16, cols * 16, n * 16, n)
    };
    // Workload B: BTIO dump. Rank-interleaved 512-byte cell runs, 25%
    // density per rank.
    let btio_req =
        |rank: usize| -> IoRequest { IoRequest::strided(rank as u64 * 512, 512, 2048, 200) };

    // Run one (workload, interface, style) cell and return I/O time.
    let run_cell =
        |iface: Interface, listio: bool, write: bool, build: &dyn Fn(usize) -> IoRequest| -> f64 {
            let reqs: Vec<IoRequest> = (0..procs).map(build).collect();
            let res = run_ranks(
                presets::paragon_large()
                    .with_compute_nodes(procs)
                    .with_io_nodes(8),
                procs,
                move |ctx| {
                    let req = reqs[ctx.rank].clone();
                    Box::pin(async move {
                        let fh = ctx
                            .fs
                            .open(ctx.rank, iface, "listio", Some(CreateOptions::default()))
                            .await
                            .expect("open");
                        fh.preallocate(req.end());
                        if listio {
                            if write {
                                fh.writev_discard(&req).await.expect("writev");
                            } else {
                                fh.readv_discard(&req).await.expect("readv");
                            }
                        } else {
                            for &(off, len) in req.extents() {
                                if write {
                                    fh.write_discard_at(off, len).await.expect("write");
                                } else {
                                    fh.read_discard_at(off, len).await.expect("read");
                                }
                            }
                        }
                        ctx.comm.barrier().await;
                    })
                },
            );
            res.io_time.as_secs_f64()
        };

    let workloads: [(&str, bool, ReqBuilder); 2] = [
        ("FFT column read", false, &fft_req),
        ("BTIO dump write", true, &btio_req),
    ];
    let ifaces = [Interface::Passion, Interface::UnixStyle];
    // ratios[w][i]: fragment-loop I/O time over list-I/O I/O time.
    let mut ratios = [[0.0f64; 2]; 2];
    let mut body = format!(
        "{:<18} {:>10} {:>14} {:>12} {:>8}\n",
        "workload", "interface", "fragment loop", "list-I/O", "ratio"
    );
    for (wi, (name, write, build)) in workloads.iter().enumerate() {
        for (ii, &iface) in ifaces.iter().enumerate() {
            let frag = run_cell(iface, false, *write, *build);
            let list = run_cell(iface, true, *write, *build);
            ratios[wi][ii] = frag / list;
            body.push_str(&format!(
                "{:<18} {:>10} {:>13.3}s {:>11.3}s {:>7.2}x\n",
                name,
                format!("{iface:?}"),
                frag,
                list,
                ratios[wi][ii]
            ));
        }
    }

    let mut report = ExperimentReport::new(
        "Extension 8: fragment loop vs vectored list-I/O (FFT column read, BTIO dump)",
    );
    report.push_body(&body);
    let mut fig = TextFigure::new(
        "fragment-loop / list-I/O time ratio per interface",
        "workload (1=FFT read, 2=BTIO write)",
        "ratio",
    );
    for (ii, &iface) in ifaces.iter().enumerate() {
        fig.push(Series::new(
            if iface == Interface::Passion {
                "PASSION (per-request overhead)"
            } else {
                "Unix-style (per-fragment overhead)"
            },
            (0..workloads.len())
                .map(|wi| ((wi + 1) as f64, ratios[wi][ii]))
                .collect(),
        ));
    }
    report.push_figure(fig);
    report.push(Comparison::claim(
        "PASSION list-I/O strictly reduces the FFT column-read I/O time",
        "one interface call and one disk-queue booking per node instead of 512 (extension)",
        ratios[0][0] > 1.0,
    ));
    report.push(Comparison::claim(
        "PASSION list-I/O strictly reduces the BTIO dump I/O time",
        "the 200 interleaved cell runs collapse into one request (extension)",
        ratios[1][0] > 1.0,
    ));
    report.push(Comparison::claim(
        "a Unix-style interface gains nothing from the vectored call",
        "per-fragment charging makes readv/writev degenerate to the loop exactly",
        ratios[0][1] == 1.0 && ratios[1][1] == 1.0,
    ));
    report
}

/// Extension 9: NCQ-style command-queue depth ablation. The FFT
/// column-read and BTIO dump patterns of `ext8`, but with each rank's
/// column block assigned in **reverse** rank order — so the legacy FIFO
/// disk queue services the concurrent ranks' commands in exactly the
/// wrong order (every dispatch seeks backward through the file), the
/// arrival pattern command queuing exists for. Three service styles —
/// per-fragment loop, vectored list I/O, and the batched two-phase
/// collective — are swept over queue depth 1, 2, 4, 8, 16. Depth 1 is
/// bit-identical to the legacy FIFO path; deeper queues let the
/// bounded-window elevator turn backward seeks into sequential head
/// continuations. The batched collective additionally books each I/O
/// node's queue exactly once per round, which the run's
/// [`iosim_trace::QueueSnapshot`] counters assert.
pub fn ext_queue_ablation(scale: f64) -> ExperimentReport {
    use iosim_apps::common::{with_queue_depth, RunResult};
    use iosim_pfs::IoRequest;
    let _ = scale;
    let procs = 4usize;
    let io_nodes = 8usize;
    let depths = [1usize, 2, 4, 8, 16];
    let styles = ["fragment", "list", "collective"];
    let workloads = ["FFT column read", "BTIO dump write"];

    // Reverse slot permutation: rank r takes column block procs-1-r, so
    // the booking order (rank order) descends through the file.
    let build = |wi: usize, rank: usize| -> IoRequest {
        let slot = (procs - 1 - rank) as u64;
        if wi == 0 {
            let n = 512u64;
            let cols = n / procs as u64;
            IoRequest::strided(slot * cols * 16, cols * 16, n * 16, n)
        } else {
            IoRequest::strided(slot * 512, 512, 2048, 200)
        }
    };

    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for si in 0..styles.len() {
            for &d in &depths {
                grid.push((wi, si, d));
            }
        }
    }
    let results: Vec<RunResult> = map_parallel(grid, default_threads(), |&(wi, si, depth)| {
        // FFT is a read workload except in the collective arm (the
        // collective is the dump direction on both workloads).
        let is_write = wi == 1 || si == 2;
        let reqs: Vec<IoRequest> = (0..procs).map(|r| build(wi, r)).collect();
        let mcfg = with_queue_depth(
            presets::paragon_large()
                .with_compute_nodes(procs)
                .with_io_nodes(io_nodes),
            depth,
        );
        run_ranks(mcfg, procs, move |ctx| {
            let req = reqs[ctx.rank].clone();
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::Passion,
                        "queue",
                        Some(CreateOptions::default()),
                    )
                    .await
                    .expect("open");
                fh.preallocate(req.end());
                match si {
                    0 => {
                        for &(off, len) in req.extents() {
                            if is_write {
                                fh.write_discard_at(off, len).await.expect("write");
                            } else {
                                fh.read_discard_at(off, len).await.expect("read");
                            }
                        }
                    }
                    1 => {
                        if is_write {
                            fh.writev_discard(&req).await.expect("writev");
                        } else {
                            fh.readv_discard(&req).await.expect("readv");
                        }
                    }
                    _ => {
                        let pieces: Vec<Piece> = req
                            .extents()
                            .iter()
                            .map(|&(off, len)| Piece::synthetic(off, len))
                            .collect();
                        write_collective(&ctx.comm, &fh, pieces)
                            .await
                            .expect("collective");
                    }
                }
                ctx.comm.barrier().await;
            })
        })
    });
    let cell = |wi: usize, si: usize, di: usize| -> &RunResult { &results[(wi * 3 + si) * 5 + di] };
    let io = |wi: usize, si: usize, di: usize| -> f64 { cell(wi, si, di).io_time.as_secs_f64() };

    let mut body = format!("{:<18} {:<12}", "workload", "style");
    for d in depths {
        body.push_str(&format!(" {:>9}", format!("d={d}")));
    }
    body.push('\n');
    let mut fig = TextFigure::new(
        "wall-clock I/O time vs command-queue depth",
        "queue depth",
        "I/O time (s)",
    );
    for (wi, wname) in workloads.iter().enumerate() {
        for (si, sname) in styles.iter().enumerate() {
            body.push_str(&format!("{wname:<18} {sname:<12}"));
            for di in 0..depths.len() {
                body.push_str(&format!(" {:>8.3}s", io(wi, si, di)));
            }
            body.push('\n');
            fig.push(Series::new(
                format!("{wname} / {sname}"),
                depths
                    .iter()
                    .enumerate()
                    .map(|(di, &d)| (d as f64, io(wi, si, di)))
                    .collect::<Vec<_>>(),
            ));
        }
    }

    let mut report = ExperimentReport::new(
        "Extension 9: I/O-node command-queue depth ablation (reverse-interleaved FFT read, BTIO dump)",
    );
    report.push_body(&body);
    report.push_figure(fig);
    report.push(Comparison::claim(
        "depth > 1 strictly reduces the FFT column-read fragment-loop I/O time",
        "the elevator re-sorts the ranks' backward-interleaved reads into sequential sweeps (extension)",
        (1..depths.len()).all(|di| io(0, 0, di) < io(0, 0, 0)),
    ));
    report.push(Comparison::claim(
        "depth > 1 strictly reduces the BTIO dump fragment-loop I/O time",
        "same mechanism on the interleaved 512-byte cell writes (extension)",
        (1..depths.len()).all(|di| io(1, 0, di) < io(1, 0, 0)),
    ));
    report.push(Comparison::claim(
        "deeper queues never increase simulated I/O time on these workloads",
        "reordering is only applied when it does not lose the head position (extension)",
        (0..workloads.len()).all(|wi| {
            (0..styles.len())
                .all(|si| (1..depths.len()).all(|di| io(wi, si, di) <= io(wi, si, di - 1) * 1.001))
        }),
    ));
    // The once-per-round invariant: with queue depth > 1 the batched
    // collective books each touched I/O node exactly once per round.
    let unit = presets::paragon_large().default_stripe_unit;
    let once_per_round = (0..workloads.len()).all(|wi| {
        let end = (0..procs).map(|r| build(wi, r).end()).max().expect("ranks");
        let touched = (end.div_ceil(unit) as usize).min(io_nodes) as u64;
        (1..depths.len()).all(|di| {
            let q = &cell(wi, 2, di).queue;
            q.collective_rounds > 0 && q.bookings == q.collective_rounds * touched
        })
    });
    report.push(Comparison::claim(
        "a batched collective books each I/O node exactly once per round",
        "aggregators own whole I/O nodes, so bookings = rounds x touched nodes (extension)",
        once_per_round,
    ));
    report
}

/// The data-sieving read-modify-write pattern of `ext2`, on a machine
/// with `cache_mb` megabytes of per-I/O-node buffer cache. Returns
/// (I/O time in seconds, cache hit rate).
fn run_sieve_cached(cache_mb: u64) -> (f64, f64) {
    let procs = 4usize;
    let records_per_rank = 200u64;
    let record = 512u64;
    let stride = 2048u64;
    let mcfg =
        iosim_apps::common::with_cache_mb(presets::sp2().with_compute_nodes(procs), cache_mb);
    let res = run_ranks(mcfg, procs, move |ctx| {
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::UnixStyle,
                    "sieve-cache",
                    Some(CreateOptions::default()),
                )
                .await
                .expect("open");
            let pieces: Vec<Piece> = (0..records_per_rank)
                .map(|k| Piece::synthetic(k * stride + ctx.rank as u64 * record, record))
                .collect();
            write_sieved(&fh, pieces).await.expect("sieve");
            ctx.comm.barrier().await;
        })
    });
    (res.io_time.as_secs_f64(), res.cache.hit_rate())
}

/// Extension 10: open-loop overload sweep. Thousands of independent
/// clients offer load at a fixed rate regardless of completions (the
/// workload crate's open-loop generator), so latency and achieved
/// throughput can be measured *through* the saturation knee — something
/// the paper's closed-loop applications cannot show. Sweeps aggregate
/// offered rate against the paper's optimization repertoire: buffer
/// cache, list-I/O, NCQ-style queue depth, and two-phase exchange
/// windows. The headline shape: an optimization's advantage is a
/// property of the operating point, not of the technique — caching and
/// list-I/O look dramatic at low load and shrink (or invert) once the
/// disks saturate, while deeper queues only start paying off *at* the
/// knee, where a backlog exists to reorder.
pub fn ext_overload(scale: f64) -> ExperimentReport {
    use iosim_apps::common::{with_cache_mb, with_queue_depth};
    use iosim_simkit::time::SimDuration;
    use iosim_workload::{run_open_loop, saturation_knee, ReplaySpec, SweepPoint, SynthSpec};

    // Per-client Poisson rates; x24 clients for the aggregate offered
    // rate. The ladder is chosen to straddle the 2-I/O-node Paragon's
    // capacity (tens of ops/s at 32 KB) for every configuration. The
    // window is fixed rather than scaled: overload ratios only reach
    // their asymptotic shape once the backlog dwarfs per-op service
    // time, and the whole sweep costs tens of host milliseconds anyway.
    let _ = scale;
    let rates = [0.25f64, 1.0, 4.0, 16.0];
    let duration = 2.0;
    let machine = presets::paragon_small;
    let configs: Vec<(&'static str, ReplaySpec)> = vec![
        ("direct", ReplaySpec::direct(machine())),
        (
            "direct + 4 MB cache",
            ReplaySpec::direct(with_cache_mb(machine(), 4)),
        ),
        ("list-I/O", ReplaySpec::list_io(machine(), 8)),
        (
            "direct + queue depth 8",
            ReplaySpec::direct(with_queue_depth(machine(), 8)),
        ),
        (
            "two-phase (window 16)",
            ReplaySpec::two_phase(machine(), 16),
        ),
    ];
    let jobs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..rates.len()).map(move |r| (c, r)))
        .collect();
    let cells = map_parallel(jobs, default_threads(), |&(c, r)| {
        let mut synth = SynthSpec::small(rates[r], 4242);
        synth.clients = 24;
        synth.duration = SimDuration::from_secs_f64(duration);
        synth.op_bytes = 32 << 10;
        synth.fragments = 4;
        synth.files = 2;
        synth.file_bytes = 8 << 20;
        run_open_loop(&synth, &configs[c].1).sweep_point()
    });
    let sweeps: Vec<Vec<SweepPoint>> = (0..configs.len())
        .map(|c| cells[c * rates.len()..(c + 1) * rates.len()].to_vec())
        .collect();

    let mut report = ExperimentReport::new(
        "Extension 10: open-loop overload — offered load vs achieved throughput and tail latency \
         (24 clients, 32 KB strided ops, Paragon 2 I/O nodes)",
    );
    report.push_body("config | knee (ops/s offered) | achieved@max | p99@low (ms) | p99@max (ms)");
    report.push_body("-------|----------------------|--------------|--------------|-------------");
    let mut knees = Vec::new();
    for (i, (name, _)) in configs.iter().enumerate() {
        let s = &sweeps[i];
        let knee = saturation_knee(s);
        knees.push(knee);
        report.push_body(&format!(
            "{} | {} | {:.1} | {:.2} | {:.1}",
            name,
            match knee {
                Some(k) => format!("{:.0}", s[k].offered),
                None => "none".into(),
            },
            s[s.len() - 1].achieved,
            s[0].p99_ms,
            s[s.len() - 1].p99_ms,
        ));
    }
    let mut fig = TextFigure::new(
        "achieved vs offered rate (ops/s)",
        "offered (ops/s)",
        "achieved (ops/s)",
    );
    for (i, (name, _)) in configs.iter().enumerate() {
        fig.push(Series::new(
            *name,
            sweeps[i].iter().map(|p| (p.offered, p.achieved)).collect(),
        ));
    }
    report.push_figure(fig);
    let mut fig = TextFigure::new("p99 latency vs offered rate", "offered (ops/s)", "p99 (ms)");
    for (i, (name, _)) in configs.iter().enumerate() {
        fig.push(Series::new(
            *name,
            sweeps[i].iter().map(|p| (p.offered, p.p99_ms)).collect(),
        ));
    }
    report.push_figure(fig);

    // Advantage of configuration `i` over the direct baseline at sweep
    // index `r`, measured on tail latency (higher = better). The direct
    // baseline's knee sits at index 1 of the rate ladder; `last` is deep
    // overload (~12x the baseline's capacity).
    let adv = |i: usize, r: usize| sweeps[0][r].p99_ms / sweeps[i][r].p99_ms;
    let knee_ix = 1;
    let last = rates.len() - 1;
    report.push(Comparison::claim(
        "every configuration reaches a measured saturation knee within the sweep",
        "open-loop arrivals keep offering load past capacity (extension; no paper value)",
        knees.iter().all(|k| k.is_some()),
    ));
    report.push(Comparison::claim(
        "the buffer cache's tail-latency advantage shrinks as overload deepens past the knee",
        "write-behind absorbs bursts only until the dirty buffer itself saturates (extension)",
        adv(1, knee_ix) > adv(1, last),
    ));
    report.push(Comparison::claim(
        "list-I/O's tail-latency advantage shrinks as overload deepens past the knee",
        "coalescing buys a fixed per-op saving, while queueing delay grows without bound (extension)",
        adv(2, knee_ix) > adv(2, last),
    ));
    report.push(Comparison::claim(
        "the queue-depth advantage inverts at the knee: elevator reordering worsens p99 vs FIFO",
        "reordering for throughput starves whichever op sits at the wrong end of the sweep (extension)",
        sweeps[3][knee_ix].p99_ms > sweeps[0][knee_ix].p99_ms,
    ));
    report.push(Comparison::claim(
        "two-phase exchange windows hurt the tail at low load yet sustain higher throughput at max load",
        "window batching trades per-op latency for scheduling freedom (extension)",
        adv(4, 0) < 1.0 && sweeps[4][last].achieved > sweeps[0][last].achieved,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::scf11::assert_shape;

    #[test]
    fn listio_ablation_extension_holds() {
        let r = ext_listio_ablation(1.0);
        assert_shape(&r);
    }

    #[test]
    fn queue_ablation_extension_holds() {
        let r = ext_queue_ablation(1.0);
        assert_shape(&r);
    }

    #[test]
    fn cache_ablation_extension_holds() {
        let r = ext_cache_ablation(1.0);
        assert_shape(&r);
    }

    #[test]
    fn modern_hardware_extension_holds() {
        let r = ext_modern_hardware(1.0);
        assert_shape(&r);
    }

    #[test]
    fn disk_vs_recompute_crossover_holds() {
        let r = ext_disk_vs_recompute(0.05);
        assert_shape(&r);
    }

    #[test]
    fn link_contention_extension_holds() {
        let r = ext_link_contention(1.0);
        assert_shape(&r);
    }

    #[test]
    fn hotspot_extension_holds() {
        let r = ext_hotspot(0.05);
        assert_shape(&r);
    }

    #[test]
    fn sieve_extension_holds() {
        let r = ext_sieve_vs_two_phase(1.0);
        assert_shape(&r);
    }

    #[test]
    fn collective_buffer_extension_holds() {
        let r = ext_collective_buffer(1.0);
        assert_shape(&r);
    }

    #[test]
    fn overload_extension_holds() {
        let r = ext_overload(1.0);
        assert_shape(&r);
    }
}
