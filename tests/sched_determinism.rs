//! Scheduler-rewrite regression suite: snapshot oracle for the executor.
//!
//! Every row runs one of the five applications at a fixed small
//! configuration (queue depth 1 and 16, cache off and 4 MB/node) and
//! asserts against committed snapshots:
//!
//! - **Virtual times** (`exec_ns`, `io_ns`) were captured on the
//!   pre-rewrite executor (`Arc<Mutex<VecDeque>>` ready queue + `HashMap`
//!   task store) and must stay **bit-identical** — the scheduler hot-path
//!   rewrite (slab tasks, cached vtable wakers, wake dedup, batched timer
//!   pops) is not allowed to change any simulated observable.
//! - **Poll counts and schedule fingerprints** (`events`, `fingerprint`)
//!   are the current executor's schedule, committed as the go-forward
//!   oracle: any future scheduler change that reorders or duplicates
//!   polls trips this suite and must update the constants consciously.
//!   (They are *not* the pre-rewrite values: wake deduplication
//!   intentionally eliminates spurious duplicate polls, so the poll
//!   sequence differs from the old executor while every virtual-time
//!   output is unchanged. Same-instant timers are still woken one at a
//!   time with a full ready-queue drain in between, exactly like the old
//!   executor, so timer delivery itself introduces no reordering.)
//! - **Batched collectives re-pinned `events` and `fingerprint`** on
//!   the scf30 and ast rows, the only ones whose poll count moved when
//!   `allgather`, `alltoallv`, `gather` and `bcast` began posting a
//!   rank's sends together and taking its receives together. They poll
//!   less and in a different order, while every `exec_ns` and `io_ns`
//!   above stayed bit-identical.

use iosim::apps::{ast, btio, fft, scf11, scf30, RunResult};

/// (app, queue_depth, cache_mb, exec_ns, io_ns, events, fingerprint).
///
/// `exec_ns`/`io_ns` captured pre-rewrite (commit 816e7cf), verified
/// bit-identical post-rewrite; `events`/`fingerprint` captured on the
/// rewritten executor.
const SNAPSHOTS: &[(&str, usize, u64, u64, u64, u64, u64)] = &[
    (
        "scf11",
        1,
        0,
        7098785486,
        4705258281,
        1381,
        0xa4034c76184e8c31,
    ),
    (
        "scf30",
        1,
        0,
        6271400042,
        1310298634,
        915,
        0x3a28afe3a042a5a6,
    ),
    ("fft", 1, 0, 481400667, 465548400, 129, 0x0ec03098599c90a5),
    (
        "btio",
        1,
        0,
        2955758036,
        1804308479,
        4751,
        0x72982d8df22e0964,
    ),
    ("ast", 1, 0, 516965850, 223260700, 154, 0x4e287b0c70e8c3a4),
    (
        "scf11",
        1,
        4,
        6609132346,
        3086406426,
        1385,
        0xaefe391760e99e15,
    ),
    (
        "scf30",
        1,
        4,
        5783269823,
        863600524,
        921,
        0x862e79685ee4f4ef,
    ),
    ("fft", 1, 4, 328787467, 312901200, 127, 0x9d5de67a09566ea5),
    (
        "btio",
        1,
        4,
        1888110076,
        723070076,
        4751,
        0xdc8f49df6407c6e4,
    ),
    ("ast", 1, 4, 427972050, 134279200, 147, 0x3e4f9642c3322c27),
    (
        "scf11",
        16,
        0,
        7060661099,
        4681751281,
        2215,
        0x53acb10b7c6b268d,
    ),
    (
        "scf30",
        16,
        0,
        6271400042,
        1310298634,
        1725,
        0x93bab8ffc7205eab,
    ),
    ("fft", 16, 0, 481400667, 465548400, 209, 0x29f884b523ff9167),
    (
        "btio",
        16,
        0,
        2921966229,
        1759551743,
        10127,
        0x10801220d0dc1480,
    ),
    ("ast", 16, 0, 482414750, 124254400, 156, 0x9fea36e4f7aa0c67),
    (
        "scf11",
        16,
        4,
        6609132346,
        3086406426,
        1385,
        0xaefe391760e99e15,
    ),
    (
        "scf30",
        16,
        4,
        5783269823,
        863600524,
        921,
        0x862e79685ee4f4ef,
    ),
    ("fft", 16, 4, 328787467, 312901200, 127, 0x9d5de67a09566ea5),
    (
        "btio",
        16,
        4,
        1888110076,
        723070076,
        4751,
        0xdc8f49df6407c6e4,
    ),
    ("ast", 16, 4, 430638750, 98366400, 128, 0xd3109bed508fa7e7),
];

fn run_app(app: &str, depth: usize, cache: u64) -> RunResult {
    match app {
        "scf11" => {
            scf11::run(&scf11::Scf11Config {
                scale: 0.02,
                cache_mb: cache,
                queue_depth: depth,
                ..scf11::Scf11Config::new(
                    scf11::ScfInput::Small,
                    scf11::Scf11Version::PassionPrefetch,
                )
            })
            .run
        }
        "scf30" => {
            scf30::run(&scf30::Scf30Config {
                scale: 0.02,
                cache_mb: cache,
                queue_depth: depth,
                ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
            })
            .run
        }
        "fft" => fft::run(&fft::FftConfig {
            cache_mb: cache,
            queue_depth: depth,
            ..fft::FftConfig::new(128, 4, true)
        }),
        "btio" => btio::run(&btio::BtioConfig {
            dumps: 2,
            cache_mb: cache,
            queue_depth: depth,
            ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, false)
        }),
        "ast" => ast::run(&ast::AstConfig {
            grid: 64,
            arrays: 2,
            dumps: 2,
            cache_mb: cache,
            queue_depth: depth,
            ..ast::AstConfig::new(4, 16, true)
        }),
        other => panic!("unknown app {other}"),
    }
}

fn check_rows(rows: impl Iterator<Item = &'static (&'static str, usize, u64, u64, u64, u64, u64)>) {
    for &(app, depth, cache, exec_ns, io_ns, events, fingerprint) in rows {
        let r = run_app(app, depth, cache);
        let tag = format!("{app} depth={depth} cache={cache}MB");
        assert_eq!(
            r.exec_time.as_nanos(),
            exec_ns,
            "{tag}: exec_time drifted from pre-rewrite snapshot"
        );
        assert_eq!(
            r.io_time.as_nanos(),
            io_ns,
            "{tag}: io_time drifted from pre-rewrite snapshot"
        );
        assert_eq!(r.sim_events, events, "{tag}: poll count changed");
        assert_eq!(
            r.sched_fingerprint, fingerprint,
            "{tag}: schedule order changed"
        );
    }
}

// The matrix is split across four tests so failures localize and the
// runs spread over test threads.

#[test]
fn snapshots_depth1_uncached() {
    check_rows(SNAPSHOTS.iter().filter(|r| r.1 == 1 && r.2 == 0));
}

#[test]
fn snapshots_depth1_cached() {
    check_rows(SNAPSHOTS.iter().filter(|r| r.1 == 1 && r.2 == 4));
}

#[test]
fn snapshots_depth16_uncached() {
    check_rows(SNAPSHOTS.iter().filter(|r| r.1 == 16 && r.2 == 0));
}

#[test]
fn snapshots_depth16_cached() {
    check_rows(SNAPSHOTS.iter().filter(|r| r.1 == 16 && r.2 == 4));
}

#[test]
fn fingerprint_is_stable_across_repeat_runs() {
    let a = run_app("fft", 1, 0);
    let b = run_app("fft", 1, 0);
    assert_eq!(a.sched_fingerprint, b.sched_fingerprint);
    assert_eq!(a.sim_events, b.sim_events);
}
