//! Zero-copy data-plane regression suite: snapshot oracle for the
//! buffer rewrite.
//!
//! Every row runs one application at a fixed stored-mode configuration
//! and asserts against constants captured on the pre-rewrite data plane
//! (flat `Vec<u8>` payloads and per-file byte vectors, commit 4962e8e):
//!
//! - **Virtual times, poll counts and schedule fingerprints** must stay
//!   bit-identical: sharing buffers instead of copying them is not
//!   allowed to change any simulated observable. The poll counts and
//!   fingerprints of scf30 and ast were re-pinned when the collectives
//!   began posting a rank's sends together and taking its receives
//!   together, which removes polls and reorders them; their virtual
//!   times and stored bytes did not move.
//! - **Stored file contents** (length + FNV-1a hash of the captured
//!   dump file) must stay bit-identical: extent trees and rope slicing
//!   must produce exactly the bytes the flat store produced.
//! - **Bytes memcpy'd** (the `iosim_buf::tally` counter) must *drop*:
//!   strictly below the pre-rewrite count for every app that moved real
//!   data, and at least 2x lower for FFT and BTIO, whose data planes
//!   are dominated by payload shuffling the rewrite eliminates.
//!
//! Bytes-allocated is not pinned exactly (it is an implementation
//! detail of scratch-buffer strategy) but may not grow above baseline,
//! and must stay non-zero (bytes and buffers) for every app that
//! allocated before the rewrite, so an unwired tally fails here.

use iosim::apps::{ast, btio, fft, scf11, scf30, RunResult};
use iosim::buf::{fnv1a, tally};

/// One pre-rewrite recording — all fields captured on the flat-`Vec<u8>`
/// data plane at the configurations in `run_app`.
struct Baseline {
    app: &'static str,
    exec_ns: u64,
    io_ns: u64,
    events: u64,
    fingerprint: u64,
    stored_len: u64,
    stored_fnv1a: u64,
    bytes_alloc: u64,
    bytes_copied: u64,
}

const BASELINES: &[Baseline] = &[
    Baseline {
        app: "scf11",
        exec_ns: 7098785486,
        io_ns: 4705258281,
        events: 1381,
        fingerprint: 0xa4034c76184e8c31,
        stored_len: 0,
        stored_fnv1a: 0,
        bytes_alloc: 0,
        bytes_copied: 0,
    },
    Baseline {
        app: "scf30",
        exec_ns: 6271400042,
        io_ns: 1310298634,
        events: 915,
        fingerprint: 0x3a28afe3a042a5a6,
        stored_len: 0,
        stored_fnv1a: 0,
        bytes_alloc: 448,
        bytes_copied: 448,
    },
    Baseline {
        app: "fft",
        exec_ns: 650474867,
        io_ns: 578260800,
        events: 138,
        fingerprint: 0x0c08e313c0da7c45,
        stored_len: 262144,
        stored_fnv1a: 0x968ee5643c6d3115,
        bytes_alloc: 3670016,
        bytes_copied: 4194304,
    },
    Baseline {
        app: "btio",
        exec_ns: 3036292187,
        io_ns: 1871292187,
        events: 4746,
        fingerprint: 0x06bbb9be3ce15845,
        stored_len: 327680,
        stored_fnv1a: 0xaa2d3592eb34e93e,
        bytes_alloc: 655360,
        bytes_copied: 655360,
    },
    Baseline {
        app: "ast",
        exec_ns: 619019250,
        io_ns: 284353500,
        events: 148,
        fingerprint: 0xa49c7746c50ce885,
        stored_len: 131072,
        stored_fnv1a: 0xa0c1a754bbd447a5,
        bytes_alloc: 935680,
        bytes_copied: 1053952,
    },
];

/// Run one app at the oracle configuration, returning the run result
/// plus the captured stored-file length and FNV-1a hash (0, 0 for the
/// SCF codes, which run synthetic).
fn run_app(app: &str) -> (RunResult, u64, u64) {
    match app {
        "scf11" => {
            let r = scf11::run(&scf11::Scf11Config {
                scale: 0.02,
                ..scf11::Scf11Config::new(
                    scf11::ScfInput::Small,
                    scf11::Scf11Version::PassionPrefetch,
                )
            });
            (r.run, 0, 0)
        }
        "scf30" => {
            let r = scf30::run(&scf30::Scf30Config {
                scale: 0.02,
                ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
            });
            (r.run, 0, 0)
        }
        "fft" => {
            let (r, b) = fft::run_capture(&fft::FftConfig {
                stored: true,
                ..fft::FftConfig::new(128, 4, true)
            });
            (r, b.len() as u64, fnv1a(b.iter().copied()))
        }
        "btio" => {
            let (r, b) = btio::run_capture(&btio::BtioConfig {
                dumps: 2,
                stored: true,
                ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, false)
            });
            (r, b.len(), fnv1a(b.iter_bytes()))
        }
        "ast" => {
            let (r, b) = ast::run_capture(&ast::AstConfig {
                grid: 64,
                arrays: 2,
                dumps: 2,
                stored: true,
                ..ast::AstConfig::new(4, 16, true)
            });
            (r, b.len(), fnv1a(b.iter_bytes()))
        }
        other => panic!("unknown app {other}"),
    }
}

#[test]
fn data_plane_rewrite_is_invisible_to_the_simulation() {
    for &Baseline {
        app,
        exec_ns,
        io_ns,
        events,
        fingerprint,
        stored_len,
        stored_fnv1a: stored_hash,
        bytes_alloc: base_alloc,
        bytes_copied: base_copied,
    } in BASELINES
    {
        tally::reset();
        let (r, len, hash) = run_app(app);
        let t = tally::snapshot();
        println!(
            "{app}: alloc={} copied={} buffers={} (baseline alloc={base_alloc} copied={base_copied})",
            t.bytes_allocated, t.bytes_copied, t.buffers_allocated
        );
        assert_eq!(
            r.exec_time.as_nanos(),
            exec_ns,
            "{app}: exec_time drifted from pre-rewrite data plane"
        );
        assert_eq!(
            r.io_time.as_nanos(),
            io_ns,
            "{app}: io_time drifted from pre-rewrite data plane"
        );
        assert_eq!(r.sim_events, events, "{app}: poll count changed");
        assert_eq!(
            r.sched_fingerprint, fingerprint,
            "{app}: schedule order changed"
        );
        assert_eq!(len, stored_len, "{app}: stored file length changed");
        assert_eq!(hash, stored_hash, "{app}: stored file bytes changed");
        assert!(
            t.bytes_allocated <= base_alloc,
            "{app}: bytes allocated grew ({} > {base_alloc})",
            t.bytes_allocated
        );
        if base_alloc > 0 {
            // An app that allocated data buffers before the rewrite still
            // does; all-zero counters mean the tally came unwired, which
            // the upper bounds above would wave through.
            assert!(
                t.bytes_allocated > 0 && t.buffers_allocated > 0,
                "{app}: data-plane tally reads zero (alloc={} buffers={})",
                t.bytes_allocated,
                t.buffers_allocated
            );
        }
        if base_copied > 0 {
            assert!(
                t.bytes_copied < base_copied,
                "{app}: bytes copied did not drop ({} >= {base_copied})",
                t.bytes_copied
            );
        } else {
            assert_eq!(t.bytes_copied, 0, "{app}: copies appeared from nowhere");
        }
        if app == "fft" || app == "btio" {
            assert!(
                t.bytes_copied * 2 <= base_copied,
                "{app}: rewrite must at least halve bytes copied ({} vs {base_copied})",
                t.bytes_copied
            );
        }
    }
}
