//! The `repro` and `calibrate` binaries reject a scale that is not a
//! finite number above zero, and `calibrate` rejects extra arguments:
//! each prints a one-line message and exits 2 before simulating
//! anything, as the `iosim` CLI does.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: printed a report");
}

const BAD_SCALES: [&str; 6] = ["0", "-1", "NaN", "inf", "-inf", "abc"];

#[test]
fn repro_rejects_bad_scales() {
    let bin = env!("CARGO_BIN_EXE_repro");
    for bad in BAD_SCALES {
        assert_rejected(bin, &["fig5", "--scale", bad], "scale must be");
    }
    assert_rejected(bin, &["fig5", "--scale"], "--scale needs a number");
}

#[test]
fn calibrate_rejects_bad_scales_and_extra_arguments() {
    let bin = env!("CARGO_BIN_EXE_calibrate");
    for bad in BAD_SCALES {
        assert_rejected(bin, &[bad], "scale must be");
    }
    assert_rejected(bin, &["0.1", "extra"], "unexpected argument 'extra'");
}
