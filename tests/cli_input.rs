//! The `iosim` binary rejects bad command-line input with a one-line
//! error and exit status 2, before any machine is built: no panic
//! (status 101) and no silent acceptance (status 0).

use std::process::Command;

fn iosim(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_iosim"))
        .args(args)
        .output()
        .expect("run iosim");
    let code = out.status.code().expect("exited, not killed");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(args: &[&str], needle: &str) {
    let (code, stderr) = iosim(args);
    assert_eq!(code, 2, "iosim {args:?} exited {code}: {stderr}");
    assert_eq!(
        stderr.lines().count(),
        1,
        "iosim {args:?} must print one line: {stderr}"
    );
    assert!(
        stderr.starts_with("iosim: ") && stderr.contains(needle),
        "iosim {args:?}: expected {needle:?} in {stderr:?}"
    );
}

#[test]
fn zero_counts_are_rejected_not_panicked_on() {
    assert_rejected(&["btio", "--procs", "0"], "--procs must be greater than 0");
    assert_rejected(
        &["synth", "--clients", "0"],
        "--clients must be greater than 0",
    );
    assert_rejected(
        &["scf11", "--io-nodes", "0"],
        "--io-nodes must be greater than 0",
    );
}

#[test]
fn unknown_flags_and_negative_scales_are_rejected() {
    assert_rejected(&["fft", "--bogus", "3"], "unknown flag --bogus for fft");
    assert_rejected(
        &["scf11", "--scale", "-1"],
        "--scale must be greater than 0",
    );
}

#[test]
fn out_of_range_values_are_rejected() {
    assert_rejected(&["scf11", "--scale", "inf"], "--scale must be finite");
    assert_rejected(
        &["synth", "--read-frac", "1.5"],
        "--read-frac must be in [0, 1]",
    );
    assert_rejected(
        &["scf30", "--cached", "101"],
        "--cached must be at most 100",
    );
    assert_rejected(&["btio", "--class", "0"], "positive grid size");
    assert_rejected(
        &["sweep", "--workload", "synth", "--scale", "2"],
        "--scale must be in (0, 1]",
    );
}

#[test]
fn valid_input_still_runs() {
    let (code, stderr) = iosim(&["btio", "--class", "8", "--procs", "4", "--dumps", "1"]);
    assert_eq!(code, 0, "{stderr}");
}
