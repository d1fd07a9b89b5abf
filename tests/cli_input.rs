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
    // Host threads are no run option: one simulation gives one answer.
    for app in ["scf11", "scf30", "fft", "btio", "ast", "replay", "synth"] {
        assert_rejected(
            &[app, "--threads", "2"],
            &format!("unknown flag --threads for {app}"),
        );
    }
    for app in ["sweep", "advise"] {
        assert_rejected(
            &[app, "--threads-hint", "1,2"],
            &format!("unknown flag --threads-hint for {app}"),
        );
    }
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

/// The `--flag` names on the `advise:` entry of `iosim --help` (its
/// first line plus the indented continuation lines).
fn advise_help_flags() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_iosim"))
        .arg("--help")
        .output()
        .expect("run iosim --help");
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut lines = help.lines().skip_while(|l| !l.starts_with("advise:"));
    let first = lines.next().expect("--help has an advise: entry");
    let entry = std::iter::once(first).chain(lines.take_while(|l| l.starts_with(' ')));
    entry
        .flat_map(str::split_whitespace)
        .filter_map(|w| w.trim_start_matches('[').strip_prefix("--"))
        .map(|f| f.trim_end_matches(']').to_string())
        .collect()
}

#[test]
fn advise_accepts_every_flag_its_help_names() {
    let flags = advise_help_flags();
    assert_eq!(flags.len(), 11, "advise help flags: {flags:?}");
    for flag in &flags {
        // A value no flag takes: the run must stop on the value (exit 2,
        // before any simulation), never on the flag name.
        let arg = format!("--{flag}");
        let (code, stderr) = iosim(&["advise", &arg, "x"]);
        assert_eq!(code, 2, "advise {arg} x exited {code}: {stderr}");
        assert!(
            !stderr.contains("unknown flag"),
            "advise rejects {arg}, which its help names: {stderr}"
        );
    }
}
