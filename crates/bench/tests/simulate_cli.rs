//! The `simulate` command line rejects bad input through its `die()` path:
//! exit code 2, a message starting with `error:`, and never a panic or a
//! silently substituted default.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "a test fails loudly if the binary cannot start"
)]
fn simulate(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args.split_whitespace())
        .output()
        .expect("the simulate binary runs")
}

/// A tiny valid run, prefixed to the cases that test one option only.
const TINY: &str = "--org raid5 --trace trace2 --scale 0.01";

#[test]
fn bad_input_is_a_clean_error() {
    // A trace file whose one run ends past u64::MAX: the end must not wrap
    // into an inferred zero-block disk that the run then fits.
    let overflow = std::env::temp_dir().join(format!("simulate-cli-{}.trace", std::process::id()));
    std::fs::write(&overflow, "5 0 18446744073709551615 1 R\n").expect("temp trace written");
    let cases = [
        // A misspelt option, and a valued option with no value.
        format!("{TINY} --cahce 16"),
        format!("{TINY} --cache"),
        // Scale outside (0, 1], for either trace.
        "--org raid5 --trace trace1 --scale -1".to_string(),
        "--org raid5 --trace trace1 --scale nan".to_string(),
        "--org raid5 --trace trace2 --scale 5".to_string(),
        // Speed that is not finite and positive.
        format!("{TINY} --speed 0"),
        format!("{TINY} --speed -2"),
        format!("{TINY} --speed nan"),
        format!("{TINY} --speed inf"),
        // A fault time whose conversion to milliseconds overflows.
        format!("{TINY} --allow-idle-faults --fail-disk 3@99999999999999999s"),
        // A trace file the parser must reject.
        format!("--org base --trace-file {}", overflow.display()),
    ];
    for args in &cases {
        let out = simulate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{args}`: {stderr}");
        assert!(stderr.starts_with("error:"), "`{args}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`{args}`: {stderr}");
    }
    let _ = std::fs::remove_file(&overflow);
}

#[test]
fn valid_flags_are_accepted() {
    let args = format!("{TINY} --phases --spare");
    let out = simulate(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "`{args}`: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("phases reads"));
}
