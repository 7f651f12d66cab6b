//! The determinism bans clippy enforces must still fire.
//!
//! Hash collections, wall clocks, environment reads and unwrap/expect are
//! checked by clippy, configured in the root `clippy.toml` and the root
//! `Cargo.toml` `[workspace.lints.clippy]`. This test runs `clippy-driver`
//! on `fixtures/clippy/bad.rs` with `CLIPPY_CONF_DIR` pointing at the
//! workspace root, so it reads the real `clippy.toml`, and requires exactly
//! the warnings in `fixtures/clippy/expected.txt`. `fixtures/clippy/good.rs`
//! must be clean, both as a library and as a test crate. Dropping any
//! entry from `clippy.toml`, or either panic lint from the workspace lints,
//! fails this test. A missing `clippy-driver` fails it too: install the
//! toolchain's `clippy` component.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    manifest_dir()
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| panic!("simlint lives at <root>/crates/simlint"))
        .to_path_buf()
}

/// Lint one fixture with `clippy-driver` and return its warnings as
/// `line:col: message`, in output order. Fails if the fixture does not
/// compile.
fn clippy(fixture: &str, extra: &[&str]) -> Vec<String> {
    let src = manifest_dir().join("fixtures/clippy").join(fixture);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("clippy-bans-{fixture}-{}.rmeta", extra.len()));
    let output = Command::new("clippy-driver")
        .env("CLIPPY_CONF_DIR", workspace_root())
        .args(["--edition=2021", "--emit=metadata"])
        .args(extra)
        .arg("-o")
        .arg(&out)
        .args(["-W", "clippy::unwrap_used", "-W", "clippy::expect_used"])
        .arg("--error-format=short")
        .arg(&src)
        .output()
        .unwrap_or_else(|e| {
            panic!(
                "cannot run `clippy-driver` ({e}); the determinism bans live in clippy, \
                 so this check needs the toolchain's clippy component \
                 (`rustup component add clippy`)"
            )
        });
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "clippy-driver failed on {fixture}:\n{stderr}"
    );
    let prefix = format!("{}:", src.display());
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|l| l.replacen(": warning: ", ": ", 1))
        .collect()
}

#[test]
fn bad_fixture_fires_every_ban() {
    let path = manifest_dir().join("fixtures/clippy/expected.txt");
    let expected: Vec<String> = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let got = clippy("bad.rs", &["--crate-type=lib"]);
    assert_eq!(
        got,
        expected,
        "\n  got:\n    {}\n  expected:\n    {}\n",
        got.join("\n    "),
        expected.join("\n    ")
    );
}

#[test]
fn good_fixture_is_clean_as_library_and_as_tests() {
    for extra in [&["--crate-type=lib"][..], &["--test"][..]] {
        let got = clippy("good.rs", extra);
        assert!(got.is_empty(), "good.rs {extra:?}:\n{}", got.join("\n"));
    }
}

#[test]
fn workspace_lints_enable_both_panic_lints() {
    let path = workspace_root().join("Cargo.toml");
    let manifest =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .unwrap_or_else(|| panic!("Cargo.toml has no [workspace.lints.clippy] table"));
    let table = table.split("\n[").next().unwrap_or(table);
    for lint in ["unwrap_used", "expect_used"] {
        let level = table
            .lines()
            .filter_map(|l| l.split_once('='))
            .find(|(k, _)| k.trim() == lint)
            .map(|(_, v)| v.trim().trim_matches('"'));
        assert!(
            matches!(level, Some("warn" | "deny" | "forbid")),
            "[workspace.lints.clippy] must set {lint} to warn or deny, found {level:?}"
        );
    }
}
