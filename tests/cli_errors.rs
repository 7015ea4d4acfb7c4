//! `cfd` prints its usage text after a usage error only: an unknown
//! command or option, a missing value or a bad value. Any other failure
//! prints its one `error:` line.

use std::process::{Command, Output};

fn cfd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfd"))
        .args(args)
        .output()
        .expect("cfd runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn runtime_errors_print_one_line_without_usage() {
    let out = cfd(&["sweep", "--scenario", "/nonexistent.toml"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.starts_with("error: --scenario: "), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn usage_errors_print_the_usage_text() {
    for args in [
        &["sweep", "--bogus"][..],
        &["frobnicate"],
        &["sweep"],
        &["run", "--shards", "0"],
        &["size", "--algo", "tbf", "--window", "lots"],
    ] {
        let out = cfd(args);
        assert!(!out.status.success(), "{args:?}");
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains("\nusage: cfd <command>"), "{args:?}: {err}");
    }
}
