//! Keeps the hand-committed docs in sync with the generated sources.
//!
//! The README's algorithm table is the output of
//! [`cfd_core::registry::markdown_table`]; if a backend is added,
//! renamed, or its summary edited, this test fails until the README
//! section is regenerated (`cfd algos` prints the current table).

use std::fs;
use std::path::Path;

#[test]
fn readme_algorithm_table_matches_registry() {
    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md is readable");
    let table = cfd_core::registry::markdown_table();
    assert!(
        readme.contains(&table),
        "README.md's algorithm table is stale — replace it with the \
         output of `cfd algos`:\n\n{table}"
    );
}

#[test]
fn readme_embeds_gateway_cli_usage_verbatim() {
    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md is readable");
    // The binary splices these same constants into `cfd help`, so a
    // README that contains them verbatim cannot drift from the CLI.
    for (name, block) in [
        ("cfd serve", click_fraud_detection::cli::SERVE_USAGE),
        (
            "cfd replay-client",
            click_fraud_detection::cli::REPLAY_USAGE,
        ),
        ("cfd sweep", click_fraud_detection::cli::SWEEP_USAGE),
    ] {
        assert!(
            readme.contains(block),
            "README.md's `{name}` usage block is stale — paste \
             `click_fraud_detection::cli` verbatim:\n\n{block}"
        );
    }
}

#[test]
fn readme_names_every_registered_backend() {
    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md is readable");
    for entry in cfd_core::registry::backends() {
        assert!(
            readme.contains(&format!("`{}`", entry.name)),
            "README.md never mentions registered backend `{}`",
            entry.name
        );
    }
}

#[test]
fn docs_name_only_existing_bench_targets() {
    // A deleted bench binary or Criterion bench must take its doc
    // mentions with it: every `--bin <name>` the docs show is a file in
    // crates/bench/src/bin/, every `--bench <name>` one in
    // crates/bench/benches/.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ];
    let mut checked = 0;
    for doc in docs {
        let text = fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (flag, dir) in [
            ("--bin ", "crates/bench/src/bin"),
            ("--bench ", "crates/bench/benches"),
        ] {
            for (at, _) in text.match_indices(flag) {
                let name: String = text[at + flag.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                if name.is_empty() {
                    continue; // a shell variable such as `--bin $b`
                }
                let file = root.join(dir).join(format!("{name}.rs"));
                assert!(
                    file.is_file(),
                    "{doc} names `{flag}{name}`, but {} does not exist",
                    file.display()
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "no `--bin`/`--bench` mention found in {docs:?}"
    );
}
