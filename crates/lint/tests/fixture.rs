//! End-to-end acceptance for `gpma-lint`: the committed fixture crate must
//! trip every rule class, and the real workspace must scan clean.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root above crates/lint")
        .to_path_buf()
}

fn lint(root: &Path) -> Vec<gpma_lint::Violation> {
    let cfg = gpma_lint::Config::load(&root.join("lint.toml"));
    gpma_lint::lint_root(root, &cfg).expect("scan succeeds")
}

#[test]
fn fixture_trips_every_rule_class() {
    let violations = lint(&repo_root().join("tools/lint-fixture"));
    for rule in [
        "hot-path-alloc",
        "worker-panic",
        "lock-order",
        "missing-docs",
        "missing-docs-attr",
        "thread-sleep",
        "lane-inline",
        "unused-allow",
    ] {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "fixture did not trip `{rule}`; got: {violations:?}"
        );
    }
    assert!(
        violations.iter().any(|v| v.rule == "thread-sleep" && v.item == "poll_for_ack"),
        "fixture's timed `recv_timeout` poll not flagged; got: {violations:?}"
    );
    // The visitor flavor of `lane-inline`: the bare trait-impl walk is
    // flagged, the one with `#[inline]` is not.
    let visitors: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "lane-inline" && v.item.starts_with("for_each_"))
        .map(|v| v.item.as_str())
        .collect();
    assert_eq!(visitors, ["for_each_neighbor"], "got: {violations:?}");
    let stale: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "unused-allow")
        .map(|v| (v.file.as_str(), v.item.as_str()))
        .collect();
    assert_eq!(
        stale,
        [("lint.toml", "worker-panic:src/lib.rs:renamed_away")],
        "got: {violations:?}"
    );
}

#[test]
fn workspace_is_clean() {
    let violations = lint(&repo_root());
    assert!(
        violations.is_empty(),
        "workspace lint regressions:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
