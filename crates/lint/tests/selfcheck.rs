//! The self-run gate: the real workspace must lint clean modulo the
//! committed `lint.allow`. This is the same invariant `ci.sh quick`
//! enforces via the binary; having it as a test means `cargo test`
//! alone catches a regression, and the fixture tests prove the passes
//! would actually fire if it were violated.

use std::path::PathBuf;

use pl_lint::{Allowlist, Workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_clean_modulo_allowlist() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "sanity: the scan found the real workspace, not a stub ({} files)",
        ws.files.len()
    );

    let allow_text =
        std::fs::read_to_string(root.join("lint.allow")).expect("lint.allow is committed");
    let allow = Allowlist::parse("lint.allow", &allow_text).expect("lint.allow parses");
    assert!(
        allow.entries.len() <= 15,
        "lint.allow has grown past 15 entries ({}) — fix findings instead of allowlisting them",
        allow.entries.len()
    );

    let report = pl_lint::run(&ws, &allow, &[]);
    let rendered: Vec<String> = report
        .active
        .iter()
        .map(pl_lint::Diagnostic::render)
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace has {} non-allowlisted lint finding(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

/// A `panic-path` scan path that matches no file would shrink the
/// pass's coverage silently, for example after a file is moved.
#[test]
fn every_panic_path_scan_path_matches_a_file() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    for prefix in pl_lint::passes::panics::SERVER_PATHS {
        assert!(
            ws.files_under(prefix).next().is_some(),
            "panic-path scans `{prefix}`, which matches no file"
        );
    }
}
