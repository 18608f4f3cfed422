//! Refusal test against a committed legacy (`PLL1`) `.plab` fixture.
//!
//! `tests/fixtures/tiny_v1.plab` was written with the per-label `PLL1`
//! container that predates the `PLL2` arena. `PLL2` is now the one
//! label container, so the reader must refuse the old file as a bad
//! magic, and `plab query` must exit 1 with an error that names the
//! supported container rather than panic or misread the bytes.

use std::process::Command;

use pl_labeling::codec::{FormatError, TaggedLabeling};
use pl_labeling::label::WireError;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny_v1.plab");

#[test]
fn v1_fixture_is_refused_as_bad_magic() {
    let bytes = std::fs::read(FIXTURE).expect("fixture file present");
    assert_eq!(
        &bytes[1..5],
        b"PLL1",
        "fixture must stay in the legacy v1 format"
    );
    assert!(
        matches!(
            TaggedLabeling::from_bytes(&bytes),
            Err(FormatError::Wire(WireError::BadMagic))
        ),
        "a PLL1 body must be refused as a bad magic"
    );
}

#[test]
fn query_on_v1_fixture_exits_1_naming_pll2() {
    let out = Command::new(env!("CARGO_BIN_EXE_plab"))
        .args(["query", FIXTURE, "0", "1"])
        .output()
        .expect("plab should launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("PLL2"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
