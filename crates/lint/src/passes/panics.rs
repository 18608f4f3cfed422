//! `panic-path` — no reachable panic in server code.
//!
//! A panic in a connection thread tears down that client; a panic under
//! a lock poisons it for everyone. Server paths must propagate errors
//! (`StoreError`, `ClientError`, `ProtocolError`) instead. The pass
//! flags `.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`, `todo!(`
//! and `unimplemented!(` in non-test lines of the three serving crates
//! and of the `pl_labeling` modules a server decodes through: the bit
//! reader, the label container parser (which reads `.plab` files and
//! `LABELS` frame bodies), the prelude, the tag dispatch and the
//! decoder of every served scheme.
//!
//! A site that is *provably* unreachable (an invariant the surrounding
//! code establishes, like a `try_into` on a length-checked slice) may
//! stay, tagged `// lint: panic-ok(<why the panic cannot fire>)` on the
//! same line or the comment line above. The tag is the justification
//! comment the audit requires; untagged sites fail CI.

use crate::{Diagnostic, Pass, Workspace};

const ID: &str = "panic-path";

/// Path prefixes of server code: the serving crates' `src/`, and the
/// label decoders they serve through.
pub const SERVER_PATHS: [&str; 11] = [
    "crates/wire/src/",
    "crates/serve/src/",
    "crates/cluster/src/",
    "crates/labeling/src/bits.rs",
    "crates/labeling/src/label.rs",
    "crates/labeling/src/scheme.rs",
    "crates/labeling/src/codec.rs",
    "crates/labeling/src/baseline.rs",
    "crates/labeling/src/forest.rs",
    "crates/labeling/src/distance.rs",
    "crates/labeling/src/threshold.rs",
];

/// `(needle, what)` pairs; needles are matched against the blanked code
/// view, so occurrences inside strings or comments never count.
const TOKENS: [(&str, &str); 6] = [
    (".unwrap()", "unwrap() on a Result/Option"),
    (".expect(", "expect() on a Result/Option"),
    ("panic!(", "explicit panic!"),
    ("unreachable!(", "unreachable!"),
    ("todo!(", "todo!"),
    ("unimplemented!(", "unimplemented!"),
];

pub struct PanicPath;

impl Pass for PanicPath {
    fn id(&self) -> &'static str {
        ID
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! in non-test server code without a panic-ok tag"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for prefix in SERVER_PATHS {
            for file in ws.files_under(prefix) {
                for (idx, line) in file.lines.iter().enumerate() {
                    if line.in_test {
                        continue;
                    }
                    for (needle, what) in TOKENS {
                        if !line.code.contains(needle) {
                            continue;
                        }
                        if file.has_directive(idx, "panic-ok") {
                            continue;
                        }
                        let token = needle.trim_start_matches('.').trim_end_matches(['(', ')']);
                        out.push(Diagnostic {
                            file: file.path.clone(),
                            line: idx + 1,
                            pass: ID,
                            key: format!("{}:{token}", file.path),
                            message: format!(
                                "{what} in a server path — propagate an error or tag `// lint: panic-ok(reason)`"
                            ),
                        });
                    }
                }
            }
        }
    }
}
