//! `pl-lint` — a dependency-free static-analysis pass over this
//! workspace's Rust sources and operator docs.
//!
//! The serving stack spans three crates that must agree byte-for-byte
//! on opcodes, status codes, and metric names, plus a lock-free tracing
//! ring whose memory orderings are load-bearing. Golden tests catch a
//! drift *after* it ships a wrong byte; these passes catch it at CI
//! time, before a binary runs:
//!
//! | pass id | proves |
//! |---|---|
//! | `wire-invariants` | opcode/status/version constants are unique, request/reply paired by the `0x80 \| op` convention, mirrored in RELIABILITY.md's matrix, and never re-declared elsewhere |
//! | `panic-path` | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test server code (`crates/{wire,serve,cluster}`, and `crates/labeling/src/{bits,scheme,codec,baseline,forest,distance,threshold}.rs`, the decoders a server answers through) without a `// lint: panic-ok(reason)` tag |
//! | `atomics-ordering` | no `Relaxed` read-modify-write and no `store(Relaxed)`/`load(Acquire)` split on one field without a `// lint: relaxed-ok(reason)` tag |
//! | `metrics-doc-drift` | every `plserve_`/`plcluster_`/`plab_` metric in code is documented in OBSERVABILITY.md and vice versa |
//! | `experiment-drift` | every `eNN_*` harness has an EXPERIMENTS.md §ENN section and vice versa |
//!
//! Intentional exceptions live in `lint.allow` at the workspace root
//! (semantic keys, never line numbers) or as in-source `// lint:` tags;
//! both carry a mandatory justification. A stale `lint.allow` entry is
//! itself a diagnostic, so the exception list can only shrink unless a
//! human re-justifies it.

pub mod allow;
pub mod passes;
pub mod source;
pub mod workspace;

pub use allow::Allowlist;
pub use source::SourceFile;
pub use workspace::Workspace;

use std::time::Instant;

/// One finding. Rendered as `file:line: [pass] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (or a doc file name).
    pub file: String,
    /// 1-based line, 0 when the finding is about a file as a whole.
    pub line: usize,
    /// The pass id, e.g. `wire-invariants`.
    pub pass: &'static str,
    /// Stable semantic key `lint.allow` entries match against — a
    /// constant name, metric name, or `kind:subject` pair, never a line
    /// number.
    pub key: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// The machine-readable rendering, one line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} (key: {})",
            self.file, self.line, self.pass, self.message, self.key
        )
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A pass over the workspace.
pub trait Pass {
    /// Stable identifier, used in diagnostics and `lint.allow`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-passes`.
    fn describe(&self) -> &'static str;
    /// Runs the pass, appending findings to `out`.
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// Every pass, in reporting order.
#[must_use]
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::wire::WireInvariants),
        Box::new(passes::panics::PanicPath),
        Box::new(passes::atomics::AtomicsOrdering),
        Box::new(passes::metrics::MetricsDocDrift),
        Box::new(passes::experiments::ExperimentDrift),
    ]
}

/// Timing for one executed pass.
#[derive(Debug)]
pub struct PassTiming {
    pub id: &'static str,
    pub diagnostics: usize,
    pub micros: u128,
}

/// The outcome of a full run, pre-allowlist-filtering.
#[derive(Debug)]
pub struct RunReport {
    /// Findings that survived the allowlist — these fail CI.
    pub active: Vec<Diagnostic>,
    /// Findings silenced by a `lint.allow` entry.
    pub allowed: Vec<Diagnostic>,
    /// Per-pass wall-clock and finding counts.
    pub timings: Vec<PassTiming>,
}

/// Runs `passes` (all of them when the filter is empty) over `ws`,
/// splits findings against `allow`, and reports stale allowlist entries
/// as `allowlist` diagnostics so exceptions cannot outlive their cause.
#[must_use]
pub fn run(ws: &Workspace, allow: &Allowlist, only: &[String]) -> RunReport {
    let mut active = Vec::new();
    let mut allowed = Vec::new();
    let mut timings = Vec::new();
    let mut used = vec![false; allow.entries.len()];
    for pass in all_passes() {
        if !only.is_empty() && !only.iter().any(|p| p == pass.id()) {
            continue;
        }
        let started = Instant::now();
        let mut found = Vec::new();
        pass.run(ws, &mut found);
        found.sort_by(|a, b| {
            (&a.file, a.line, &a.key)
                .partial_cmp(&(&b.file, b.line, &b.key))
                .expect("total order") // lint: panic-ok(String/usize comparison is total)
        });
        timings.push(PassTiming {
            id: pass.id(),
            diagnostics: found.len(),
            micros: started.elapsed().as_micros(),
        });
        for d in found {
            match allow.matches(&d) {
                Some(idx) => {
                    used[idx] = true;
                    allowed.push(d);
                }
                None => active.push(d),
            }
        }
    }
    // Stale entries only make sense to report on a full run: a filtered
    // run never exercises the other passes' entries.
    if only.is_empty() {
        for (idx, entry) in allow.entries.iter().enumerate() {
            if !used[idx] {
                active.push(Diagnostic {
                    file: allow.path.clone(),
                    line: entry.line,
                    pass: "allowlist",
                    key: format!("{} {}", entry.pass, entry.key),
                    message: format!(
                        "stale allowlist entry `{} {}` matches no finding — delete it",
                        entry.pass, entry.key
                    ),
                });
            }
        }
    }
    RunReport {
        active,
        allowed,
        timings,
    }
}
