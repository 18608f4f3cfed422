//! Deterministic fault injection for the serving path.
//!
//! A production label store has to stay correct when the world around it
//! misbehaves: slow clients, half-written frames, dying connections,
//! bit-flipped response bytes, shard I/O hiccups. This module is the
//! harness that *manufactures* those failures on demand, deterministically,
//! so the chaos experiments (`e20_chaos`, the `ci.sh full` chaos smoke,
//! and `tests/resilience.rs`) can assert the recovery story instead of
//! hoping for it.
//!
//! A [`FaultPlan`] is a seeded set of per-event probabilities. Each
//! accepted connection derives a [`FaultInjector`] from the plan and its
//! connection id, so a fixed `(seed, connection id)` pair always produces
//! the same fault sequence — a failing chaos run replays exactly.
//!
//! Every injected fault increments the
//! `plserve_faults_injected_total{kind=...}` counter family
//! ([`FaultCounters`]) and emits a `serve.fault` trace event, so the
//! injection itself is observable through the same pipeline as the
//! recovery.
//!
//! ## Fault taxonomy (see RELIABILITY.md)
//!
//! | kind          | site                    | what the peer sees              |
//! |---------------|-------------------------|---------------------------------|
//! | `read_delay`  | after bytes arrive      | slow request processing         |
//! | `write_delay` | before a reply frame    | slow responses                  |
//! | `truncate`    | on a reply frame        | partial frame, then close       |
//! | `drop`        | instead of a reply      | connection closed mid-request   |
//! | `flip`        | inside a reply body     | corrupt frame (checksum catches)|
//! | `store_err`   | instead of a store read | `ANS_OVERLOADED` for the query  |

use std::sync::Arc;
use std::time::Duration;

use pl_obs::registry::Counter;
use pl_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kinds of fault the injector can produce, in a fixed order so the
/// counters and the spec parser can iterate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep before processing bytes just read.
    ReadDelay,
    /// Sleep before writing a reply frame.
    WriteDelay,
    /// Write a full-length prefix but only part of the body, then close.
    Truncate,
    /// Close the connection instead of replying.
    Drop,
    /// Flip one byte inside the reply body before writing it.
    Flip,
    /// Answer a query with a simulated shard-store I/O error.
    StoreErr,
}

impl FaultKind {
    /// All kinds, in counter order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::ReadDelay,
        FaultKind::WriteDelay,
        FaultKind::Truncate,
        FaultKind::Drop,
        FaultKind::Flip,
        FaultKind::StoreErr,
    ];

    /// The `kind` label value used on the Prometheus counter family and
    /// the key accepted by [`FaultPlan::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ReadDelay => "read_delay",
            Self::WriteDelay => "write_delay",
            Self::Truncate => "truncate",
            Self::Drop => "drop",
            Self::Flip => "flip",
            Self::StoreErr => "store_err",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL") // lint: panic-ok(ALL enumerates every variant; the exhaustiveness test below keeps it that way)
    }
}

/// A seeded, declarative description of which faults to inject how often.
///
/// Probabilities are per *event* (per frame, per query, per read) in
/// `[0, 1]`. The plan is inert until handed to the server via
/// `ServeOptions::fault_plan`; a plan with all rates zero injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed; connection `c` uses `seed` mixed with `c`.
    pub seed: u64,
    /// Per-fault-kind probabilities, indexed by [`FaultKind::index`].
    pub rates: [f64; 6],
    /// How long `read_delay` / `write_delay` faults sleep.
    pub delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA_017,
            rates: [0.0; 6],
            delay: Duration::from_millis(5),
        }
    }
}

impl FaultPlan {
    /// Probability for one fault kind.
    #[must_use]
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Sets the probability for one fault kind (builder style).
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault rate out of range: {p}");
        self.rates[kind.index()] = p;
        self
    }

    /// Combined probability mass of the frame-level faults (truncate,
    /// drop, flip) — the figure the chaos gate checks against its ≥5%
    /// requirement.
    #[must_use]
    pub fn frame_fault_rate(&self) -> f64 {
        self.rate(FaultKind::Truncate) + self.rate(FaultKind::Drop) + self.rate(FaultKind::Flip)
    }

    /// `true` if any rate is nonzero.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }

    /// Parses the compact `key=value[,key=value...]` spec used by
    /// `plab serve --fault-plan`.
    ///
    /// Keys: `seed=U64`, `delay_ms=U64`, and one per fault kind
    /// (`read_delay`, `write_delay`, `truncate`, `drop`, `flip`,
    /// `store_err`) taking a probability in `[0, 1]`.
    ///
    /// ```
    /// use pl_wire::fault::{FaultKind, FaultPlan};
    /// let plan = FaultPlan::parse("seed=7,flip=0.05,drop=0.02,delay_ms=3").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.rate(FaultKind::Flip), 0.05);
    /// assert_eq!(plan.delay.as_millis(), 3);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan: expected key=value, got {part:?}"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault plan: bad seed {value:?}"))?;
                }
                "delay_ms" => {
                    let ms: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault plan: bad delay_ms {value:?}"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                other => {
                    let kind = FaultKind::ALL
                        .into_iter()
                        .find(|k| k.name() == other)
                        .ok_or_else(|| format!("fault plan: unknown key {other:?}"))?;
                    let p: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault plan: bad probability {value:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault plan: {other}={p} outside [0, 1]"));
                    }
                    plan.rates[kind.index()] = p;
                }
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={},delay_ms={}", self.seed, self.delay.as_millis())?;
        for kind in FaultKind::ALL {
            if self.rate(kind) > 0.0 {
                write!(f, ",{}={}", kind.name(), self.rate(kind))?;
            }
        }
        Ok(())
    }
}

/// The `plserve_faults_injected_total{kind=...}` counter family, one
/// counter per [`FaultKind`], registered in the server's registry.
#[derive(Debug)]
pub struct FaultCounters {
    counters: [Arc<Counter>; 6],
}

impl FaultCounters {
    /// Registers the family in `registry` (counters start at zero and
    /// stay there when no plan is active).
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            counters: FaultKind::ALL.map(|kind| {
                registry.counter_with("plserve_faults_injected_total", &[("kind", kind.name())])
            }),
        }
    }

    /// Records one injected fault.
    pub fn record(&self, kind: FaultKind) {
        self.counters[kind.index()].inc();
    }

    /// Faults injected so far for one kind.
    #[must_use]
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counters[kind.index()].get()
    }

    /// Faults injected so far, all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|c| c.get()).sum()
    }
}

/// Per-connection fault source: rolls the plan's probabilities from a
/// deterministic stream derived from `(plan.seed, connection id)`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// An injector for connection `conn_id`. The same `(plan.seed,
    /// conn_id)` pair always yields the same decision sequence.
    #[must_use]
    pub fn new(plan: &FaultPlan, conn_id: u64) -> Self {
        // SplitMix-style avalanche so nearby connection ids do not
        // produce correlated streams.
        let mixed = (plan.seed ^ conn_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(31);
        Self {
            plan: plan.clone(),
            rng: StdRng::seed_from_u64(mixed),
        }
    }

    /// Rolls one fault kind. The roll consumes randomness whether or not
    /// it fires, keeping the stream aligned across kinds.
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        let p = self.plan.rate(kind);
        // Always consume a draw so decision sequences stay comparable
        // between plans that differ only in rates.
        let x: f64 = self.rng.gen();
        p > 0.0 && x < p
    }

    /// The configured injected-delay duration.
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.plan.delay
    }

    /// Index of the byte to flip in a body of `len` bytes.
    pub fn flip_position(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        self.rng.gen_range(0..len)
    }

    /// How many body bytes survive a truncation fault: at least the
    /// length prefix's promise is broken — somewhere in `[0, len)`.
    pub fn truncate_at(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        self.rng.gen_range(0..len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let plan = FaultPlan::parse("seed=42,flip=0.25,truncate=0.1,delay_ms=7").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rate(FaultKind::Flip), 0.25);
        assert_eq!(plan.rate(FaultKind::Truncate), 0.1);
        assert_eq!(plan.rate(FaultKind::Drop), 0.0);
        assert_eq!(plan.delay, Duration::from_millis(7));
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("flip").is_err());
        assert!(FaultPlan::parse("warp=0.1").is_err());
        assert!(FaultPlan::parse("flip=1.5").is_err());
        assert!(FaultPlan::parse("flip=-0.1").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("delay_ms=xyz").is_err());
    }

    #[test]
    fn empty_spec_is_the_inert_default() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(!plan.is_active());
        assert_eq!(plan.frame_fault_rate(), 0.0);
    }

    #[test]
    fn injector_is_deterministic_per_connection() {
        let plan = FaultPlan::parse("seed=9,flip=0.5,drop=0.3").unwrap();
        let decisions = |conn: u64| -> Vec<bool> {
            let mut inj = FaultInjector::new(&plan, conn);
            (0..64)
                .map(|i| {
                    inj.roll(if i % 2 == 0 {
                        FaultKind::Flip
                    } else {
                        FaultKind::Drop
                    })
                })
                .collect()
        };
        assert_eq!(decisions(3), decisions(3), "same conn id, same stream");
        assert_ne!(decisions(3), decisions(4), "different conn ids diverge");
    }

    #[test]
    fn injector_rates_are_roughly_honoured() {
        let plan = FaultPlan::default().with_rate(FaultKind::Flip, 0.2);
        let mut inj = FaultInjector::new(&plan, 0);
        let fired = (0..10_000).filter(|_| inj.roll(FaultKind::Flip)).count();
        assert!(
            (1_500..2_500).contains(&fired),
            "0.2 rate fired {fired}/10000 times"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::default();
        let mut inj = FaultInjector::new(&plan, 1);
        assert!((0..1_000).all(|_| !inj.roll(FaultKind::Drop)));
    }

    #[test]
    fn counters_track_per_kind_and_total() {
        let reg = MetricsRegistry::new();
        let counters = FaultCounters::new(&reg);
        counters.record(FaultKind::Flip);
        counters.record(FaultKind::Flip);
        counters.record(FaultKind::Drop);
        assert_eq!(counters.get(FaultKind::Flip), 2);
        assert_eq!(counters.get(FaultKind::Drop), 1);
        assert_eq!(counters.get(FaultKind::Truncate), 0);
        assert_eq!(counters.total(), 3);
        let text = pl_obs::prom::render(&reg.samples());
        assert!(
            text.contains("plserve_faults_injected_total{kind=\"flip\"} 2"),
            "{text}"
        );
    }
}
