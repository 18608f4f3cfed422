//! Deterministic rendezvous (HRW) vertex partitioning.
//!
//! Every backend gets one member of [`pl_hash::universal`]'s
//! multiply-shift family, drawn from a seeded generator; vertex `v`
//! scores each backend by hashing `v` through that backend's function
//! and is owned by the `R` highest scorers, in score order. Rendezvous
//! hashing has exactly the stability property a cluster wants: adding
//! or removing one backend only moves the vertices that scored it into
//! their top `R` — everything else keeps its owner set.
//!
//! Determinism is load-bearing: the splitter, the router, and any
//! future rebalancer all derive the same assignment from `(seed,
//! backends, replicas)` alone, so the assignment never has to be
//! shipped or agreed on — only the tiny [`ClusterMap`](crate::map)
//! carrying those parameters.

use pl_hash::universal::UniversalHash;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seeded HRW partitioner: `backends` scoring functions plus the
/// replication factor.
#[derive(Debug, Clone)]
pub struct Partitioner {
    hashers: Vec<UniversalHash>,
    replicas: usize,
}

impl Partitioner {
    /// Builds the partitioner for `backends` backends with `replicas`
    /// owners per vertex (clamped to `1..=backends`). Identical
    /// arguments always produce identical assignments.
    ///
    /// # Panics
    ///
    /// Panics if `backends == 0`.
    #[must_use]
    pub fn new(seed: u64, backends: usize, replicas: usize) -> Self {
        assert!(backends > 0, "a cluster needs at least one backend");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC10C_1A6E_D5EE_D000);
        let hashers = (0..backends)
            .map(|_| UniversalHash::random(&mut rng))
            .collect();
        Self {
            hashers,
            replicas: replicas.clamp(1, backends),
        }
    }

    /// Number of backends.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.hashers.len()
    }

    /// Owners per vertex (the effective replication factor).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// HRW score of backend `b` for vertex `v`.
    fn score(&self, b: usize, v: u32) -> u64 {
        // Full-range fastrange: the multiply-shift mix spread over the
        // whole usize range, so ties need a hash collision across two
        // independently drawn functions.
        self.hashers[b].hash(u64::from(v).wrapping_add(1), usize::MAX) as u64
    }

    /// The backends owning `v`'s label, highest HRW score first. Length
    /// is always [`replicas`](Self::replicas); ties break toward the
    /// lower backend id.
    #[must_use]
    pub fn owners(&self, v: u32) -> Vec<u32> {
        let mut ranked: Vec<(u64, u32)> = (0..self.backends())
            .map(|b| (self.score(b, v), b as u32))
            .collect();
        ranked.sort_unstable_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        ranked.truncate(self.replicas);
        ranked.into_iter().map(|(_, b)| b).collect()
    }

    /// Does backend `b` own `v`'s full label?
    #[must_use]
    pub fn owns(&self, b: u32, v: u32) -> bool {
        self.owners(v).contains(&b)
    }

    /// The failover candidate list for an adjacency query `{u, v}`:
    /// the backends owning *both* endpoints first (in `owners(u)`
    /// order), then the rest of `owners(u)`, then the rest of
    /// `owners(v)`. An owner of both holds both full labels, so it
    /// answers every fat/thin case (Thm 4 decodes from the two labels
    /// alone); the intersection is never empty when `2·replicas >
    /// backends`, so a healthy cluster answers each query at its first
    /// candidate. Any single dead backend leaves a live owner of `u`
    /// *and* of `v` in the list whenever `replicas ≥ 2`, which is
    /// exactly what the partial-store decoder needs.
    #[must_use]
    pub fn candidates(&self, u: u32, v: u32) -> Vec<u32> {
        let (ou, ov) = (self.owners(u), self.owners(v));
        let mut out: Vec<u32> = ou.iter().copied().filter(|b| ov.contains(b)).collect();
        for b in ou.into_iter().chain(ov) {
            if !out.contains(&b) {
                out.push(b);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_clamped() {
        let a = Partitioner::new(42, 5, 2);
        let b = Partitioner::new(42, 5, 2);
        for v in 0..500u32 {
            assert_eq!(a.owners(v), b.owners(v));
        }
        assert_eq!(Partitioner::new(1, 3, 0).replicas(), 1);
        assert_eq!(Partitioner::new(1, 3, 9).replicas(), 3);
    }

    #[test]
    fn owners_are_distinct_and_r_long() {
        let p = Partitioner::new(7, 6, 3);
        for v in 0..2_000u32 {
            let o = p.owners(v);
            assert_eq!(o.len(), 3);
            let mut d = o.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "owners of {v} repeat: {o:?}");
            for &b in &o {
                assert!(p.owns(b, v));
            }
        }
    }

    #[test]
    fn seed_changes_the_assignment() {
        let a = Partitioner::new(1, 4, 1);
        let b = Partitioner::new(2, 4, 1);
        let moved = (0..1_000u32)
            .filter(|&v| a.owners(v) != b.owners(v))
            .count();
        assert!(moved > 500, "only {moved}/1000 vertices moved across seeds");
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let p = Partitioner::new(0xBA1A, 4, 2);
        let n = 8_000u32;
        let mut counts = [0usize; 4];
        for v in 0..n {
            for b in p.owners(v) {
                counts[b as usize] += 1;
            }
        }
        // 2 replicas × 8000 vertices over 4 backends → 4000 expected.
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (3_000..=5_000).contains(&c),
                "backend {b} owns {c} of expected ~4000"
            );
        }
    }

    #[test]
    fn candidates_put_a_common_owner_first() {
        for (backends, replicas) in [(3, 2), (5, 3), (4, 2), (5, 2), (3, 1)] {
            let p = Partitioner::new(0xC0DE, backends, replicas);
            for u in 0..150u32 {
                for v in 0..150u32 {
                    let (ou, ov) = (p.owners(u), p.owners(v));
                    let cand = p.candidates(u, v);
                    // Same set as owners(u) ∪ owners(v), no repeats.
                    let mut got = cand.clone();
                    got.sort_unstable();
                    let mut want: Vec<u32> = ou.iter().chain(&ov).copied().collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(got, want, "({u},{v}) at {backends}x{replicas}");
                    // Common owners lead, then owners(u), then owners(v).
                    let common = cand.iter().take_while(|b| ou.contains(b) && ov.contains(b));
                    let rest = &cand[common.count()..];
                    assert!(rest.iter().all(|b| !(ou.contains(b) && ov.contains(b))));
                    let split = rest.iter().take_while(|b| ou.contains(b)).count();
                    assert!(rest[split..].iter().all(|b| ov.contains(b)));
                    if 2 * replicas > backends {
                        assert!(
                            ou.contains(&cand[0]) && ov.contains(&cand[0]),
                            "({u},{v}) at {backends}x{replicas}: {cand:?} leads with a one-sided owner"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_survive_any_single_backend_death() {
        let p = Partitioner::new(99, 5, 2);
        for u in 0..300u32 {
            for v in (u + 1)..300u32 {
                let cand = p.candidates(u, v);
                for dead in 0..5u32 {
                    // A live owner of each endpoint must remain in the
                    // candidate list (possibly the same backend, when
                    // the owner sets coincide).
                    let live_u = cand.iter().any(|&b| b != dead && p.owners(u).contains(&b));
                    let live_v = cand.iter().any(|&b| b != dead && p.owners(v).contains(&b));
                    assert!(live_u && live_v, "({u},{v}) dies with backend {dead}");
                }
            }
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_vertices() {
        // Rendezvous stability: dropping the last backend must not
        // change the owner sets of vertices it did not own. (The first
        // `backends` hash functions are drawn identically, so the
        // 4-backend partitioner is a prefix of the 5-backend one.)
        let big = Partitioner::new(5, 5, 2);
        let small = Partitioner::new(5, 4, 2);
        for v in 0..2_000u32 {
            if !big.owners(v).contains(&4) {
                assert_eq!(big.owners(v), small.owners(v), "vertex {v} moved");
            }
        }
    }
}
