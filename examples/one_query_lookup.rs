//! The 1-query scheme as a distributed edge store (Section 6).
//!
//! With the 1-query relaxation, labels collapse to O(log n) bits: every
//! edge's id pair is stored at the vertex the edge hashes to, and a query
//! fetches exactly one extra label. This example simulates the resulting
//! three-message protocol between peers.
//!
//! ```text
//! cargo run --release --example one_query_lookup
//! ```

use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::{OneQueryDecoder, OneQueryScheme, PowerLawScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(19);
    let n = 100_000;
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut rng);
    println!("graph: n = {n}, m = {}", g.edge_count());

    let labeling = OneQueryScheme.encode(&g, &mut rng);
    let thm4 = PowerLawScheme::new(2.5).encode(&g);
    println!(
        "1-query labels: max = {} bits, avg = {:.1} bits",
        labeling.max_bits(),
        labeling.avg_bits()
    );
    println!(
        "for comparison, Theorem 4 (2-label model) needs max = {} bits — the Ω(n^(1/α))\n\
         lower bound evaporates once one extra fetch is allowed.",
        thm4.max_bits()
    );

    // The protocol: u and v exchange labels, compute the witness vertex,
    // fetch its label, decide.
    let dec = OneQueryDecoder;
    let (u, v) = g.edges().next().expect("has edges");
    let witness = dec
        .query_target(labeling.label(u), labeling.label(v))
        .expect("well-formed labels");
    let answer = dec
        .decide(
            labeling.label(u),
            labeling.label(v),
            labeling.label(witness as u32),
        )
        .expect("well-formed labels");
    println!("\nprotocol trace for pair ({u}, {v}):");
    println!(
        "  1. exchange labels ({} and {} bits)",
        labeling.label(u).bit_len(),
        labeling.label(v).bit_len()
    );
    println!("  2. hash the pair -> fetch label of vertex {witness}");
    println!(
        "  3. scan its {} -bit label for the pair -> adjacent = {answer}",
        labeling.label(witness as u32).bit_len()
    );
    assert!(answer);

    // Bulk verification.
    let mut correct = 0usize;
    let trials = 50_000;
    for _ in 0..trials {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        let got = dec.adjacent_with(labeling.label(a), labeling.label(b), |t| {
            labeling.label(t as u32)
        });
        assert_eq!(got, g.has_edge(a, b));
        correct += 1;
    }
    println!("\n{correct}/{trials} random queries answered correctly via the 3-label protocol.");
}
