//! Adjacency and distance labeling schemes for sparse and power-law
//! graphs — a from-scratch Rust reproduction of
//! *Near Optimal Adjacency Labeling Schemes for Power-Law Graphs*
//! (Petersen, Rotbart, Simonsen, Wulff-Nilsen; ICALP 2016, announced at
//! PODC 2016).
//!
//! A labeling scheme assigns each vertex a bit string (a *label*) such
//! that a query between two vertices — adjacency here, bounded distance in
//! [`distance`] — is answered from the two labels alone, with no access to
//! the graph. The headline results, each implemented and measured here:
//!
//! | Paper result | Module | Guarantee |
//! |---|---|---|
//! | Theorem 3 | [`sparse`] | `√(2cn·log n) + 2·log n + 1` bits for `c`-sparse graphs |
//! | Theorem 4 | [`powerlaw`] | `(C'n)^{1/α}(log n)^{1−1/α} + 2·log n + 1` bits for `P_h` |
//! | Theorem 6 | [`theory::powerlaw_lower_bound`] | `Ω(n^{1/α})` bits necessary |
//! | Proposition 5 | [`forest`], [`ba_online`] | `O(m log n)` for BA graphs |
//! | Section 6 | [`one_query`] | `O(log n)` with one extra label fetch |
//! | Lemma 7 | [`distance`] | `o(n)` bits for distances up to `f(n)` |
//!
//! Both headline schemes are instances of one *fat/thin* engine
//! ([`threshold`]): a degree threshold `τ` splits the vertices; thin labels
//! store full neighbour lists, fat labels store a bitmap over the (few) fat
//! vertices only. [`baseline`] provides the naive comparators.
//!
//! # Quick start
//!
//! ```
//! use pl_labeling::powerlaw::PowerLawScheme;
//! use pl_labeling::scheme::{AdjacencyScheme, AdjacencyDecoder};
//! use rand::SeedableRng;
//!
//! // A power-law graph with exponent 2.5.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let g = pl_gen::chung_lu_power_law(10_000, 2.5, 5.0, &mut rng);
//!
//! // Encode once...
//! let scheme = PowerLawScheme::new(2.5);
//! let labeling = scheme.encode(&g);
//!
//! // ...then answer adjacency from label pairs alone.
//! let dec = scheme.decoder();
//! let (u, v) = g.edges().next().unwrap();
//! assert!(dec.adjacent(labeling.label(u), labeling.label(v)));
//!
//! // Labels respect Theorem 4 (plus self-delimiting header slack).
//! assert!((labeling.max_bits() as f64) <= scheme.guaranteed_bits(10_000) + 64.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ba_online;
pub mod baseline;
pub mod bits;
pub mod codec;
pub mod compressed;
pub mod distance;
pub mod distance_oracle;
pub mod dynamic;
pub mod forest;
pub mod label;
pub mod one_query;
pub mod powerlaw;
pub mod scheme;
pub mod sparse;
pub mod theory;
pub mod threshold;
pub mod universal;

pub use codec::{SchemeTag, TaggedLabeling};
pub use distance::{DistanceDecoder, DistanceScheme};
pub use label::{Label, LabelRef, Labeling, LabelingBuilder};
pub use one_query::{OneQueryDecoder, OneQueryScheme};
pub use powerlaw::PowerLawScheme;
pub use scheme::{AdjacencyDecoder, AdjacencyScheme};
pub use sparse::SparseScheme;
pub use threshold::ThresholdScheme;
