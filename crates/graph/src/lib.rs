//! # gpma-graph — graphs, generators and streams for the GPMA reproduction
//!
//! Host-side graph machinery for *Accelerating Dynamic Graph Analytics on
//! GPUs* (PVLDB 11(1), 2017):
//!
//! * [`edge`] — the `(src << 32 | dst)` key encoding shared with the device
//!   structures (Figure 5), including per-row guard keys.
//! * [`formats`] — COO and CSR host formats (§2.3) used as references.
//! * [`gen`] — RMAT (Graph500) and Erdős–Rényi generators (§6.1).
//! * [`datasets`] — the four Table 2 datasets as scaled synthetic streams.
//! * [`stream`] — the sliding-window and explicit-update stream models (§3).
//!
//! ## Quick example
//!
//! The sliding-window model: the first half of a stream is the initial
//! graph; each slide inserts the `b` newest edges and deletes the `b`
//! oldest (§6.1):
//!
//! ```
//! use gpma_graph::{Edge, GraphStream};
//!
//! let edges: Vec<Edge> = (0..8).map(|i| Edge::new(i, (i + 1) % 8)).collect();
//! let stream = GraphStream::new("toy", 8, edges);
//! assert_eq!(stream.initial_size(), 4);
//! let slide = stream.sliding(2).next().unwrap();
//! assert_eq!(slide.insertions, vec![Edge::new(4, 5), Edge::new(5, 6)]);
//! assert_eq!(slide.deletions, vec![Edge::new(0, 1), Edge::new(1, 2)]);
//! ```

#![warn(missing_docs)]

pub mod datasets;
pub mod edge;
pub mod formats;
pub mod gen;
pub mod stream;

pub use edge::{decode_key, edge_key_mask, encode_key, guard_key, is_guard, row_start_key, Edge, VertexId, GUARD_DST, MAX_DST};
pub use formats::{Coo, Csr};
pub use stream::{GraphStream, UpdateBatch};
