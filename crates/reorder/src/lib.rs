//! Graph reordering for data locality.
//!
//! The paper's **Graph-Clustering-based Reordering (GCR)** groups similar
//! nodes with the Louvain community-detection method and relabels the graph
//! so neighbours share cache lines (§III-C, Fig. 8). It is compared in
//! §IV-D against two heavier offline reordering schemes:
//!
//! * the LSH / Jaccard pair-merging approach of Huang et al. (PPoPP'21),
//!   whose pair merging is hard to parallelise and takes hours on large
//!   graphs, and
//! * GNNAdvisor's (OSDI'21) community-aware relabelling.
//!
//! All three are implemented here along with locality metrics used by the
//! benchmark harness.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod gcr;
pub mod locality;
pub mod louvain;
pub mod lsh;
pub mod partition;

pub use advisor::advisor_reorder;
pub use gcr::{gcr_permutation, gcr_reorder, Reordered};
pub use locality::{avg_neighbor_distance, working_set_spread};
pub use louvain::{louvain, LouvainConfig, LouvainResult};
pub use lsh::lsh_pair_merge_reorder;
pub use partition::{partition, GraphPartition, PartitionConfig, PartitionMethod};
