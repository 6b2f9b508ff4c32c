//! # omega-walk — random-walk embedding substrate
//!
//! The paper's introduction motivates OMeGa against the classic random-walk
//! embedding family (DeepWalk, node2vec, LINE) and its evaluation compares
//! against the distributed walk-based system DistGER. This crate implements
//! that family from scratch:
//!
//! * O(1) weighted sampling (Walker's alias method) under every walk step;
//! * [`Walker`] — uniform (DeepWalk) and biased (node2vec p/q) walks;
//! * [`pairs_from_walks`] — walks → (center, context) skip-gram pairs;
//! * [`SgnsModel`] — skip-gram with negative sampling, plain SGD;
//! * [`LineModel`] — LINE's first- and second-order edge objectives;
//! * [`InfoWalker`] — DistGER/HuGE-style information-oriented walks whose
//!   length adapts to the entropy gain of newly visited nodes.

mod alias;
mod corpus;
mod infowalk;
mod line;
mod sgns;
mod walker;

pub use corpus::{pairs_from_walks, unigram_counts, SkipGramPair};
pub use infowalk::{InfoWalkConfig, InfoWalker};
pub use line::{LineConfig, LineModel, LineOrder};
pub use sgns::{SgnsConfig, SgnsModel};
pub use walker::{WalkConfig, Walker};
