//! # omega-linalg — dense linear algebra substrate
//!
//! From-scratch dense kernels needed by the ProNE embedding model:
//! column-major [`DenseMatrix`], GEMM, Householder QR, and one-sided Jacobi
//! SVD. No external BLAS/LAPACK — the reproduction builds every substrate.
//!
//! [`kernels`] holds the blocked, lane-unrolled f32 hot loops (dense dot,
//! sparse gather-dot and its eight-column strip form, scoring a block
//! against a set of queries) shared by the serving scan, the embedding top-k and the SpMM
//! accumulation step. Each dense operation has one entry point, a
//! `*_threads` function on the shared pool (row-panelled GEMM, the
//! symmetric Gram, chunked axpy/scale, column-parallel QR and the tall
//! SVD): it takes a width, gives the same bits at every width, and at
//! width 1 is the sequential routine. [`svd_jacobi`] is the small dense
//! SVD they build on, and [`ops::normalize`] the row normalisation of the
//! embedding code.
//!
//! **No contraction.** Every sum in this crate is a stated sequence of
//! steps, each one rounded f32 multiply followed by one rounded f32 add.
//! The fast kernels get their speed from running many output elements'
//! sequences side by side over one pass of the operand they share — never
//! from fusing a multiply into its add or reordering a sum — so a tiled,
//! strip or multi-column kernel returns the bits of the one-element loop it
//! replaces. The source is plain Rust compiled without fast-math flags,
//! which gives LLVM no licence to contract or reassociate; every
//! bit-identity claim in the workspace (goldens, thread counts, `spmv` vs
//! the SpMM engine) depends on that staying so. The same rule binds the
//! bodies pinned with intrinsics in [`kernels`]: a `#[target_feature]`
//! there enables the register width it needs (`avx2`, or `avx512f` and
//! `avx512dq`) and never names `fma` — though rustc implies `fma` from
//! `avx512f`, so that body has the instruction and must not use it —
//! multiplies and adds are separate intrinsics, and each body is tested
//! against the plain-Rust definition on inputs that a fused multiply-add
//! would round differently.

// The crate's only `unsafe` is the intrinsics in `kernels`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[cfg(test)]
#[path = "../tests/by_definition/mod.rs"]
mod by_definition;
mod gemm;
pub mod kernels;
mod matrix;
pub mod ops;
mod par;
mod qr;
mod random;
mod svd;

pub use matrix::DenseMatrix;
pub use par::{
    axpy_threads, gemm_threads, gram_threads, qr_thin_threads, scale_threads, svd_tall_threads,
};
pub use random::gaussian_matrix;
pub use svd::{svd_jacobi, Svd};

/// Errors from dense linear algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        left: (usize, usize),
        right: (usize, usize),
    },
    /// An iterative routine failed to converge.
    NoConvergence { iterations: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
