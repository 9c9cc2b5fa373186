//! # autokernel-gemm
//!
//! The tiled matrix-multiply kernel family from the paper's case study.
//!
//! SYCL-DNN's matmul kernel exposes three compile-time parameters — the
//! two output-tile dimensions and the accumulator depth, each in
//! {1, 2, 4, 8} — and a runtime work-group shape drawn from ten options,
//! for **640 total configurations** ([`config::KernelConfig::all`]).
//!
//! Each configuration is a *real* kernel here: [`kernel::TiledGemmKernel`]
//! executes the tiled algorithm on the host (rayon-parallel, validated
//! against [`reference::reference_gemm`]) and prices itself on a simulated
//! device through the [`model`] module, which translates a configuration
//! and a GEMM shape into the resource/traffic profile the device model
//! consumes.

#![warn(missing_docs)]

pub mod batched;
pub mod config;
pub mod kernel;
pub mod model;
mod name;
pub mod reference;
pub mod shape;
pub mod simd;

pub use batched::BatchedGemmKernel;
pub use config::{KernelConfig, WorkGroup, TILE_SIZES, WORK_GROUPS};
pub use kernel::TiledGemmKernel;
pub use reference::ReferenceGemmKernel;
pub use shape::GemmShape;
