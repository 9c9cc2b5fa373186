//! Reference GEMM implementations used to validate the kernel family.

use crate::kernel::check_operands;
use crate::name::KernelName;
use crate::shape::GemmShape;
use autokernel_sycl_sim::perf::KernelProfile;
use autokernel_sycl_sim::runtime::{Buffer, NDRange, SimKernel};
use autokernel_sycl_sim::{DeviceSpec, Result};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::sync::Arc;

/// Straightforward row-major reference: `C = A · B`.
///
/// Panics (in debug builds) if slice lengths disagree with `shape`.
pub fn reference_gemm(shape: GemmShape, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), shape.m * shape.k);
    debug_assert_eq!(b.len(), shape.k * shape.n);
    debug_assert_eq!(c.len(), shape.m * shape.n);
    let (m, k, n) = (shape.m, shape.k, shape.n);
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        crow.fill(0.0);
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aip * bv;
            }
        }
    }
}

/// Rayon-parallel reference (rows of C distributed over the pool); same
/// results as [`reference_gemm`] because each row is an independent,
/// sequentially-accumulated dot-product sweep. The row update runs
/// eight columns at a time through [`crate::simd::axpy`], which keeps
/// the per-element operation sequence — one multiply, one add, in `p`
/// order — exactly the scalar reference's, so the match is bitwise.
pub fn parallel_reference_gemm(shape: GemmShape, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), shape.m * shape.k);
    debug_assert_eq!(b.len(), shape.k * shape.n);
    debug_assert_eq!(c.len(), shape.m * shape.n);
    let (k, n) = (shape.k, shape.n);
    if c.is_empty() {
        return; // an empty product has nothing to write
    }
    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        crow.fill(0.0);
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            crate::simd::axpy(crow, aip, &b[p * n..(p + 1) * n]);
        }
    });
}

/// Deterministic pseudo-random test matrices for a shape: values in
/// roughly [-1, 1], reproducible across runs and platforms.
pub fn test_matrices(shape: GemmShape, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let gen = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_add(seed)
                    .wrapping_add(salt)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^= z >> 27;
                ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
            })
            .collect()
    };
    (
        gen(shape.m * shape.k, 0x5151),
        gen(shape.k * shape.n, 0xabcd),
    )
}

/// The launchable wrapper around [`parallel_reference_gemm`]: the
/// terminal rung of the resilient fallback chain. It carries no tiling
/// configuration, stages nothing through local memory, and asks for a
/// modest fixed work-group — so it launches on *every* shipped device
/// and computes the exact answer, at untuned-baseline speed.
///
/// Operands are owned or borrowed, as for
/// [`crate::TiledGemmKernel`].
pub struct ReferenceGemmKernel<B = Buffer<f32>> {
    shape: GemmShape,
    a: B,
    b: B,
    c: B,
}

impl<B: Borrow<Buffer<f32>>> ReferenceGemmKernel<B> {
    /// Bind the reference kernel to its operands.
    ///
    /// Fails if buffer lengths disagree with `shape`.
    pub fn new(shape: GemmShape, a: B, b: B, c: B) -> Result<Self> {
        check_operands(shape, a.borrow(), b.borrow(), c.borrow())?;
        Ok(ReferenceGemmKernel { shape, a, b, c })
    }

    /// The launch range this kernel wants: one work-item per C element,
    /// padded to 8×8 groups (small enough for every shipped device).
    pub fn preferred_range(&self) -> Result<NDRange> {
        NDRange::padded([self.shape.m, self.shape.n], [8, 8])
    }

    /// The problem shape this kernel is bound to.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }
}

impl<B: Borrow<Buffer<f32>> + Send + Sync> SimKernel for ReferenceGemmKernel<B> {
    fn name(&self) -> Arc<str> {
        KernelName::new()
            .push("gemm_reference_")
            .shape(&self.shape)
            .finish()
    }

    fn profile(&self, _device: &DeviceSpec, _range: &NDRange) -> KernelProfile {
        let k = self.shape.k as f64;
        // One work-item per C element: 2k flops, streaming a full row of
        // A and column of B with no local-memory reuse and strided B
        // access — the untuned cost a naive kernel pays.
        KernelProfile {
            flops_per_item: 2.0 * k,
            bytes_per_item: 4.0 * (2.0 * k + 1.0),
            cache_reuse: 0.5,
            registers_per_item: 16,
            lds_bytes_per_group: 0,
            coalescing: 1.0,
            useful_items: (self.shape.m * self.shape.n) as f64,
            ilp: 0.3,
        }
    }

    fn execute(&self, _range: &NDRange) -> Result<()> {
        let a = self.a.borrow().read();
        let b = self.b.borrow().read();
        let mut c = self.c.borrow().write();
        parallel_reference_gemm(self.shape, &a, &b, &mut c);
        Ok(())
    }

    fn noise_seed(&self) -> u64 {
        // A stable stream distinct from every tiled configuration.
        0xbead_c0de
            ^ ((self.shape.m as u64) << 40 | (self.shape.n as u64) << 20 | self.shape.k as u64)
    }
}

/// Maximum absolute elementwise difference between two buffers.
pub fn max_abs_diff(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let shape = GemmShape::new(3, 3, 3);
        let a = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let b: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut c = vec![0.0; 9];
        reference_gemm(shape, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_2x2() {
        let shape = GemmShape::new(2, 2, 2);
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        reference_gemm(shape, &a, &b, &mut c);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let shape = GemmShape::new(1, 3, 2);
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut c = vec![0.0; 2];
        reference_gemm(shape, &a, &b, &mut c);
        assert_eq!(c, vec![14.0, 32.0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        for &(m, k, n) in &[(17, 31, 23), (1, 100, 1), (64, 8, 128)] {
            let shape = GemmShape::new(m, k, n);
            let (a, b) = test_matrices(shape, 42);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            reference_gemm(shape, &a, &b, &mut c1);
            parallel_reference_gemm(shape, &a, &b, &mut c2);
            assert_eq!(max_abs_diff(&c1, &c2), 0.0, "shape {shape}");
        }
    }

    #[test]
    fn reference_kernel_launches_and_matches_reference() {
        use autokernel_sycl_sim::{DeviceSpec, Platform, Queue};
        let shape = GemmShape::new(13, 29, 7);
        let (a, b) = test_matrices(shape, 77);
        let mut expect = vec![0.0f32; shape.m * shape.n];
        reference_gemm(shape, &a, &b, &mut expect);

        let kc = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel =
            ReferenceGemmKernel::new(shape, Buffer::from_vec(a), Buffer::from_vec(b), kc.clone())
                .unwrap();
        // Launches even on the most constrained shipped device.
        for dev in Platform::standard().devices() {
            let queue = Queue::new(dev.clone());
            let range = kernel.preferred_range().unwrap();
            let ev = queue.submit(&kernel, range).unwrap();
            assert!(ev.duration_s() > 0.0);
        }
        assert_eq!(max_abs_diff(&kc.to_vec(), &expect), 0.0);
        assert!(
            kernel.name().contains("gemm_reference"),
            "{}",
            kernel.name()
        );
        assert_eq!(*kernel.shape(), shape);
        // LDS-free profile: no device can reject it for local memory.
        let nano = DeviceSpec::amd_r9_nano();
        let range = kernel.preferred_range().unwrap();
        assert_eq!(kernel.profile(&nano, &range).lds_bytes_per_group, 0);
    }

    #[test]
    fn reference_kernel_rejects_mismatched_buffers() {
        let shape = GemmShape::new(4, 4, 4);
        let ok = Buffer::from_vec(vec![0.0f32; 16]);
        let bad = Buffer::from_vec(vec![0.0f32; 15]);
        assert!(ReferenceGemmKernel::new(shape, bad, ok.clone(), ok.clone()).is_err());
        assert!(ReferenceGemmKernel::new(shape, ok.clone(), ok.clone(), ok).is_ok());
    }

    #[test]
    fn test_matrices_are_deterministic_and_bounded() {
        let shape = GemmShape::new(5, 7, 3);
        let (a1, b1) = test_matrices(shape, 9);
        let (a2, b2) = test_matrices(shape, 9);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.iter().chain(&b1).all(|v| v.abs() <= 1.0));
        let (a3, _) = test_matrices(shape, 10);
        assert_ne!(a1, a3);
    }
}
