//! The tiled GEMM kernel: a real, executable implementation of every
//! point in the configuration space, structured exactly like the SYCL
//! kernel it stands in for.
//!
//! Each work-item owns a `tile_rows × tile_cols` accumulator and walks
//! the reduction dimension in `acc_depth` steps, staging A and B
//! fragments before the FMA block — the same decomposition SYCL-DNN's
//! matmul uses. The host execution distributes work-item rows over the
//! rayon pool; the device model prices the launch via [`crate::model`].

use crate::config::KernelConfig;
use crate::model;
use crate::name::KernelName;
use crate::shape::GemmShape;
use autokernel_sycl_sim::perf::KernelProfile;
use autokernel_sycl_sim::runtime::{Buffer, NDRange, SimKernel};
use autokernel_sycl_sim::{DeviceSpec, Result, SimError};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::sync::Arc;

/// A launchable tiled GEMM `C = A · B` for one configuration.
///
/// `B` is how the kernel holds its operands: owned [`Buffer`]s (the
/// default) or borrowed `&Buffer`s, which bind a request's operands
/// without touching their reference counts.
pub struct TiledGemmKernel<B = Buffer<f32>> {
    config: KernelConfig,
    shape: GemmShape,
    a: B,
    b: B,
    c: B,
}

/// Check that operand lengths agree with `shape`. A buffer's length is
/// fixed at construction, so the check holds until the kernel runs.
pub(crate) fn check_operands(
    shape: GemmShape,
    a: &Buffer<f32>,
    b: &Buffer<f32>,
    c: &Buffer<f32>,
) -> Result<()> {
    if a.len() != shape.m * shape.k || b.len() != shape.k * shape.n || c.len() != shape.m * shape.n
    {
        return Err(SimError::BadLaunch(format!(
            "buffer sizes do not match shape {shape}"
        )));
    }
    Ok(())
}

impl<B: Borrow<Buffer<f32>>> TiledGemmKernel<B> {
    /// Bind a kernel to its operands.
    ///
    /// Fails if buffer lengths disagree with `shape`.
    pub fn new(config: KernelConfig, shape: GemmShape, a: B, b: B, c: B) -> Result<Self> {
        check_operands(shape, a.borrow(), b.borrow(), c.borrow())?;
        Ok(TiledGemmKernel {
            config,
            shape,
            a,
            b,
            c,
        })
    }

    /// The launch range this kernel wants (useful grid padded to
    /// work-group multiples).
    pub fn preferred_range(&self) -> Result<NDRange> {
        model::launch_range(&self.config, &self.shape)
    }

    /// The configuration this kernel instantiates.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The problem shape this kernel is bound to.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }
}

impl<B: Borrow<Buffer<f32>> + Send + Sync> SimKernel for TiledGemmKernel<B> {
    /// `gemm_{config}_{shape}`, byte for byte as `format!` writes it,
    /// in one allocation (see [`crate::name`]).
    fn name(&self) -> Arc<str> {
        KernelName::new()
            .push("gemm_")
            .push(self.config.label())
            .push("_")
            .shape(&self.shape)
            .finish()
    }

    fn profile(&self, device: &DeviceSpec, _range: &NDRange) -> KernelProfile {
        model::profile(&self.config, &self.shape, device)
    }

    fn execute(&self, _range: &NDRange) -> Result<()> {
        let (m, k, n) = (self.shape.m, self.shape.k, self.shape.n);
        let (tr, tc, ad) = (
            self.config.tile_rows,
            self.config.tile_cols,
            self.config.acc_depth,
        );
        let a = self.a.borrow().read();
        let b = self.b.borrow().read();
        let mut c = self.c.borrow().write();
        if c.is_empty() {
            return Ok(()); // an empty product has nothing to write
        }

        // One "row of work-items" covers `tr` rows of C; distribute those
        // row-bands over the thread pool (the simulated device instead
        // distributes them over compute units).
        c.par_chunks_mut(tr * n).enumerate().for_each(|(gi, band)| {
            let row0 = gi * tr;
            let rows = tr.min(m - row0);
            let grid_cols = n.div_ceil(tc);
            let mut acc = vec![0.0f32; tr * tc];
            let mut a_frag = vec![0.0f32; tr * ad];
            let mut b_frag = vec![0.0f32; ad * tc];

            for gj in 0..grid_cols {
                let col0 = gj * tc;
                let cols = tc.min(n - col0);
                acc.iter_mut().for_each(|v| *v = 0.0);

                let mut p0 = 0usize;
                while p0 < k {
                    let depth = ad.min(k - p0);
                    // Stage the A fragment (tr × depth), zero-padding the
                    // tail exactly as the guarded SYCL loads do.
                    for r in 0..tr {
                        for q in 0..ad {
                            a_frag[r * ad + q] = if r < rows && q < depth {
                                a[(row0 + r) * k + p0 + q]
                            } else {
                                0.0
                            };
                        }
                    }
                    // Stage the B fragment (depth × tc).
                    for q in 0..ad {
                        for cc in 0..tc {
                            b_frag[q * tc + cc] = if q < depth && cc < cols {
                                b[(p0 + q) * n + col0 + cc]
                            } else {
                                0.0
                            };
                        }
                    }
                    // The FMA block: tr × tc × depth independent updates,
                    // eight accumulator columns per SIMD step (bit-exact
                    // with the scalar loop — see `crate::simd::axpy`).
                    for r in 0..tr {
                        for q in 0..ad {
                            let av = a_frag[r * ad + q];
                            if av == 0.0 {
                                continue;
                            }
                            let brow = &b_frag[q * tc..q * tc + tc];
                            let arow = &mut acc[r * tc..r * tc + tc];
                            crate::simd::axpy(arow, av, brow);
                        }
                    }
                    p0 += ad;
                }

                // Guarded store of the accumulator tile.
                for r in 0..rows {
                    for cc in 0..cols {
                        band[r * n + col0 + cc] = acc[r * tc + cc];
                    }
                }
            }
        });
        Ok(())
    }

    fn noise_seed(&self) -> u64 {
        model::noise_seed(&self.config, &self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{WorkGroup, WORK_GROUPS};
    use crate::reference::{max_abs_diff, parallel_reference_gemm, test_matrices};
    use autokernel_sycl_sim::{DeviceType, Platform, Queue};

    fn run_config(config: KernelConfig, shape: GemmShape) -> (Vec<f32>, Vec<f32>) {
        let (a, b) = test_matrices(shape, 1234);
        let mut expect = vec![0.0f32; shape.m * shape.n];
        parallel_reference_gemm(shape, &a, &b, &mut expect);

        let ka = Buffer::from_vec(a);
        let kb = Buffer::from_vec(b);
        let kc = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel = TiledGemmKernel::new(config, shape, ka, kb, kc.clone()).unwrap();
        let platform = Platform::standard();
        let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
        let range = kernel.preferred_range().unwrap();
        queue.submit(&kernel, range).unwrap();
        (kc.to_vec(), expect)
    }

    #[test]
    fn all_tile_shapes_match_reference_on_awkward_shape() {
        // A shape divisible by nothing interesting: exercises every
        // guard path (partial tiles in m, n and k).
        let shape = GemmShape::new(13, 29, 7);
        let wg = WorkGroup { rows: 8, cols: 8 };
        for &tr in &crate::config::TILE_SIZES {
            for &tc in &crate::config::TILE_SIZES {
                for &ad in &crate::config::TILE_SIZES {
                    let cfg = KernelConfig::new(tr, tc, ad, wg).unwrap();
                    let (got, expect) = run_config(cfg, shape);
                    assert!(
                        max_abs_diff(&got, &expect) < 1e-4,
                        "config {cfg} wrong on {shape}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_work_group_shape_matches_reference() {
        let shape = GemmShape::new(33, 17, 49);
        for wg in WORK_GROUPS {
            let cfg = KernelConfig::new(4, 2, 8, wg).unwrap();
            let (got, expect) = run_config(cfg, shape);
            assert!(max_abs_diff(&got, &expect) < 1e-4, "wg {wg} wrong");
        }
    }

    #[test]
    fn single_row_and_single_col_shapes() {
        for shape in [
            GemmShape::new(1, 64, 100),
            GemmShape::new(100, 64, 1),
            GemmShape::new(1, 1, 1),
        ] {
            let cfg = KernelConfig::new(8, 8, 8, WorkGroup { rows: 16, cols: 16 }).unwrap();
            let (got, expect) = run_config(cfg, shape);
            assert!(max_abs_diff(&got, &expect) < 1e-4, "shape {shape} wrong");
        }
    }

    #[test]
    fn rejects_mismatched_buffers() {
        let cfg = KernelConfig::new(1, 1, 1, WorkGroup { rows: 8, cols: 8 }).unwrap();
        let shape = GemmShape::new(4, 4, 4);
        let ok = Buffer::from_vec(vec![0.0f32; 16]);
        let bad = Buffer::from_vec(vec![0.0f32; 15]);
        assert!(TiledGemmKernel::new(cfg, shape, bad, ok.clone(), ok.clone()).is_err());
        assert!(TiledGemmKernel::new(cfg, shape, ok.clone(), ok.clone(), ok).is_ok());
    }

    /// The name is a contract, not decoration: a fault plan dooms a
    /// configuration by the substring `gemm_{config}_`, so every
    /// configuration's name must equal what `format!` writes, on the
    /// smallest shape and on multi-digit and seven-digit dimensions.
    #[test]
    fn kernel_name_is_the_formatted_name_for_every_config() {
        let shapes = [
            GemmShape::new(1, 1, 1),
            GemmShape::new(10, 99, 100),
            GemmShape::new(1024, 4096, 12544),
            GemmShape::new(1_000_000, 9_999_999, 1_048_576),
        ];
        let buf = || Buffer::from_vec(Vec::new());
        for config in KernelConfig::all() {
            for shape in shapes {
                // Names need no operands: an unchecked kernel suffices.
                let kernel = TiledGemmKernel {
                    config,
                    shape,
                    a: buf(),
                    b: buf(),
                    c: buf(),
                };
                assert_eq!(
                    &*kernel.name(),
                    format!("gemm_{}_{}", config, shape),
                    "{config} on {shape}"
                );
            }
        }
    }
}
