//! Batched GEMM: many independent same-shape multiplies in one launch —
//! how attention heads and Winograd tile positions hit the device.
//!
//! A batched launch differs from a loop of single launches in two ways
//! the model must capture: one launch overhead instead of N, and a
//! dispatch N× wider (better device fill and fewer partial wave passes
//! for small instances).

use crate::config::KernelConfig;
use crate::kernel::TiledGemmKernel;
use crate::model;
use crate::name::KernelName;
use crate::shape::GemmShape;
use autokernel_sycl_sim::perf::KernelProfile;
use autokernel_sycl_sim::runtime::{Buffer, NDRange, SimKernel};
use autokernel_sycl_sim::{DeviceSpec, Result, SimError};
use std::sync::Arc;

/// `instances` independent `C_i = A_i · B_i` of one shape, one launch.
pub struct BatchedGemmKernel {
    config: KernelConfig,
    shape: GemmShape,
    instances: Vec<TiledGemmKernel>,
}

impl BatchedGemmKernel {
    /// Bind a batched kernel to its per-instance operand buffers.
    ///
    /// All instances share `shape` and `config`; buffer triples must
    /// match the shape (checked per instance).
    pub fn new(
        config: KernelConfig,
        shape: GemmShape,
        operands: Vec<(Buffer<f32>, Buffer<f32>, Buffer<f32>)>,
    ) -> Result<Self> {
        if operands.is_empty() {
            return Err(SimError::BadLaunch(
                "batched GEMM needs at least one instance".into(),
            ));
        }
        let instances = operands
            .into_iter()
            .map(|(a, b, c)| TiledGemmKernel::new(config, shape, a, b, c))
            .collect::<Result<Vec<_>>>()?;
        Ok(BatchedGemmKernel {
            config,
            shape,
            instances,
        })
    }

    /// Number of instances in the batch.
    pub fn batch(&self) -> usize {
        self.instances.len()
    }

    /// The launch range: the single-instance grid stretched `batch`×
    /// along the row dimension (instances stack in M).
    pub fn preferred_range(&self) -> Result<NDRange> {
        let grid = model::useful_grid(&self.config, &self.shape);
        NDRange::padded(
            [grid[0] * self.batch(), grid[1]],
            [self.config.work_group.rows, self.config.work_group.cols],
        )
    }
}

impl SimKernel for BatchedGemmKernel {
    fn name(&self) -> Arc<str> {
        KernelName::new()
            .push("batched")
            .number(self.batch())
            .push("x_gemm_")
            .push(self.config.label())
            .push("_")
            .shape(&self.shape)
            .finish()
    }

    fn profile(&self, device: &DeviceSpec, _range: &NDRange) -> KernelProfile {
        let single = model::profile(&self.config, &self.shape, device);
        KernelProfile {
            useful_items: single.useful_items * self.batch() as f64,
            ..single
        }
    }

    fn execute(&self, range: &NDRange) -> Result<()> {
        for k in &self.instances {
            k.execute(range)?;
        }
        Ok(())
    }

    fn noise_seed(&self) -> u64 {
        model::noise_seed(&self.config, &self.shape) ^ (self.batch() as u64).rotate_left(17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkGroup;
    use crate::reference::{max_abs_diff, reference_gemm, test_matrices};
    use autokernel_sycl_sim::{DeviceType, Platform, Queue};
    use std::sync::Arc;

    fn cfg() -> KernelConfig {
        KernelConfig::new(4, 4, 2, WorkGroup { rows: 8, cols: 8 }).unwrap()
    }

    #[test]
    fn batched_execution_matches_per_instance_reference() {
        let shape = GemmShape::new(13, 9, 7);
        let mut operands = Vec::new();
        let mut expects = Vec::new();
        for i in 0..5u64 {
            let (a, b) = test_matrices(shape, 100 + i);
            let mut expect = vec![0.0f32; shape.m * shape.n];
            reference_gemm(shape, &a, &b, &mut expect);
            expects.push(expect);
            operands.push((
                Buffer::from_vec(a),
                Buffer::from_vec(b),
                Buffer::from_vec(vec![0.0f32; shape.m * shape.n]),
            ));
        }
        let outs: Vec<Buffer<f32>> = operands.iter().map(|(_, _, c)| c.clone()).collect();
        let kernel = BatchedGemmKernel::new(cfg(), shape, operands).unwrap();
        let platform = Platform::standard();
        let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
        queue
            .submit(&kernel, kernel.preferred_range().unwrap())
            .unwrap();
        for (out, expect) in outs.iter().zip(&expects) {
            assert!(max_abs_diff(&out.to_vec(), expect) < 1e-4);
        }
    }

    #[test]
    fn one_batched_launch_is_cheaper_than_n_single_launches() {
        // Attention-sized instances: small GEMMs dominated by overhead
        // and poor device fill when launched one by one.
        let shape = GemmShape::new(128, 64, 128);
        let device = Arc::new(DeviceSpec::amd_r9_nano());
        let queue = Queue::timing_only(device.clone());
        let batch = 12usize;

        let single_range = model::launch_range(&cfg(), &shape).unwrap();
        let single_profile = model::profile(&cfg(), &shape, &device);
        let (_, t_single) = queue
            .price(
                &single_profile,
                &single_range,
                model::noise_seed(&cfg(), &shape),
            )
            .unwrap();

        let operands = (0..batch)
            .map(|_| {
                (
                    Buffer::from_vec(vec![0.0f32; shape.m * shape.k]),
                    Buffer::from_vec(vec![0.0f32; shape.k * shape.n]),
                    Buffer::from_vec(vec![0.0f32; shape.m * shape.n]),
                )
            })
            .collect();
        let kernel = BatchedGemmKernel::new(cfg(), shape, operands).unwrap();
        let range = kernel.preferred_range().unwrap();
        let profile = kernel.profile(&device, &range);
        let (_, t_batched) = queue.price(&profile, &range, kernel.noise_seed()).unwrap();

        assert!(
            t_batched < t_single * batch as f64 * 0.8,
            "batched {t_batched} vs {batch} x {t_single}"
        );
    }

    #[test]
    fn rejects_empty_batch_and_bad_buffers() {
        let shape = GemmShape::new(4, 4, 4);
        assert!(BatchedGemmKernel::new(cfg(), shape, vec![]).is_err());
        let bad = (
            Buffer::from_vec(vec![0.0f32; 3]), // wrong size
            Buffer::from_vec(vec![0.0f32; 16]),
            Buffer::from_vec(vec![0.0f32; 16]),
        );
        assert!(BatchedGemmKernel::new(cfg(), shape, vec![bad]).is_err());
    }

    #[test]
    fn range_stacks_instances_in_m() {
        let shape = GemmShape::new(16, 8, 16);
        let operands = (0..3)
            .map(|_| {
                (
                    Buffer::from_vec(vec![0.0f32; 128]),
                    Buffer::from_vec(vec![0.0f32; 128]),
                    Buffer::from_vec(vec![0.0f32; 256]),
                )
            })
            .collect();
        let kernel = BatchedGemmKernel::new(cfg(), shape, operands).unwrap();
        assert_eq!(kernel.batch(), 3);
        let single = model::useful_grid(&cfg(), &shape);
        let r = kernel.preferred_range().unwrap();
        assert!(r.global()[0] >= single[0] * 3);
        assert!(kernel.name().starts_with("batched3x_"));
    }
}
