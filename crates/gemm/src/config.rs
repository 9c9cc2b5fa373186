//! The kernel configuration space: 64 compile-time kernels × 10
//! work-group shapes = 640 configurations.

use serde::{Deserialize, Serialize};

/// The tile-size values the paper sweeps for each compile-time parameter.
pub const TILE_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The ten work-group shapes compared by the paper.
pub const WORK_GROUPS: [WorkGroup; 10] = [
    WorkGroup { rows: 1, cols: 64 },
    WorkGroup { rows: 1, cols: 128 },
    WorkGroup { rows: 8, cols: 8 },
    WorkGroup { rows: 8, cols: 16 },
    WorkGroup { rows: 8, cols: 32 },
    WorkGroup { rows: 16, cols: 8 },
    WorkGroup { rows: 16, cols: 16 },
    WorkGroup { rows: 32, cols: 8 },
    WorkGroup { rows: 64, cols: 1 },
    WorkGroup { rows: 128, cols: 1 },
];

/// Perfect-hash position table for [`WORK_GROUPS`]: indexed by
/// `log2(rows) * 8 + log2(cols)` (both dimensions are powers of two
/// with `log2 <= 7`), each occupied key holds the shape's position in
/// [`WORK_GROUPS`]; unoccupied keys hold `u8::MAX`.
const WG_POS: [u8; 64] = build_wg_pos();

const fn build_wg_pos() -> [u8; 64] {
    let mut table = [u8::MAX; 64];
    let mut i = 0;
    while i < WORK_GROUPS.len() {
        let wg = WORK_GROUPS[i];
        let key = wg.rows.trailing_zeros() as usize * 8 + wg.cols.trailing_zeros() as usize;
        table[key] = i as u8;
        i += 1;
    }
    table
}

/// A work-group shape (rows × cols of work-items).
///
/// Rows index the M direction of the output, columns the N direction.
/// Work-group shape is a *runtime* parameter: it does not require a new
/// kernel to be compiled, but it changes scheduling and coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkGroup {
    /// Work-items along the output-row (M) direction.
    pub rows: usize,
    /// Work-items along the output-column (N) direction.
    pub cols: usize,
}

impl WorkGroup {
    /// Total work-items per group.
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }
}

impl std::fmt::Display for WorkGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.rows, self.cols)
    }
}

/// One point of the 640-configuration space.
///
/// ```
/// use autokernel_gemm::{KernelConfig, WorkGroup};
/// assert_eq!(KernelConfig::all().len(), 640);
/// let cfg = KernelConfig::new(4, 8, 2, WorkGroup { rows: 16, cols: 16 }).unwrap();
/// assert_eq!(cfg.to_string(), "T4x8A2_WG16x16");
/// assert_eq!(KernelConfig::from_index(cfg.index()), Some(cfg));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Output-tile rows computed per work-item (compile-time).
    pub tile_rows: usize,
    /// Output-tile columns computed per work-item (compile-time).
    pub tile_cols: usize,
    /// Values accumulated per inner-loop step (compile-time).
    pub acc_depth: usize,
    /// Work-group shape (runtime).
    pub work_group: WorkGroup,
}

impl KernelConfig {
    /// Create a configuration, validating each field against the space.
    pub fn new(
        tile_rows: usize,
        tile_cols: usize,
        acc_depth: usize,
        work_group: WorkGroup,
    ) -> Option<Self> {
        let valid_tile = |v| TILE_SIZES.contains(&v);
        if valid_tile(tile_rows)
            && valid_tile(tile_cols)
            && valid_tile(acc_depth)
            && WORK_GROUPS.contains(&work_group)
        {
            Some(KernelConfig {
                tile_rows,
                tile_cols,
                acc_depth,
                work_group,
            })
        } else {
            None
        }
    }

    /// Every configuration, in a fixed deterministic order: work-group
    /// varies fastest, then accumulator depth, tile columns, tile rows.
    pub fn all() -> Vec<KernelConfig> {
        let mut out = Vec::with_capacity(Self::count());
        for &tr in &TILE_SIZES {
            for &tc in &TILE_SIZES {
                for &ad in &TILE_SIZES {
                    for &wg in &WORK_GROUPS {
                        out.push(KernelConfig {
                            tile_rows: tr,
                            tile_cols: tc,
                            acc_depth: ad,
                            work_group: wg,
                        });
                    }
                }
            }
        }
        out
    }

    /// Size of the full configuration space (640).
    pub const fn count() -> usize {
        TILE_SIZES.len() * TILE_SIZES.len() * TILE_SIZES.len() * WORK_GROUPS.len()
    }

    /// Stable index of this configuration within [`KernelConfig::all`].
    ///
    /// Branchless: every tile size is a power of two in `1..=8`, so its
    /// position within [`TILE_SIZES`] *is* its `trailing_zeros`; every
    /// work-group dimension is a power of two with `log2 <= 7`, so
    /// `log2(rows) * 8 + log2(cols)` is a perfect 6-bit key into the
    /// const [`WG_POS`] table. No iteration, no data-dependent branch.
    #[inline]
    pub fn index(&self) -> usize {
        let pos = |v: usize| (v.trailing_zeros() as usize) & 3;
        let key = (self.work_group.rows.trailing_zeros() & 7) * 8
            + (self.work_group.cols.trailing_zeros() & 7);
        let wg = WG_POS[key as usize & 63] as usize;
        debug_assert!(wg != u8::MAX as usize, "work group outside the space");
        ((pos(self.tile_rows) * TILE_SIZES.len() + pos(self.tile_cols)) * TILE_SIZES.len()
            + pos(self.acc_depth))
            * WORK_GROUPS.len()
            + wg
    }

    /// Inverse of [`KernelConfig::index`].
    pub fn from_index(index: usize) -> Option<KernelConfig> {
        if index >= Self::count() {
            return None;
        }
        let wg = index % WORK_GROUPS.len();
        let rest = index / WORK_GROUPS.len();
        let ad = rest % TILE_SIZES.len();
        let rest = rest / TILE_SIZES.len();
        let tc = rest % TILE_SIZES.len();
        let tr = rest / TILE_SIZES.len();
        Some(KernelConfig {
            tile_rows: TILE_SIZES[tr],
            tile_cols: TILE_SIZES[tc],
            acc_depth: TILE_SIZES[ad],
            work_group: WORK_GROUPS[wg],
        })
    }

    /// The 64 compile-time kernel variants (tile parameters only), i.e.
    /// what actually inflates library size — work-group shape is runtime.
    pub fn compile_time_variants() -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(64);
        for &tr in &TILE_SIZES {
            for &tc in &TILE_SIZES {
                for &ad in &TILE_SIZES {
                    out.push((tr, tc, ad));
                }
            }
        }
        out
    }
}

impl std::fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "T{}x{}A{}_WG{}x{}",
            self.tile_rows,
            self.tile_cols,
            self.acc_depth,
            self.work_group.rows,
            self.work_group.cols
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn space_has_640_points() {
        assert_eq!(KernelConfig::count(), 640);
        assert_eq!(KernelConfig::all().len(), 640);
        assert_eq!(KernelConfig::compile_time_variants().len(), 64);
    }

    #[test]
    fn all_configs_distinct() {
        let all = KernelConfig::all();
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 640);
    }

    #[test]
    fn index_roundtrip() {
        for (i, cfg) in KernelConfig::all().iter().enumerate() {
            assert_eq!(cfg.index(), i);
            assert_eq!(KernelConfig::from_index(i).unwrap(), *cfg);
        }
        assert!(KernelConfig::from_index(640).is_none());
    }

    #[test]
    fn wg_pos_table_is_a_perfect_hash() {
        // The branchless work-group lookup must agree with the linear
        // scan it replaced, and unoccupied keys must stay sentinels.
        let occupied: Vec<usize> = WORK_GROUPS
            .iter()
            .map(|wg| wg.rows.trailing_zeros() as usize * 8 + wg.cols.trailing_zeros() as usize)
            .collect();
        for (pos, key) in occupied.iter().enumerate() {
            assert_eq!(WG_POS[*key] as usize, pos);
        }
        for (key, slot) in WG_POS.iter().enumerate() {
            if !occupied.contains(&key) {
                assert_eq!(*slot, u8::MAX, "key {key} should be unoccupied");
            }
        }
    }

    #[test]
    fn new_validates_membership() {
        let wg = WorkGroup { rows: 16, cols: 16 };
        assert!(KernelConfig::new(4, 4, 8, wg).is_some());
        assert!(KernelConfig::new(3, 4, 8, wg).is_none());
        assert!(KernelConfig::new(4, 4, 8, WorkGroup { rows: 2, cols: 2 }).is_none());
    }

    #[test]
    fn work_group_sizes_match_paper() {
        // All ten shapes contain 64, 128 or 256 work-items.
        for wg in WORK_GROUPS {
            assert!([64, 128, 256].contains(&wg.size()), "{wg} has odd size");
        }
    }

    #[test]
    fn display_is_compact() {
        let cfg = KernelConfig::new(4, 8, 2, WorkGroup { rows: 8, cols: 16 }).unwrap();
        assert_eq!(cfg.to_string(), "T4x8A2_WG8x16");
    }
}
