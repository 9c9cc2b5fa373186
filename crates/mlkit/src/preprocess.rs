//! Feature scaling and transforms applied before the estimators.

use crate::matrix::Matrix;
use crate::{MlError, Result};

/// Standardise features to zero mean and unit variance.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Create an unfitted scaler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learn per-column mean and standard deviation.
    pub fn fit(&mut self, x: &Matrix) -> Result<&mut Self> {
        if x.rows() == 0 {
            return Err(MlError::BadShape(
                "cannot fit scaler on empty matrix".into(),
            ));
        }
        self.mean = x.col_means();
        let n = x.rows() as f64;
        let mut var = vec![0.0; x.cols()];
        for row in x.rows_iter() {
            for ((v, m), &xv) in var.iter_mut().zip(&self.mean).zip(row) {
                let d = xv - m;
                *v += d * d;
            }
        }
        self.std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0 // Constant column: leave it centred but unscaled.
                }
            })
            .collect();
        Ok(self)
    }

    /// Apply the learned scaling.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if self.mean.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.mean.len() {
            return Err(MlError::BadShape("transform feature count mismatch".into()));
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            self.scale(out.row_mut(r));
        }
        Ok(out)
    }

    /// Apply the learned scaling to one sample in place, the same
    /// arithmetic [`StandardScaler::transform`] does on every row.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        if self.mean.is_empty() {
            return Err(MlError::NotFitted);
        }
        if row.len() != self.mean.len() {
            return Err(MlError::BadShape("transform feature count mismatch".into()));
        }
        self.scale(row);
        Ok(())
    }

    fn scale(&self, row: &mut [f64]) {
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Fit and transform in one call.
    pub fn fit_transform(&mut self, x: &Matrix) -> Result<Matrix> {
        self.fit(x)?;
        self.transform(x)
    }

    /// The fitted per-column means (empty before fitting).
    pub fn means(&self) -> &[f64] {
        &self.mean
    }

    /// The fitted per-column standard deviations (empty before fitting).
    pub fn stds(&self) -> &[f64] {
        &self.std
    }

    /// Undo the scaling.
    pub fn inverse_transform(&self, x: &Matrix) -> Result<Matrix> {
        if self.mean.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.mean.len() {
            return Err(MlError::BadShape("inverse feature count mismatch".into()));
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            for ((v, m), s) in out.row_mut(r).iter_mut().zip(&self.mean).zip(&self.std) {
                *v = *v * s + m;
            }
        }
        Ok(out)
    }
}

/// Scale features into `[0, 1]` per column.
#[derive(Debug, Clone, Default)]
pub struct MinMaxScaler {
    min: Vec<f64>,
    range: Vec<f64>,
}

impl MinMaxScaler {
    /// Create an unfitted scaler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learn per-column min and range.
    pub fn fit(&mut self, x: &Matrix) -> Result<&mut Self> {
        if x.rows() == 0 {
            return Err(MlError::BadShape(
                "cannot fit scaler on empty matrix".into(),
            ));
        }
        let mut min = vec![f64::INFINITY; x.cols()];
        let mut max = vec![f64::NEG_INFINITY; x.cols()];
        for row in x.rows_iter() {
            for ((mn, mx), &v) in min.iter_mut().zip(&mut max).zip(row) {
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        self.range = min
            .iter()
            .zip(&max)
            .map(|(&a, &b)| if b > a { b - a } else { 1.0 })
            .collect();
        self.min = min;
        Ok(self)
    }

    /// Apply the learned scaling.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if self.min.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.min.len() {
            return Err(MlError::BadShape("transform feature count mismatch".into()));
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            for ((v, mn), rg) in out.row_mut(r).iter_mut().zip(&self.min).zip(&self.range) {
                *v = (*v - mn) / rg;
            }
        }
        Ok(out)
    }

    /// Fit and transform in one call.
    pub fn fit_transform(&mut self, x: &Matrix) -> Result<Matrix> {
        self.fit(x)?;
        self.transform(x)
    }
}

/// Element-wise `log2(1 + x)`, the standard transform for size-like
/// features such as matrix dimensions.
pub fn log2p1(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        for v in out.row_mut(r) {
            *v = (1.0 + *v).log2();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scaler_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 200.0]]).unwrap();
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        let means = z.col_means();
        assert!(means.iter().all(|m| m.abs() < 1e-12));
        let mut row = [3.0, 300.0];
        s.transform_row(&mut row).unwrap();
        assert_eq!(row, z.row(1), "one row scales exactly as the matrix");
        assert!(s.transform_row(&mut [1.0]).is_err());
        for c in 0..2 {
            let var: f64 = z.col(c).iter().map(|v| v * v).sum::<f64>() / 3.0;
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_scaler_handles_constant_column() {
        let x = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        assert_eq!(z[(0, 0)], 0.0);
        assert_eq!(z[(1, 0)], 0.0);
    }

    #[test]
    fn standard_scaler_roundtrip() {
        let x = Matrix::from_rows(&[vec![1.0, -4.0], vec![9.0, 2.0], vec![-3.0, 8.0]]).unwrap();
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        let back = s.inverse_transform(&z).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((back[(i, j)] - x[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn minmax_bounds() {
        let x = Matrix::from_rows(&[vec![2.0, -5.0], vec![4.0, 5.0], vec![3.0, 0.0]]).unwrap();
        let mut s = MinMaxScaler::new();
        let z = s.fit_transform(&x).unwrap();
        for v in z.as_slice() {
            assert!(*v >= 0.0 && *v <= 1.0);
        }
        assert_eq!(z[(0, 0)], 0.0);
        assert_eq!(z[(1, 0)], 1.0);
    }

    #[test]
    fn log_transform_values() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0, 3.0]]).unwrap();
        let z = log2p1(&x);
        assert_eq!(z.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn unfitted_errors() {
        let s = StandardScaler::new();
        assert!(s.transform(&Matrix::zeros(1, 1)).is_err());
        let m = MinMaxScaler::new();
        assert!(m.transform(&Matrix::zeros(1, 1)).is_err());
    }
}
