//! Dense row-major matrices with the handful of operations the Themis
//! solvers need.

use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            *o = dot(row, x);
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * yi;
            }
        }
        out
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    /// Panics if inner dimensions differ.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Extract the sub-matrix with the given columns, preserving order.
    pub fn select_columns(&self, cols: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = src[c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn indexing_is_row_major() {
        let m = a();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(2, 0)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matvec_works() {
        let m = a();
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn matvec_t_is_transpose_product() {
        let m = a();
        let y = vec![1.0, 0.0, 2.0];
        assert_eq!(m.matvec_t(&y), m.transpose().matvec(&y));
    }

    #[test]
    fn matmul_against_hand_computed() {
        let m = a();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(m.matmul(&b), m);
        let sq = m.transpose().matmul(&m);
        assert_eq!(sq[(0, 0)], 35.0);
        assert_eq!(sq[(0, 1)], 44.0);
        assert_eq!(sq[(1, 1)], 56.0);
    }

    #[test]
    fn select_columns_preserves_order() {
        let m = a();
        let s = m.select_columns(&[1]);
        assert_eq!(s.cols(), 1);
        assert_eq!(s[(2, 0)], 6.0);
    }

    #[test]
    fn push_row_grows() {
        let mut m = a();
        m.push_row(&[7.0, 8.0]);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(3), &[7.0, 8.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let m = a();
        let i = DenseMatrix::identity(2);
        assert_eq!(m.matmul(&i), m);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }
}
