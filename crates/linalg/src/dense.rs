//! Row-major dense `f32` matrices.
//!
//! [`DenseMatrix`] stores an `N × d` block of embedding rows (patches or
//! images) and the small `d × d` database-alignment matrix `M_D`
//! (paper §4.2). The layout is a single contiguous buffer so scans and
//! `gemv`-style products stay cache friendly.

/// A row-major dense matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing buffer (row-major, length must be `rows·cols`).
    ///
    /// # Panics
    /// Panics when the buffer length does not match the shape.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from an iterator of equal-length rows.
    pub fn from_rows<'a, I: IntoIterator<Item = &'a [f32]>>(cols: usize, rows: I) -> Self {
        let mut data = Vec::new();
        let mut n = 0usize;
        for row in rows {
            assert_eq!(row.len(), cols, "row {n} has wrong length");
            data.extend_from_slice(row);
            n += 1;
        }
        Self {
            rows: n,
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Scale every entry by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// Force exact symmetry by averaging with the transpose.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, m);
                self.set(j, i, m);
            }
        }
    }
}

#[cfg(test)]
impl DenseMatrix {
    /// `y = A·x` (length `rows`), computed by the blocked
    /// [`crate::kernels::gemv1_into`] kernel.
    pub(crate) fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f32; self.rows];
        if self.cols > 0 {
            crate::kernels::gemv1_into(&self.data, self.cols, x, &mut y);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn quadratic_form_square() {
        let m = DenseMatrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]);
        let x = [1.0, 2.0];
        assert_eq!(dot(&m.matvec(&x), &x), 2.0 + 12.0);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 4.0, 1.0]);
        m.symmetrize();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!((m.get(0, 0), m.get(1, 1)), (1.0, 1.0));
    }

    #[test]
    fn from_rows_builds_matrix() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0, 4.0]];
        let m = DenseMatrix::from_rows(2, rows);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_shape() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0; 5]);
    }
}
