//! Compressed sparse row (CSR) matrices.
//!
//! Database alignment (paper §4.2) needs the graph Laplacian `D − W` of
//! the kNN graph — an `N × N` matrix with at most `2k` non-zeros per row —
//! and the product `Xᵀ (D − W) X`. Label propagation needs repeated
//! `D⁻¹ W y` applications. CSR keeps both operations linear in the number
//! of edges.

use crate::dense::DenseMatrix;

/// One coordinate-format entry used while assembling a CSR matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: u32,
    /// Column index.
    pub col: u32,
    /// Value; duplicate `(row, col)` entries are summed on assembly.
    pub val: f32,
}

/// A square-or-rectangular sparse matrix in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Assemble from coordinate triplets, summing duplicates.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[Triplet]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for t in triplets {
            assert!((t.row as usize) < rows, "row {} out of bounds", t.row);
            assert!((t.col as usize) < cols, "col {} out of bounds", t.col);
            counts[t.row as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0.0f32; triplets.len()];
        let mut cursor = counts.clone();
        for t in triplets {
            let slot = cursor[t.row as usize];
            col_idx[slot] = t.col;
            values[slot] = t.val;
            cursor[t.row as usize] += 1;
        }
        let mut m = Self {
            rows,
            cols,
            row_ptr: counts,
            col_idx,
            values,
        };
        m.sort_and_merge_rows();
        m
    }

    fn sort_and_merge_rows(&mut self) {
        let mut new_ptr = vec![0usize; self.rows + 1];
        let mut new_cols = Vec::with_capacity(self.col_idx.len());
        let mut new_vals = Vec::with_capacity(self.values.len());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.rows {
            scratch.clear();
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                scratch.push((self.col_idx[k], self.values[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                new_cols.push(c);
                new_vals.push(v);
                i = j;
            }
            new_ptr[r + 1] = new_cols.len();
        }
        self.row_ptr = new_ptr;
        self.col_idx = new_cols;
        self.values = new_vals;
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate `(col, value)` pairs of row `r` in ascending column order.
    #[inline]
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(self.values[lo..hi].iter())
            .map(|(&c, &v)| (c, v))
    }

    /// Row sums (the degree vector when `self` is a weighted adjacency).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Entry `(r, c)` (zero when not stored).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&(c as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Compute `Xᵀ · A · X` where `X` is an `N × d` dense matrix of
    /// embedding rows and `A = self` is `N × N` sparse. This is the
    /// once-per-dataset `M_D = Xᵀ (D − W) X` precomputation of database
    /// alignment (§4.2); cost `O(nnz·d + N·d²)`, output `d × d`.
    pub fn xtax(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, self.cols, "xtax needs a square sparse matrix");
        assert_eq!(x.rows(), self.rows, "X row count must match A dimension");
        let d = x.cols();
        // First y_r = (A X)_r = Σ_c A_rc · X_c  (row by row, sparse).
        // Then M += X_r ⊗ y_r.
        let mut m = DenseMatrix::zeros(d, d);
        let mut y = vec![0.0f32; d];
        for r in 0..self.rows {
            y.iter_mut().for_each(|v| *v = 0.0);
            let mut any = false;
            for (c, v) in self.row_iter(r) {
                any = true;
                let row = x.row(c as usize);
                for (yk, xk) in y.iter_mut().zip(row.iter()) {
                    *yk += v * xk;
                }
            }
            if !any {
                continue;
            }
            let xr = x.row(r);
            for (i, &f) in xr.iter().enumerate() {
                if f == 0.0 {
                    continue;
                }
                let mrow = m.row_mut(i);
                for (mj, yj) in mrow.iter_mut().zip(y.iter()) {
                    *mj += f * yj;
                }
            }
        }
        m
    }
}

#[cfg(test)]
impl CsrMatrix {
    /// `y = A·x`.
    pub(crate) fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (c, v) in self.row_iter(r) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    /// Dense `rows × cols` copy of `m`.
    fn to_dense(m: &CsrMatrix) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            for (c, v) in m.row_iter(r) {
                d.set(r, c as usize, v);
            }
        }
        d
    }

    fn small() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CsrMatrix::from_triplets(
            2,
            3,
            &[
                Triplet {
                    row: 0,
                    col: 2,
                    val: 2.0,
                },
                Triplet {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 3.0,
                },
            ],
        )
    }

    #[test]
    fn assembly_sorts_columns() {
        let m = small();
        let row0: Vec<_> = m.row_iter(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(
            1,
            1,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 1.5,
                },
                Triplet {
                    row: 0,
                    col: 0,
                    val: 2.5,
                },
            ],
        );
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = small();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn row_sums_are_degrees() {
        let m = small();
        assert_eq!(m.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    fn xtax_matches_dense_computation() {
        // A = [[2, -1], [-1, 2]] (a tiny Laplacian), X = [[1, 0], [0, 1]].
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 2.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: -1.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: -1.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 2.0,
                },
            ],
        );
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let m = a.xtax(&x);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn xtax_quadratic_form_equals_edge_sum() {
        // For a Laplacian L of graph 0-1 with weight w, wᵀ(XᵀLX)w must be
        // w·(x0·v − x1·v)² for the projection v... verified numerically
        // against the dense product.
        let l = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 1.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: -1.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: -1.0,
                },
            ],
        );
        let x = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 0.5, -1.0, 3.0, 3.0]);
        let m = l.xtax(&x);
        let w = [0.3f32, -0.7];
        let got = dot(&m.matvec(&w), &w);
        // Dense reference: score_i = x_i · w; edge (0,1) weight 1 →
        // (s0 − s1)².
        let s0 = 1.0 * w[0] + 2.0 * w[1];
        let s1 = 0.5 * w[0] - w[1];
        let expect = (s0 - s1) * (s0 - s1);
        assert!((got - expect).abs() < 1e-5, "{got} vs {expect}");
    }

    #[test]
    fn symmetry_diagnostic() {
        let sym = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 1,
                    val: 2.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: 2.0,
                },
            ],
        );
        assert_eq!((sym.get(0, 1), sym.get(1, 0)), (2.0, 2.0));
        let asym = CsrMatrix::from_triplets(
            2,
            2,
            &[Triplet {
                row: 0,
                col: 1,
                val: 2.0,
            }],
        );
        assert_eq!((asym.get(0, 1), asym.get(1, 0)), (2.0, 0.0));
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = small();
        let d = to_dense(&m);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 0), 0.0);
    }
}
