//! Compressed sparse column (CSC) storage for the standardized constraint
//! matrix.
//!
//! The revised simplex never forms the full tableau: every iteration touches
//! one column of `A` (the FTRAN of the entering column) and prices the
//! nonbasic columns against the dual vector, both of which want fast
//! column-wise access with the column's nonzeros packed together. The LPs the
//! mechanism produces are extremely sparse — a hinge row touches only the
//! participants of one annotation — so CSC keeps the per-iteration cost at
//! `O(m + nnz(A) + nnz(LU))` (dense `m`-vectors, one pass over `A` to
//! price, and the sparse factors with their updates) instead of the dense
//! tableau's `O(m·n)` touched-and-written.

/// A read-only sparse matrix in compressed-sparse-column form.
#[derive(Clone, Debug)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the nonzeros of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds the matrix from `(row, col, value)` triplets. Duplicate
    /// `(row, col)` entries are summed; exact zeros (including duplicate sums
    /// that cancel) are dropped.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.to_vec();
        // Column-major, then row order inside a column, so duplicates are
        // adjacent and columns come out packed.
        entries.sort_by_key(|&(row, col, _)| (col, row));

        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut iter = entries.into_iter().peekable();
        while let Some((row, col, mut value)) = iter.next() {
            debug_assert!(
                row < nrows && col < ncols,
                "triplet ({row},{col}) out of range"
            );
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == row && c2 == col {
                    value += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if value != 0.0 {
                row_idx.push(row);
                values.push(value);
                col_ptr[col + 1] += 1;
            }
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The nonzeros of column `j` as `(row, value)` pairs.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// The row indices and values of column `j`, as two parallel slices.
    pub(crate) fn col_slices(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// Dot product of column `j` with a dense vector of length `nrows`.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        self.col(j).map(|(i, v)| v * dense[i]).sum()
    }

    /// An order-sensitive FNV-style fingerprint of the matrix (dimensions,
    /// sparsity pattern and value bits). Used to tie a cached basis inverse
    /// to the matrix it was factored against.
    pub fn fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        mix(self.nrows as u64);
        mix(self.ncols as u64);
        for &p in &self.col_ptr {
            mix(p as u64);
        }
        for (&r, &v) in self.row_idx.iter().zip(&self.values) {
            mix(r as u64);
            mix(v.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_are_packed_by_column() {
        let m = CscMatrix::from_triplets(3, 4, &[(2, 1, 5.0), (0, 1, 2.0), (1, 3, -1.0)]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0).count(), 0);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
        assert_eq!(m.col(2).count(), 0);
        assert_eq!(m.col(3).collect::<Vec<_>>(), vec![(1, -1.0)]);
    }

    #[test]
    fn duplicates_are_summed_and_cancellations_dropped() {
        let m =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.5), (0, 0, 0.5), (1, 1, 3.0), (1, 1, -3.0)]);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 2.0)]);
        assert_eq!(m.col(1).count(), 0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn col_dot_matches_a_dense_product() {
        let m = CscMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 0, 4.0), (1, 1, -2.0)]);
        let v = [1.0, 2.0, 3.0];
        assert_eq!(m.col_dot(0, &v), 13.0);
        assert_eq!(m.col_dot(1, &v), -4.0);
    }
}
