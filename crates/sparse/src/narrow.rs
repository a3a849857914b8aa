//! Narrow-index CSR: `u32` column indices for matrices whose column
//! count fits in 32 bits.
//!
//! Every scale the paper benchmarks (16–22) has far fewer than `2^32`
//! vertices, so the wide `u64` column indices of [`Csr`] waste half the
//! index bandwidth of the kernel-3 hot loop. [`Csr32`] stores the same
//! structure with `u32` columns. The parallel kernel
//! ([`crate::spmv::step_fused`]) runs over a [`CsrView`] of either width;
//! the parallel backend selects the narrow form whenever
//! [`Csr32::try_from_wide`] succeeds and keeps the wide form only above
//! `2^32` vertices.

use crate::csr::CsrView;
use crate::Csr;

/// CSR storage with `u32` column indices and `f64` values.
///
/// Structurally identical to [`Csr<f64>`] — same row-pointer layout, same
/// (row, sorted-column) entry order — only the index width differs.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr32 {
    rows: u64,
    cols: u64,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr32 {
    /// Converts a wide-index matrix to the narrow form, or returns `None`
    /// when the column count does not fit `u32` indices (i.e. any column
    /// index could be `>= 2^32`).
    pub fn try_from_wide(wide: &Csr<f64>) -> Option<Self> {
        if wide.cols() > u64::from(u32::MAX) + 1 {
            return None;
        }
        let col_idx: Vec<u32> = wide.col_indices().iter().map(|&c| c as u32).collect();
        Some(Self {
            rows: wide.rows(),
            cols: wide.cols(),
            row_ptr: wide.row_ptr().to_vec(),
            col_idx,
            values: wide.values().to_vec(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// A borrowed [`CsrView`] over this matrix's storage.
    pub fn view(&self) -> CsrView<'_, u32> {
        CsrView::from_parts(
            self.rows,
            self.cols,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::<f64>::new(4, 4);
        coo.push(0, 1, 0.5);
        coo.push(0, 3, 0.5);
        coo.push(2, 0, 1.0);
        coo.push(3, 2, 0.25);
        coo.push(3, 3, 0.75);
        coo.compress()
    }

    #[test]
    fn narrowing_preserves_structure_and_values() {
        let wide = sample();
        let narrow = Csr32::try_from_wide(&wide).expect("4 cols fit u32");
        assert_eq!(narrow.rows(), wide.rows());
        assert_eq!(narrow.cols(), wide.cols());
        assert_eq!(narrow.nnz(), wide.nnz());
        assert_eq!(narrow.row_ptr(), wide.row_ptr());
    }

    #[test]
    fn narrow_rejects_oversized_column_space() {
        let wide = Csr::<f64>::zero(2, u64::from(u32::MAX) + 2);
        assert!(Csr32::try_from_wide(&wide).is_none());
        // Exactly 2^32 columns still fits: max index is u32::MAX.
        let edge = Csr::<f64>::zero(2, u64::from(u32::MAX) + 1);
        assert!(Csr32::try_from_wide(&edge).is_some());
    }

    #[test]
    fn views_agree_across_widths() {
        let wide = sample();
        let narrow = Csr32::try_from_wide(&wide).unwrap();
        let wv = wide.view();
        let nv = narrow.view();
        assert_eq!(wv.rows(), nv.rows());
        assert_eq!(wv.nnz(), nv.nnz());
        for r in 0..wide.rows() as usize {
            let (wc, wvals) = wv.row(r);
            let (nc, nvals) = nv.row(r);
            assert_eq!(wvals, nvals);
            assert!(wc.iter().zip(nc).all(|(&w, &n)| w == u64::from(n)));
        }
    }
}
