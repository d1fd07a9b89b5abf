//! Compile-time file-layout selection (paper §4.4, reference \[7\]).
//!
//! The paper notes that layout optimizations "can sometimes be detected by
//! parallelizing compilers": analyze each loop nest's access pattern to
//! the disk-resident arrays, then pick the file layout that makes the
//! dominant accesses contiguous. This module implements that analysis for
//! 2-D out-of-core arrays: loop nests are summarized as weighted accesses
//! with a fastest-varying dimension, and [`choose_layouts`] picks, per
//! array, the layout conforming to its heavier access direction.

use std::collections::HashMap;

use crate::ooc::FileLayout;

pub mod hints;

pub use hints::{HintError, HintGrid, Hints};

/// Which array index the innermost loop varies fastest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOrder {
    /// Row index varies fastest (walks down a column).
    RowFastest,
    /// Column index varies fastest (walks along a row).
    ColFastest,
}

/// One loop nest's access to one array.
#[derive(Clone, Debug)]
pub struct ArrayAccess {
    /// Array name.
    pub array: String,
    /// Fastest-varying dimension in the nest.
    pub order: AccessOrder,
    /// Relative execution weight (e.g. trip count × passes over the data).
    pub weight: f64,
}

impl ArrayAccess {
    /// Build an access record.
    pub fn new(array: impl Into<String>, order: AccessOrder, weight: f64) -> ArrayAccess {
        assert!(weight >= 0.0, "weight must be non-negative");
        ArrayAccess {
            array: array.into(),
            order,
            weight,
        }
    }
}

/// The layout that makes an access contiguous.
fn conforming_layout(order: AccessOrder) -> FileLayout {
    match order {
        AccessOrder::RowFastest => FileLayout::ColMajor,
        AccessOrder::ColFastest => FileLayout::RowMajor,
    }
}

/// Choose a file layout per array: the one conforming to the heavier
/// access direction. Ties go to column-major (the Fortran default the
/// paper's codes start from).
pub fn choose_layouts(accesses: &[ArrayAccess]) -> HashMap<String, FileLayout> {
    let mut weights: HashMap<String, (f64, f64)> = HashMap::new(); // (row_fastest, col_fastest)
    for a in accesses {
        let e = weights.entry(a.array.clone()).or_insert((0.0, 0.0));
        match a.order {
            AccessOrder::RowFastest => e.0 += a.weight,
            AccessOrder::ColFastest => e.1 += a.weight,
        }
    }
    weights
        .into_iter()
        .map(|(name, (row_w, col_w))| {
            let layout = if col_w > row_w {
                conforming_layout(AccessOrder::ColFastest)
            } else {
                conforming_layout(AccessOrder::RowFastest)
            };
            (name, layout)
        })
        .collect()
}

/// The FFT transpose scenario from the paper: array A read in column
/// blocks, array B written in row blocks (or vice versa). Returns the
/// layouts the advisor picks — one row-major, one column-major.
pub fn fft_transpose_advice() -> HashMap<String, FileLayout> {
    choose_layouts(&[
        ArrayAccess::new("A", AccessOrder::RowFastest, 1.0),
        ArrayAccess::new("B", AccessOrder::ColFastest, 1.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_layout_matches_direction() {
        assert_eq!(
            conforming_layout(AccessOrder::RowFastest),
            FileLayout::ColMajor
        );
        assert_eq!(
            conforming_layout(AccessOrder::ColFastest),
            FileLayout::RowMajor
        );
    }

    #[test]
    fn chooser_follows_dominant_weight() {
        let layouts = choose_layouts(&[
            ArrayAccess::new("X", AccessOrder::RowFastest, 10.0),
            ArrayAccess::new("X", AccessOrder::ColFastest, 3.0),
            ArrayAccess::new("Y", AccessOrder::ColFastest, 5.0),
        ]);
        assert_eq!(layouts["X"], FileLayout::ColMajor);
        assert_eq!(layouts["Y"], FileLayout::RowMajor);
    }

    #[test]
    fn tie_defaults_to_col_major() {
        let layouts = choose_layouts(&[
            ArrayAccess::new("T", AccessOrder::RowFastest, 1.0),
            ArrayAccess::new("T", AccessOrder::ColFastest, 1.0),
        ]);
        assert_eq!(layouts["T"], FileLayout::ColMajor);
    }

    #[test]
    fn fft_advice_differs_per_array() {
        let advice = fft_transpose_advice();
        assert_ne!(advice["A"], advice["B"]);
        assert_eq!(advice["A"], FileLayout::ColMajor);
        assert_eq!(advice["B"], FileLayout::RowMajor);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = ArrayAccess::new("Z", AccessOrder::RowFastest, -1.0);
    }
}
