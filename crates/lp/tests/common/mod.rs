//! A fixture shared by `alloc_budget.rs` and the `lu_refactorize` group of
//! pm-bench's `lp_solve` benchmark, so the test and the benchmark measure
//! the same basis.

use pm_lp::CscMatrix;

/// A slack-heavy network basis of `m` rows, one column per row, shaped like
/// the hint installs of the flow LPs. Rows come in blocks of ten: six keep
/// their slack, one takes a tree arc from the block's first row, and three
/// take a gain cycle (`+1` at its row, `-0.5` at the next row of the
/// cycle), whose elimination needs multipliers and makes fill. Rows after
/// the last whole block keep their slacks. Row 0 takes a period column,
/// like the `T` of the one-port rows: `-1` in the second row of every
/// block, whose slack is basic.
pub fn network_basis(m: usize) -> CscMatrix {
    let mut triplets = Vec::new();
    for r in 0..m {
        let (base, k) = (r - r % 10, r % 10);
        if r == 0 {
            triplets.push((0, 0, 1.0));
            triplets.extend((1..m).step_by(10).map(|row| (row, 0, -1.0)));
        } else if k < 6 || base + 10 > m {
            triplets.push((r, r, 1.0));
        } else if k == 6 {
            triplets.push((base, r, -1.0));
            triplets.push((r, r, 1.0));
        } else {
            let next = base + 7 + (k - 6) % 3;
            triplets.push((r, r, 1.0));
            triplets.push((next, r, -0.5));
            if k == 7 {
                triplets.push((base + 6, r, -1.0));
            }
        }
    }
    CscMatrix::from_triplets(m, m, &triplets)
}
