//! Sparse building blocks for the revised simplex: a compressed-sparse-column
//! matrix and a triplet-based [`LpProblem`] builder.
//!
//! The steady-state multicast LPs are network-flow shaped — each constraint
//! touches only the few edge variables incident to one node — so the solver
//! works column-wise on a [`CscMatrix`] instead of eliminating dense rows.
//! Formulations emit `(row, column, coefficient)` triplets through
//! [`SparseBuilder`] (or [`LpProblem::from_triplets`]) and never materialize
//! zero coefficients.

use crate::problem::{LpError, LpProblem, Objective, Relation, VarId};

/// A read-only sparse matrix in compressed-sparse-column (CSC) layout.
///
/// Column `j` occupies `col_ptr[j]..col_ptr[j + 1]` in `row_idx` / `values`,
/// with row indices strictly increasing inside a column and duplicate
/// `(row, col)` triplets summed at construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds an `m × n` matrix from `(row, col, value)` triplets. Duplicates
    /// are summed; explicit zeros (and duplicate groups summing to zero) are
    /// dropped.
    ///
    /// # Panics
    /// Panics if a triplet is out of bounds.
    pub fn from_triplets(m: usize, n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // Counting sort by column keeps construction linear; iterating the
        // triplets in input order twice preserves their relative order, so
        // row indices stay sorted inside a column whenever the triplets are
        // produced row-major (the builder's case). A per-column sort below
        // covers arbitrary input orders.
        let mut counts = vec![0usize; n + 1];
        for &(r, c, _) in triplets {
            assert!(r < m && c < n, "triplet ({r}, {c}) out of {m}×{n} bounds");
            counts[c + 1] += 1;
        }
        for j in 0..n {
            counts[j + 1] += counts[j];
        }
        let mut rows = vec![0u32; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[c];
            next[c] += 1;
            rows[slot] = r as u32;
            vals[slot] = v;
        }
        // Sort each column by row (through one reused buffer), then compress
        // duplicates and zeros.
        let mut col_ptr = vec![0usize; n + 1];
        let mut out_rows: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(triplets.len());
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for j in 0..n {
            let (lo, hi) = (counts[j], counts[j + 1]);
            entries.clear();
            entries.extend(
                rows[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            entries.sort_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < entries.len() {
                let row = entries[k].0;
                let mut sum = 0.0;
                while k < entries.len() && entries[k].0 == row {
                    sum += entries[k].1;
                    k += 1;
                }
                if sum != 0.0 {
                    out_rows.push(row);
                    out_vals.push(sum);
                }
            }
            col_ptr[j + 1] = out_rows.len();
        }
        CscMatrix {
            m,
            n,
            col_ptr,
            row_idx: out_rows,
            values: out_vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// The `(row indices, values)` slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse dot product `yᵀ a_j` of a dense vector with column `j`.
    #[inline]
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += y[r as usize] * v;
        }
        acc
    }

    /// Scatters column `j` into a dense vector (which must be zeroed by the
    /// caller where it matters).
    #[inline]
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r as usize] += v;
        }
    }

    /// Builds a compressed-sparse-row mirror: `(row_ptr, col_idx, values)`
    /// with row `i` occupying `row_ptr[i]..row_ptr[i + 1]`, column indices
    /// increasing inside a row. Used by the devex pricing path to gather a
    /// pivot row `ρᵀA` without scanning every column.
    pub fn to_csr(&self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let mut row_ptr = vec![0usize; self.m + 1];
        for &r in &self.row_idx {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for j in 0..self.n {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let slot = next[r as usize];
                next[r as usize] += 1;
                col_idx[slot] = j as u32;
                values[slot] = v;
            }
        }
        (row_ptr, col_idx, values)
    }
}

/// Incremental triplet-based builder for sparse [`LpProblem`]s.
///
/// The builder mirrors the `add_var` / `set_objective_coeff` surface of
/// [`LpProblem`] but collects constraints as a flat `(row, col, value)`
/// triplet stream: rows are opened with [`SparseBuilder::add_row`] and filled
/// with [`SparseBuilder::push`], and zero coefficients are dropped on the
/// spot. This is the construction path used by `pm-core::formulations`; the
/// legacy per-constraint `Vec<(VarId, f64)>` API on [`LpProblem`] remains for
/// small hand-written models and tests.
#[derive(Debug, Clone)]
pub struct SparseBuilder {
    objective: Objective,
    names: Vec<String>,
    objective_coeffs: Vec<f64>,
    secondary: Vec<(VarId, f64)>,
    rows: Vec<(Relation, f64)>,
    triplets: Vec<(usize, usize, f64)>,
}

/// Identifier of a constraint row being assembled by a [`SparseBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowId(pub usize);

impl SparseBuilder {
    /// Creates an empty builder with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        SparseBuilder {
            objective,
            names: Vec::new(),
            objective_coeffs: Vec::new(),
            secondary: Vec::new(),
            rows: Vec::new(),
            triplets: Vec::new(),
        }
    }

    /// Adds a non-negative variable and returns its id.
    pub fn add_var(&mut self, name: &str) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.to_string());
        self.objective_coeffs.push(0.0);
        id
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of rows opened so far (the index the next row gets).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient of a variable.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.objective_coeffs[var.index()] = coeff;
    }

    /// Sets a lexicographic secondary-objective coefficient, forwarded to
    /// [`LpProblem::set_secondary_coeff`] at build time. Later entries for the
    /// same variable overwrite earlier ones.
    pub fn set_secondary_coeff(&mut self, var: VarId, coeff: f64) {
        self.secondary.push((var, coeff));
    }

    /// Opens a new constraint row `… (relation) rhs` and returns its id.
    pub fn add_row(&mut self, relation: Relation, rhs: f64) -> RowId {
        self.rows.push((relation, rhs));
        RowId(self.rows.len() - 1)
    }

    /// Appends the term `coeff · var` to a row. Zero coefficients are
    /// dropped; duplicate `(row, var)` terms are summed at build time.
    pub fn push(&mut self, row: RowId, var: VarId, coeff: f64) {
        if coeff != 0.0 {
            self.triplets.push((row.0, var.index(), coeff));
        }
    }

    /// Opens a row and fills it from an iterator in one call.
    pub fn add_constraint<I>(&mut self, terms: I, relation: Relation, rhs: f64) -> RowId
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let row = self.add_row(relation, rhs);
        for (var, coeff) in terms {
            self.push(row, var, coeff);
        }
        row
    }

    /// Finishes the model. Fails like [`LpProblem::validate`] on out-of-range
    /// variables or non-finite data.
    pub fn build(self) -> Result<LpProblem, LpError> {
        let mut problem = LpProblem::from_parts(
            self.objective,
            self.names,
            self.objective_coeffs,
            self.rows,
            self.triplets,
        )?;
        for (var, coeff) in self.secondary {
            problem.set_secondary_coeff(var, coeff);
        }
        Ok(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_from_triplets_sums_duplicates_and_drops_zeros() {
        let m = CscMatrix::from_triplets(
            3,
            4,
            &[
                (2, 0, 1.5),
                (0, 0, 2.0),
                (1, 2, -1.0),
                (1, 2, 1.0), // cancels to zero: dropped
                (0, 3, 4.0),
                (0, 3, 0.25),
                (2, 3, 0.0), // explicit zero: dropped
            ],
        );
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0), (&[0u32, 2][..], &[2.0, 1.5][..]));
        assert_eq!(m.col_nnz(1), 0);
        assert_eq!(m.col_nnz(2), 0);
        assert_eq!(m.col(3), (&[0u32][..], &[4.25][..]));
    }

    #[test]
    fn csc_col_dot_and_scatter() {
        let m = CscMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 0, 3.0), (1, 1, -2.0)]);
        let y = [10.0, 20.0, 30.0];
        assert_eq!(m.col_dot(0, &y), 100.0);
        assert_eq!(m.col_dot(1, &y), -40.0);
        let mut out = [0.0; 3];
        m.scatter_col(0, &mut out);
        assert_eq!(out, [1.0, 0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn csc_rejects_out_of_bounds_triplets() {
        CscMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn builder_matches_hand_built_problem() {
        let mut b = SparseBuilder::new(Objective::Maximize);
        let x = b.add_var("x");
        let y = b.add_var("y");
        b.set_objective_coeff(x, 3.0);
        b.set_objective_coeff(y, 5.0);
        let r0 = b.add_row(Relation::Le, 4.0);
        b.push(r0, x, 1.0);
        b.push(r0, y, 0.0); // dropped
        b.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        b.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let lp = b.build().unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.constraints()[0].terms, vec![(x, 1.0)]);
        let s = lp.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn builder_rejects_non_finite_data() {
        let mut b = SparseBuilder::new(Objective::Minimize);
        let x = b.add_var("x");
        b.add_constraint([(x, f64::NAN)], Relation::Le, 1.0);
        assert!(matches!(b.build(), Err(LpError::InvalidModel(_))));
    }
}
