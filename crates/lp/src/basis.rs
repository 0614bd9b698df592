//! The basis factorization of the revised simplex.
//!
//! The revised engine never forms `B⁻¹` explicitly: every iteration needs
//! `B⁻¹ x` (FTRAN) and `B⁻ᵀ x` (BTRAN) against the current basis matrix,
//! plus a cheap *update* when one basis column is exchanged by a pivot.
//! [`LuBasis`] provides exactly that: a sparse LU factorization
//! (Markowitz-ordered right-looking elimination with threshold partial
//! pivoting) updated by Forrest–Tomlin pivot updates. A pivot replaces one
//! column of `U` with the update *spike* and restores triangularity with a
//! single sparse row transform, so per-pivot FTRAN/BTRAN cost stays
//! proportional to the (bounded) `L`/`U` fill instead of scaling with the
//! number of updates performed.
//!
//! The engine relies on one external invariant: after
//! [`LuBasis::refactorize`], basis slot `r` holds the column whose pivot
//! landed on row `r`, so the FTRANed representation of a column is indexed
//! by constraint row exactly like the right-hand side. It also keeps the
//! call discipline the updates rely on:
//!
//! 1. [`refactorize`](LuBasis::refactorize) installs a basis (and may
//!    permute the slot order of `basis` so slot `r` pivots on row `r`).
//! 2. [`ftran_sparse`](LuBasis::ftran_sparse) computes `B⁻¹ a_q` for a
//!    candidate entering column; `touched` lists every index whose value
//!    may be nonzero (deduplicated through `stamp`/`epoch`).
//! 3. [`update`](LuBasis::update) is only ever called with the pivot row
//!    chosen from the **most recent** `ftran_sparse` result: that call
//!    stashes the partial (pre-`U`) solve as the Forrest–Tomlin spike.

use crate::sparse::CscMatrix;
use std::cell::Cell;

/// Entries smaller than this are dropped from stored factor vectors.
const DROP_TOL: f64 = 1e-12;

/// A pivot element below this magnitude (relative to its column) makes a
/// factorization step singular.
const SINGULAR_TOL: f64 = 1e-10;

/// Threshold partial pivoting: an LU pivot candidate must be at least this
/// fraction of the largest magnitude in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// One elementary transform on the `L` side of the factorization.
///
/// * `Col` ops come from the Gaussian elimination of the factorization:
///   FTRAN applies `x_i -= l_i · x_pivot` for every entry `(i, l_i)`.
/// * `Row` ops come from Forrest–Tomlin updates: FTRAN applies
///   `x_pivot -= Σ f_k · x_k` over the entries `(k, f_k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LOpKind {
    Col,
    Row,
}

/// The revised engine's basis factorization: sparse LU (`B = L·U` under
/// row/column permutations) built by Markowitz-ordered right-looking
/// elimination with threshold partial pivoting, updated in place by
/// Forrest–Tomlin pivot updates (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct LuBasis {
    m: usize,
    // L side: elementary transforms in application order (factorization
    // column ops followed by update row ops), stored in flat arrays.
    op_kind: Vec<LOpKind>,
    op_pivot: Vec<u32>,
    op_start: Vec<usize>,
    op_idx: Vec<u32>,
    op_val: Vec<f64>,
    /// `U` columns keyed by pivot row: `ucol[r]` holds the off-diagonal
    /// entries `(row, value)` of the column whose pivot row is `r`; every
    /// entry's row has a strictly earlier pivot position than `r`.
    ucol: Vec<Vec<(u32, f64)>>,
    /// Diagonal (pivot) element of the column keyed by pivot row `r`.
    udiag: Vec<f64>,
    /// Pivot order: `row_of_pos[p]` is the pivot row at position `p`.
    row_of_pos: Vec<u32>,
    /// Inverse of `row_of_pos`.
    pos_of_row: Vec<u32>,
    /// Lazy row index of `U`: `urows[r]` lists column keys that may contain
    /// an entry at row `r` (entries can be stale after column replacements;
    /// consumers re-validate against `ucol`).
    urows: Vec<Vec<u32>>,
    /// The Forrest–Tomlin spike of the most recent `ftran_sparse`: the
    /// partial solve `L⁻¹ a_q` captured between the `L` ops and the `U`
    /// back-substitution.
    spike_rows: Vec<u32>,
    spike_vals: Vec<f64>,
    updates: usize,
    /// Stored nonzeros of `U` (diagonals included), tracked across updates.
    unnz: usize,
    // Scratch (factorization + update). A stamp equal to an epoch handed out
    // by `reserve_epochs` marks a live entry; every older stamp is stale.
    scratch: Vec<f64>,
    scratch_stamp: Vec<u32>,
    scratch_epoch: u32,
    /// Elimination and update buffers, cleared but never freed between
    /// calls (see [`LuWorkspace`]).
    ws: LuWorkspace,
}

/// The working storage of [`LuBasis::refactorize`] and
/// [`LuBasis::update`]. It lives in the factorization and keeps its
/// capacity from call to call, so a reused `LuBasis` stops allocating once
/// its buffers fit the bases it factorizes (per-row lists beyond the
/// current basis size are freed, see [`clear_lists`]). Every buffer is
/// cleared before use and filled in the same order as a fresh one would be,
/// so reuse never changes a result.
#[derive(Debug, Default)]
struct LuWorkspace {
    /// The active matrix: one working column per basis slot.
    cols: Vec<Vec<(u32, f64)>>,
    col_alive: Vec<bool>,
    row_alive: Vec<bool>,
    col_count: Vec<usize>,
    row_count: Vec<usize>,
    /// Per row: the working columns that may hold an entry in it.
    rowlist: Vec<Vec<u32>>,
    /// Count buckets (lazily invalidated) for the min-count column lookup.
    buckets: Vec<Vec<u32>>,
    /// The basis as passed in, before slots are permuted to pivot rows.
    saved: Vec<usize>,
    /// The current step's `L` multipliers.
    lents: Vec<(u32, f64)>,
    /// Fill created in one working column by the current step.
    fills: Vec<(u32, f64)>,
    /// Update: the removed entries of the leaving row, by column key.
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
    /// Update: the row transform `f`, by pivot row.
    f_rows: Vec<u32>,
    f_vals: Vec<f64>,
}

/// Makes `lists` exactly `len` empty lists. The lists kept keep their
/// capacity; lists beyond `len`, left from a larger basis, are freed, so a
/// small LP does not hold a large one's storage.
fn clear_lists<T>(lists: &mut Vec<Vec<T>>, len: usize) {
    lists.truncate(len);
    lists.iter_mut().for_each(Vec::clear);
    lists.resize_with(len, Vec::new);
}

/// Sets `v` to `len` copies of `value`, reusing its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl LuBasis {
    /// An empty factorization (callers must `refactorize` before solving).
    pub fn new() -> Self {
        LuBasis::default()
    }

    /// Empties the factorization for an `m × m` basis.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.op_kind.clear();
        self.op_pivot.clear();
        self.op_start.clear();
        self.op_start.push(0);
        self.op_idx.clear();
        self.op_val.clear();
        clear_lists(&mut self.ucol, m);
        refill(&mut self.udiag, m, 0.0);
        refill(&mut self.row_of_pos, m, 0);
        refill(&mut self.pos_of_row, m, 0);
        clear_lists(&mut self.urows, m);
        self.spike_rows.clear();
        self.spike_vals.clear();
        self.updates = 0;
        self.unnz = 0;
        if self.scratch.len() < m {
            self.scratch = vec![0.0; m];
            self.scratch_stamp = vec![0; m];
            self.scratch_epoch = 0;
        }
    }

    /// Resets to the exact factorization of the `m × m` identity (unit
    /// diagonal, natural pivot order, no `L` ops). The engines start from
    /// the all-slack/artificial basis, which is the identity, so this lets
    /// Forrest–Tomlin updates run before any explicit refactorization.
    fn reset_identity(&mut self, m: usize) {
        self.reset(m);
        for p in 0..m {
            self.row_of_pos[p] = p as u32;
            self.pos_of_row[p] = p as u32;
            self.udiag[p] = 1.0;
        }
        self.unnz = m;
    }

    fn push_op(&mut self, kind: LOpKind, pivot: u32, entries: impl Iterator<Item = (u32, f64)>) {
        self.op_kind.push(kind);
        self.op_pivot.push(pivot);
        for (i, v) in entries {
            if v.abs() > DROP_TOL {
                self.op_idx.push(i);
                self.op_val.push(v);
            }
        }
        self.op_start.push(self.op_idx.len());
    }

    /// Applies the `L` ops in order (dense).
    fn apply_l(&self, x: &mut [f64]) {
        for k in 0..self.op_kind.len() {
            let p = self.op_pivot[k] as usize;
            let (lo, hi) = (self.op_start[k], self.op_start[k + 1]);
            match self.op_kind[k] {
                LOpKind::Col => {
                    let t = x[p];
                    if t != 0.0 {
                        for e in lo..hi {
                            x[self.op_idx[e] as usize] -= self.op_val[e] * t;
                        }
                    }
                }
                LOpKind::Row => {
                    let mut s = 0.0;
                    for e in lo..hi {
                        s += self.op_val[e] * x[self.op_idx[e] as usize];
                    }
                    x[p] -= s;
                }
            }
        }
    }

    /// Applies the transposed `L` ops in reverse order (dense).
    fn apply_l_transpose(&self, x: &mut [f64]) {
        for k in (0..self.op_kind.len()).rev() {
            let p = self.op_pivot[k] as usize;
            let (lo, hi) = (self.op_start[k], self.op_start[k + 1]);
            match self.op_kind[k] {
                LOpKind::Col => {
                    let mut s = x[p];
                    for e in lo..hi {
                        s -= self.op_val[e] * x[self.op_idx[e] as usize];
                    }
                    x[p] = s;
                }
                LOpKind::Row => {
                    let t = x[p];
                    if t != 0.0 {
                        for e in lo..hi {
                            x[self.op_idx[e] as usize] -= self.op_val[e] * t;
                        }
                    }
                }
            }
        }
    }

    /// Back-substitution `U x' = x` in place (dense): positions descending,
    /// scatter-style, so only positions with a nonzero right-hand side cost
    /// anything beyond the flat scan.
    fn u_solve(&self, x: &mut [f64]) {
        for p in (0..self.m).rev() {
            let r = self.row_of_pos[p] as usize;
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / self.udiag[r];
            x[r] = t;
            for &(i, v) in &self.ucol[r] {
                x[i as usize] -= v * t;
            }
        }
    }

    /// Forward substitution `Uᵀ x' = x` in place (positions ascending,
    /// gather-style).
    fn ut_solve(&self, x: &mut [f64]) {
        for p in 0..self.m {
            let r = self.row_of_pos[p] as usize;
            let mut s = x[r];
            for &(i, v) in &self.ucol[r] {
                s -= v * x[i as usize];
            }
            x[r] = s / self.udiag[r];
        }
    }

    /// Reserves `n` consecutive scratch epochs and returns the first. Every
    /// stamp written so far is below it. When the counter would overflow,
    /// all stamps are cleared and counting restarts at 1 instead of
    /// wrapping, so a stale stamp can never equal a reserved epoch however
    /// long the factorization is reused.
    fn reserve_epochs(&mut self, n: u32) -> u32 {
        if self.scratch_epoch > u32::MAX - n {
            self.scratch_stamp.iter_mut().for_each(|s| *s = 0);
            self.scratch_epoch = 0;
        }
        let first = self.scratch_epoch + 1;
        self.scratch_epoch += n;
        first
    }

    /// Right-looking sparse Gaussian elimination with Markowitz-flavoured
    /// pivot selection: at each step the active column with the fewest
    /// active nonzeros is eliminated (deterministic tie-breaking through the
    /// bucket order), pivoting on the threshold-eligible row
    /// (`|v| ≥ 0.1 · max|column|`) with the fewest active nonzeros. Unit
    /// slack/artificial columns therefore pivot first with zero fill, and
    /// the network columns of the multicast LPs triangularize almost
    /// completely.
    fn eliminate(&mut self, a: &CscMatrix, basis: &mut [usize], ws: &mut LuWorkspace) -> bool {
        let m = a.rows();
        self.reset(m);
        if m == 0 {
            return true;
        }

        // The active matrix: one working column per basis slot.
        clear_lists(&mut ws.cols, m);
        for (col, &j) in ws.cols.iter_mut().zip(basis.iter()) {
            let (rows, vals) = a.col(j);
            col.extend(rows.iter().copied().zip(vals.iter().copied()));
        }
        let cols = &mut ws.cols;
        refill(&mut ws.col_alive, m, true);
        refill(&mut ws.row_alive, m, true);
        ws.col_count.clear();
        ws.col_count.extend(cols.iter().map(Vec::len));
        refill(&mut ws.row_count, m, 0);
        clear_lists(&mut ws.rowlist, m);
        for (k, col) in cols.iter().enumerate() {
            for &(r, _) in col.iter() {
                ws.row_count[r as usize] += 1;
                ws.rowlist[r as usize].push(k as u32);
            }
        }
        // Count buckets with lazy invalidation for min-count column lookup.
        clear_lists(&mut ws.buckets, m + 1);
        for (k, &c) in ws.col_count.iter().enumerate() {
            ws.buckets[c].push(k as u32);
        }
        let mut cur = 0usize;

        ws.saved.clear();
        ws.saved.extend_from_slice(basis);
        for step in 0..m {
            // Pick the live column with the smallest active count.
            let pc = loop {
                if cur > m {
                    return false;
                }
                match ws.buckets[cur].last().copied() {
                    None => cur += 1,
                    Some(k) => {
                        let ku = k as usize;
                        if !ws.col_alive[ku] || ws.col_count[ku] != cur {
                            ws.buckets[cur].pop();
                            continue;
                        }
                        break ku;
                    }
                }
            };
            ws.buckets[cur].pop();
            ws.col_alive[pc] = false;

            // Threshold partial pivoting inside the column: among rows with
            // |v| within MARKOWITZ_THRESHOLD of the column max, take the one
            // with the fewest active nonzeros (ties: smallest row index).
            let mut colmax = 0.0f64;
            for &(r, v) in &cols[pc] {
                if ws.row_alive[r as usize] {
                    colmax = colmax.max(v.abs());
                }
            }
            if colmax <= SINGULAR_TOL {
                return false;
            }
            let mut pr = usize::MAX;
            let mut pr_count = usize::MAX;
            let mut d = 0.0;
            for &(r, v) in &cols[pc] {
                let ru = r as usize;
                if !ws.row_alive[ru] || v.abs() < MARKOWITZ_THRESHOLD * colmax {
                    continue;
                }
                if ws.row_count[ru] < pr_count || (ws.row_count[ru] == pr_count && ru < pr) {
                    pr = ru;
                    pr_count = ws.row_count[ru];
                    d = v;
                }
            }
            debug_assert!(pr != usize::MAX);

            // Emit the L column op (multipliers below the pivot) and the U
            // column (finalized entries at already-pivoted rows + diagonal).
            // `reset` emptied `ucol[pr]`, and each row pivots once.
            ws.lents.clear();
            for &(r, v) in &cols[pc] {
                let ru = r as usize;
                if ru == pr {
                    continue;
                }
                if ws.row_alive[ru] {
                    if v.abs() > DROP_TOL {
                        ws.lents.push((r, v / d));
                    }
                    ws.row_count[ru] = ws.row_count[ru].saturating_sub(1);
                } else if v.abs() > DROP_TOL {
                    self.ucol[pr].push((r, v));
                }
            }
            self.unnz += self.ucol[pr].len() + 1;
            for &(r, _) in &self.ucol[pr] {
                self.urows[r as usize].push(pr as u32);
            }
            self.udiag[pr] = d;
            self.row_of_pos[step] = pr as u32;
            self.pos_of_row[pr] = step as u32;
            ws.row_alive[pr] = false;
            basis[pr] = ws.saved[pc];
            self.push_op(LOpKind::Col, pr as u32, ws.lents.iter().copied());

            // Right-looking update of every live column containing the
            // pivot row. Fill only lands in live rows, so `rowlist[pr]`
            // stays fixed while it is walked.
            // One epoch per column, so each column's index below is fresh.
            let epoch = self.reserve_epochs(m as u32);
            for a in 0..ws.rowlist[pr].len() {
                let ck = ws.rowlist[pr][a];
                let c = ck as usize;
                if !ws.col_alive[c] {
                    continue;
                }
                let Some(&(_, v_prc)) = cols[c].iter().find(|&&(r, _)| r as usize == pr) else {
                    continue; // stale rowlist entry
                };
                // Index the column's live entries for O(1) lookup.
                let epoch_c = epoch + ck;
                for (slot, &(r, _)) in cols[c].iter().enumerate() {
                    self.scratch_stamp[r as usize] = epoch_c;
                    self.scratch[r as usize] = slot as f64;
                }
                ws.fills.clear();
                for &(i, l) in &ws.lents {
                    let iu = i as usize;
                    let delta = l * v_prc;
                    if self.scratch_stamp[iu] == epoch_c {
                        let slot = self.scratch[iu] as usize;
                        cols[c][slot].1 -= delta;
                    } else if delta.abs() > DROP_TOL {
                        ws.fills.push((i, -delta));
                    }
                }
                // The pivot-row entry leaves the active count (it is now a
                // finalized U entry of column c).
                let count = ws.col_count[c].saturating_sub(1) + ws.fills.len();
                ws.col_count[c] = count;
                for &(i, v) in &ws.fills {
                    cols[c].push((i, v));
                    ws.row_count[i as usize] += 1;
                    ws.rowlist[i as usize].push(ck);
                }
                ws.buckets[count].push(ck);
                cur = cur.min(count);
            }
        }
        true
    }

    /// The Forrest–Tomlin update of [`LuBasis::update`] (see there), with
    /// its buffers in `ws`.
    fn forrest_tomlin(&mut self, rt: usize, ws: &mut LuWorkspace) -> bool {
        let t = self.pos_of_row[rt] as usize;
        let m = self.m;

        // 1. Extract (and delete) row rt of U at positions > t, keyed by
        //    column pivot row. All entries of row rt live in columns with a
        //    later pivot position by the triangularity invariant. Row rt's
        //    column list is emptied afterwards.
        ws.row_cols.clear();
        ws.row_vals.clear();
        for &c in &self.urows[rt] {
            let cu = c as usize;
            let col = &mut self.ucol[cu];
            if let Some(slot) = col.iter().position(|&(r, _)| r as usize == rt) {
                let (_, v) = col.swap_remove(slot);
                self.unnz -= 1;
                if v != 0.0 {
                    ws.row_cols.push(c);
                    ws.row_vals.push(v);
                }
            }
        }
        self.urows[rt].clear();

        // 2. Solve fᵀ U_JJ = rᵀ over trailing positions (ascending), f keyed
        //    by pivot row in the scratch vector. Row-value markers carry
        //    `epoch`, f entries `f_epoch`.
        let epoch = self.reserve_epochs(2);
        let f_epoch = epoch + 1;
        ws.f_rows.clear();
        ws.f_vals.clear();
        let mut remaining = ws.row_cols.len();
        for (c, v) in ws.row_cols.iter().zip(&ws.row_vals) {
            self.scratch_stamp[*c as usize] = epoch;
            self.scratch[*c as usize] = *v;
        }
        if remaining > 0 {
            for p in (t + 1)..m {
                let c = self.row_of_pos[p] as usize;
                let mut acc = if self.scratch_stamp[c] == epoch {
                    remaining -= 1;
                    self.scratch[c]
                } else {
                    0.0
                };
                if !ws.f_rows.is_empty() {
                    for &(i, v) in &self.ucol[c] {
                        if self.scratch_stamp[i as usize] == f_epoch {
                            acc -= v * self.scratch[i as usize];
                        }
                    }
                }
                if acc != 0.0 {
                    let fv = acc / self.udiag[c];
                    if fv.abs() > DROP_TOL {
                        self.scratch_stamp[c] = f_epoch;
                        self.scratch[c] = fv;
                        ws.f_rows.push(c as u32);
                        ws.f_vals.push(fv);
                    } else {
                        self.scratch_stamp[c] = 0;
                    }
                } else if self.scratch_stamp[c] == epoch {
                    self.scratch_stamp[c] = 0;
                }
                if remaining == 0 && ws.f_rows.is_empty() {
                    break;
                }
            }
        }

        // 3. New diagonal of the spike column: the row transform applied to
        //    the spike's rt entry.
        let mut d_new = 0.0;
        let spike_at = |r: usize| -> f64 {
            for (i, &sr) in self.spike_rows.iter().enumerate() {
                if sr as usize == r {
                    return self.spike_vals[i];
                }
            }
            0.0
        };
        d_new += spike_at(rt);
        for (&fr, &fv) in ws.f_rows.iter().zip(&ws.f_vals) {
            d_new -= fv * spike_at(fr as usize);
        }
        // A vanishing transformed diagonal means the updated factorization
        // would be numerically worthless: force a refactorization instead.
        let mut spike_scale = d_new.abs();
        for v in &self.spike_vals {
            spike_scale = spike_scale.max(v.abs());
        }
        if d_new.abs() <= SINGULAR_TOL || d_new.abs() < 1e-9 * spike_scale {
            return false;
        }

        // 4. Append the row transform to the L ops.
        if !ws.f_rows.is_empty() {
            let entries = ws.f_rows.iter().copied().zip(ws.f_vals.iter().copied());
            self.push_op(LOpKind::Row, rt as u32, entries);
        }

        // 5. Install the spike as the (new last) column keyed by rt.
        self.unnz -= self.ucol[rt].len() + 1;
        self.ucol[rt].clear();
        for (&sr, &v) in self.spike_rows.iter().zip(&self.spike_vals) {
            if sr as usize != rt && v.abs() > DROP_TOL {
                self.ucol[rt].push((sr, v));
                self.urows[sr as usize].push(rt as u32);
            }
        }
        self.unnz += self.ucol[rt].len() + 1;
        self.udiag[rt] = d_new;

        // 6. Cycle position t to the end.
        for p in t..m - 1 {
            let r = self.row_of_pos[p + 1];
            self.row_of_pos[p] = r;
            self.pos_of_row[r as usize] = p as u32;
        }
        self.row_of_pos[m - 1] = rt as u32;
        self.pos_of_row[rt] = (m - 1) as u32;

        self.updates += 1;
        true
    }
}

impl LuBasis {
    /// Rebuilds the factorization from scratch for the given basis columns
    /// of `a`, by sparse right-looking elimination (see
    /// `LuBasis::eliminate`) in the factorization's own workspace. Permutes
    /// `basis` so slot `r` holds the column whose pivot row is `r`. Returns
    /// `false` when the basis is singular.
    pub fn refactorize(&mut self, a: &CscMatrix, basis: &mut [usize]) -> bool {
        let mut ws = std::mem::take(&mut self.ws);
        let ok = self.eliminate(a, basis, &mut ws);
        self.ws = ws;
        ok
    }

    /// Dense FTRAN: computes `B⁻¹ x` in place.
    pub fn ftran(&self, x: &mut [f64]) {
        self.apply_l(x);
        self.u_solve(x);
    }

    /// Dense BTRAN: computes `B⁻ᵀ x` in place.
    pub fn btran(&self, x: &mut [f64]) {
        self.ut_solve(x);
        self.apply_l_transpose(x);
    }

    /// Sparsity-exploiting FTRAN: the caller seeds `x` with the input
    /// column and `touched` with its nonzero pattern; every index whose
    /// value may become nonzero is added to `touched` (deduplicated through
    /// the `stamp`/`epoch` markers). Stashes the Forrest–Tomlin spike for a
    /// following [`LuBasis::update`].
    pub fn ftran_sparse(
        &mut self,
        x: &mut [f64],
        touched: &mut Vec<u32>,
        stamp: &mut [u32],
        epoch: u32,
    ) {
        // L ops with touched-list maintenance.
        for k in 0..self.op_kind.len() {
            let p = self.op_pivot[k] as usize;
            let (lo, hi) = (self.op_start[k], self.op_start[k + 1]);
            match self.op_kind[k] {
                LOpKind::Col => {
                    let t = x[p];
                    if t != 0.0 {
                        for e in lo..hi {
                            let i = self.op_idx[e];
                            if stamp[i as usize] != epoch {
                                stamp[i as usize] = epoch;
                                touched.push(i);
                            }
                            x[i as usize] -= self.op_val[e] * t;
                        }
                    }
                }
                LOpKind::Row => {
                    let mut s = 0.0;
                    for e in lo..hi {
                        s += self.op_val[e] * x[self.op_idx[e] as usize];
                    }
                    if s != 0.0 {
                        if stamp[p] != epoch {
                            stamp[p] = epoch;
                            touched.push(p as u32);
                        }
                        x[p] -= s;
                    }
                }
            }
        }
        // Stash the Forrest–Tomlin spike (partial solve, before U).
        self.spike_rows.clear();
        self.spike_vals.clear();
        for &i in touched.iter() {
            let v = x[i as usize];
            if v != 0.0 {
                self.spike_rows.push(i);
                self.spike_vals.push(v);
            }
        }
        // U back-substitution with touched-list maintenance.
        for p in (0..self.m).rev() {
            let r = self.row_of_pos[p] as usize;
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / self.udiag[r];
            x[r] = t;
            for &(i, v) in &self.ucol[r] {
                if stamp[i as usize] != epoch {
                    stamp[i as usize] = epoch;
                    touched.push(i);
                }
                x[i as usize] -= v * t;
            }
        }
    }

    /// Applies the basis exchange of a pivot on `row` by a Forrest–Tomlin
    /// update. The spike `s = L⁻¹ a_q` stashed by the preceding
    /// [`LuBasis::ftran_sparse`] replaces the `U` column of the leaving
    /// variable (pivot row `row`); the pivot position cycles to the end of
    /// the pivot order, and the no-longer-triangular remnants of that row
    /// are eliminated by one sparse row transform appended to the `L` ops
    /// (`f` solves `fᵀ·U_JJ = (row of U)ᵀ` over the trailing positions).
    /// Per-update cost is therefore proportional to `U` fill, not to the
    /// number of updates performed since the last refactorization. Returns
    /// `false` when the update is numerically untrustworthy (a vanishing
    /// transformed diagonal): the caller must refactorize.
    pub fn update(&mut self, row: usize) -> bool {
        let mut ws = std::mem::take(&mut self.ws);
        let ok = self.forrest_tomlin(row, &mut ws);
        self.ws = ws;
        ok
    }

    /// Pivot updates applied since the last refactorization.
    pub fn updates_since_refactor(&self) -> usize {
        self.updates
    }

    /// Whether accumulated fill warrants an early refactorization (the
    /// engine also refactorizes on a fixed update-count schedule).
    pub fn wants_refactor(&self, a: &CscMatrix) -> bool {
        let budget = 4 * a.nnz() + 16 * a.rows();
        self.unnz + self.op_idx.len() > budget
    }

    /// A factorization of the `m × m` identity — the engine's all-slack
    /// start basis — ready for pivot updates without a prior refactorize.
    /// Reuses the thread's spare factorization when there is one: it is
    /// reset first, and its stale scratch stamps are all older than any
    /// epoch it hands out next, so no state carries over.
    pub(crate) fn spare_identity(m: usize) -> LuBasis {
        let mut lu = SPARE_LU.with(Cell::take).unwrap_or_default();
        lu.reset_identity(m);
        lu
    }

    /// Gives the factorization to the thread's spare slot, replacing any
    /// spare already there, for the next [`LuBasis::spare_identity`].
    pub(crate) fn recycle(self) {
        // Fails only while the thread is shutting down; the factorization
        // is then simply freed.
        let _ = SPARE_LU.try_with(|slot| slot.set(Some(self)));
    }
}

thread_local! {
    /// The factorization of the last engine dropped on this thread (see
    /// [`LuBasis::recycle`]). The next engine takes it over, so solve after
    /// solve reuses one set of factor and workspace buffers instead of
    /// allocating them afresh.
    static SPARE_LU: Cell<Option<LuBasis>> = const { Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small nonsingular matrix with a mix of unit and dense-ish columns,
    /// shaped like a standard-form simplex basis.
    fn sample() -> (CscMatrix, Vec<usize>) {
        // 4×6: columns 0-1 structural, 2-5 slack-like.
        let a = CscMatrix::from_triplets(
            4,
            6,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (3, 0, -1.0),
                (0, 1, 1.0),
                (2, 1, 3.0),
                (3, 1, 0.5),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 4, 1.0),
                (3, 5, 1.0),
            ],
        );
        (a, vec![0, 1, 4, 5])
    }

    fn dense_of_basis(a: &CscMatrix, basis: &[usize]) -> Vec<Vec<f64>> {
        let m = a.rows();
        let mut b = vec![vec![0.0; m]; m];
        for (slot, &j) in basis.iter().enumerate() {
            let (rows, vals) = a.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                b[r as usize][slot] = v;
            }
        }
        b
    }

    /// Checks `B x = rhs` where `x` is indexed by pivot row (slot) as the
    /// engine's convention demands.
    fn check_ftran(a: &CscMatrix, basis: &[usize], x: &[f64], rhs: &[f64]) {
        let m = a.rows();
        let b = dense_of_basis(a, basis);
        for r in 0..m {
            let mut acc = 0.0;
            for (slot, _) in basis.iter().enumerate() {
                acc += b[r][slot] * x[slot];
            }
            assert!(
                (acc - rhs[r]).abs() < 1e-8,
                "B x != rhs at row {r}: {acc} vs {rhs:?}"
            );
        }
    }

    #[test]
    fn refactorize_then_ftran_solves_the_basis_system() {
        let (a, basis0) = sample();
        let mut fac = LuBasis::new();
        let mut basis = basis0.clone();
        assert!(fac.refactorize(&a, &mut basis));
        // The factorization permutes so slot r pivots on row r: solving
        // against the permuted basis must reproduce the RHS.
        let rhs = [1.0, 2.0, -1.0, 0.5];
        let mut x = rhs.to_vec();
        fac.ftran(&mut x);
        check_ftran(&a, &basis, &x, &rhs);
    }

    #[test]
    fn btran_matches_transpose_solve() {
        let (a, basis0) = sample();
        let mut fac = LuBasis::new();
        let mut basis = basis0.clone();
        assert!(fac.refactorize(&a, &mut basis));
        let c = [1.0, -2.0, 0.0, 3.0];
        let mut y = c.to_vec();
        fac.btran(&mut y);
        // Check Bᵀ y = c, i.e. for every slot: column_slot · y = c_slot.
        let b = dense_of_basis(&a, &basis);
        for slot in 0..basis.len() {
            let mut acc = 0.0;
            for (r, row) in b.iter().enumerate() {
                acc += row[slot] * y[r];
            }
            assert!((acc - c[slot]).abs() < 1e-8, "Bᵀ y != c at slot {slot}");
        }
    }

    #[test]
    fn updates_track_the_exchanged_column() {
        let (a, basis0) = sample();
        let mut fac = LuBasis::new();
        let mut basis = basis0.clone();
        assert!(fac.refactorize(&a, &mut basis));
        // Bring column 2 (a slack) into whichever slot its FTRAN pivots
        // best on; emulate the engine's pivot loop.
        let m = a.rows();
        let mut work = vec![0.0; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut stamp = vec![0u32; m];
        let entering = 2usize;
        let (rows, vals) = a.col(entering);
        for (&r, &v) in rows.iter().zip(vals) {
            stamp[r as usize] = 1;
            touched.push(r);
            work[r as usize] = v;
        }
        fac.ftran_sparse(&mut work, &mut touched, &mut stamp, 1);
        // Pick any row with a sizable pivot that holds a structural
        // column we can evict.
        let row = (0..m)
            .filter(|&r| work[r].abs() > 1e-9)
            .max_by(|&x, &y| work[x].abs().partial_cmp(&work[y].abs()).unwrap())
            .unwrap();
        assert!(fac.update(row));
        basis[row] = entering;
        assert_eq!(fac.updates_since_refactor(), 1);
        // The updated factorization must solve against the new basis.
        let rhs = [0.5, 1.5, -2.0, 1.0];
        let mut x = rhs.to_vec();
        fac.ftran(&mut x);
        check_ftran(&a, &basis, &x, &rhs);
        // And BTRAN stays consistent too.
        let c = [2.0, 0.0, 1.0, -1.0];
        let mut y = c.to_vec();
        fac.btran(&mut y);
        let b = dense_of_basis(&a, &basis);
        for slot in 0..basis.len() {
            let mut acc = 0.0;
            for (r, rowv) in b.iter().enumerate() {
                acc += rowv[slot] * y[r];
            }
            assert!((acc - c[slot]).abs() < 1e-8);
        }
    }

    /// A 12-row matrix of 10 random structural columns (`entries` draws
    /// each) followed by the 12 unit columns; returns it with the
    /// structural column count.
    fn chain_matrix(entries: usize) -> (CscMatrix, usize) {
        let m = 12;
        let mut triplets = Vec::new();
        let mut seed = 0x5eed_1234u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let n_struct = 10;
        for j in 0..n_struct {
            for k in 0..entries {
                let r = ((next() as usize) + k) % m;
                let v = ((next() % 9) as f64 - 4.0).abs() + 0.5;
                triplets.push((r, j, if next() % 2 == 0 { v } else { -v }));
            }
        }
        for r in 0..m {
            triplets.push((r, n_struct + r, 1.0));
        }
        (
            CscMatrix::from_triplets(m, n_struct + m, &triplets),
            n_struct,
        )
    }

    #[test]
    fn chained_updates_stay_accurate() {
        // Random-ish chain of column exchanges on a larger matrix: the
        // factorization must keep solving exactly, with the update cost
        // staying bounded (covered implicitly by the unnz tracking).
        let (a, n_struct) = chain_matrix(3);
        let m = a.rows();
        let mut fac = LuBasis::new();
        let mut basis: Vec<usize> = (0..m).map(|r| n_struct + r).collect();
        assert!(fac.refactorize(&a, &mut basis));
        let mut stamp = vec![0u32; m];
        let mut epoch = 0u32;
        for entering in 0..n_struct {
            if basis.contains(&entering) {
                continue;
            }
            let mut work = vec![0.0; m];
            let mut touched: Vec<u32> = Vec::new();
            epoch += 1;
            let (rows, vals) = a.col(entering);
            for (&r, &v) in rows.iter().zip(vals) {
                stamp[r as usize] = epoch;
                touched.push(r);
                work[r as usize] = v;
            }
            fac.ftran_sparse(&mut work, &mut touched, &mut stamp, epoch);
            let Some(row) = (0..m)
                .filter(|&r| work[r].abs() > 1e-6 && basis[r] >= n_struct)
                .max_by(|&x, &y| work[x].abs().partial_cmp(&work[y].abs()).unwrap())
            else {
                continue;
            };
            if !fac.update(row) {
                assert!(fac.refactorize(&a, &mut basis));
                continue;
            }
            basis[row] = entering;
            // Verify the solve after every exchange.
            let rhs: Vec<f64> = (0..m).map(|r| (r as f64) - 3.0).collect();
            let mut x = rhs.clone();
            fac.ftran(&mut x);
            check_ftran(&a, &basis, &x, &rhs);
        }
    }

    /// Runs one fixed script on `lu` over a dense [`chain_matrix`]:
    /// factorize the unit basis, exchange every structural column in,
    /// refactorize the mixed basis, exchange the unit columns back. Returns
    /// the bits of every FTRAN and BTRAN result along the way, the update
    /// verdicts and the bases.
    fn lu_script(lu: &mut LuBasis) -> Vec<u64> {
        let (a, n_struct) = chain_matrix(8);
        let m = a.rows();
        let mut trace = Vec::new();
        let solves = |lu: &LuBasis, trace: &mut Vec<u64>| {
            let mut x: Vec<f64> = (0..m).map(|r| r as f64 - 3.5).collect();
            lu.ftran(&mut x);
            let mut y: Vec<f64> = (0..m).map(|r| 1.0 / (r as f64 + 1.0)).collect();
            lu.btran(&mut y);
            trace.extend(x.iter().chain(&y).map(|v| v.to_bits()));
        };
        let mut basis: Vec<usize> = (0..m).map(|r| n_struct + r).collect();
        let mut stamp = vec![0u32; m];
        let mut epoch = 0u32;
        for round in 0..2 {
            assert!(lu.refactorize(&a, &mut basis));
            trace.extend(basis.iter().map(|&j| j as u64));
            solves(lu, &mut trace);
            let entering = if round == 0 {
                0..n_struct
            } else {
                n_struct..n_struct + m
            };
            for q in entering {
                if basis.contains(&q) {
                    continue;
                }
                let mut work = vec![0.0; m];
                let mut touched: Vec<u32> = Vec::new();
                epoch += 1;
                let (rows, vals) = a.col(q);
                for (&r, &v) in rows.iter().zip(vals) {
                    stamp[r as usize] = epoch;
                    touched.push(r);
                    work[r as usize] = v;
                }
                lu.ftran_sparse(&mut work, &mut touched, &mut stamp, epoch);
                trace.extend(work.iter().map(|v| v.to_bits()));
                let Some(row) = (0..m)
                    .filter(|&r| work[r].abs() > 1e-6 && (round == 1 || basis[r] >= n_struct))
                    .max_by(|&x, &y| work[x].abs().total_cmp(&work[y].abs()))
                else {
                    continue;
                };
                let ok = lu.update(row);
                trace.push(ok as u64);
                if ok {
                    basis[row] = q;
                } else {
                    assert!(lu.refactorize(&a, &mut basis));
                }
                solves(lu, &mut trace);
            }
        }
        trace
    }

    /// A factorization reused for a long time walks its scratch epochs up
    /// to the `u32` limit, with stale stamps of any smaller value in its
    /// scratch. Moved just below the limit, with small stale stamps on
    /// every row (the values a wrapped counter would hand out next), it
    /// must factorize, solve and update bit for bit like a fresh
    /// factorization. The offsets make the limit fall at every epoch the
    /// script takes: in every refactorization step and every update.
    #[test]
    fn scratch_epochs_restart_cleanly_at_the_limit() {
        let mut fresh = LuBasis::new();
        let expected = lu_script(&mut fresh);
        let span = fresh.scratch_epoch;
        for offset in 0..=span {
            let mut reused = LuBasis::new();
            lu_script(&mut reused);
            for (r, stamp) in reused.scratch_stamp.iter_mut().enumerate() {
                *stamp = 1 + (r as u32 * 5 + offset) % 24;
            }
            reused.scratch_epoch = u32::MAX - offset;
            assert!(
                lu_script(&mut reused) == expected,
                "offset {offset}: a reused factorization near the epoch limit diverged"
            );
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 1.0)]);
        let mut fac = LuBasis::new();
        let mut basis = vec![0, 1];
        assert!(!fac.refactorize(&a, &mut basis));
    }
}
