//! Reuse of one sparse LU factorization across bases. The revised engine
//! hands its `LuBasis` to the next engine on the same thread, so one
//! factorization serves solve after solve: reuse must keep buffers, never
//! state. A reused factorization is compared bit for bit against a fresh
//! one on random bases of random LP matrices, singular ones included, at
//! one size and across sizes: a small basis after a large one leaves the
//! large one's per-row lists in place beyond its size, unread.

use pm_lp::{CscMatrix, LpProblem, LuBasis, Objective, Relation, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator family of `diff_engines.rs`: box-bounded variables plus
/// general rows, whose constraint matrices give the bases below.
fn random_lp(num_vars: usize, num_cons: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(if rng.gen_bool(0.5) {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(-3.0..3.0));
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..5.0));
    }
    for _ in 0..num_cons {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                terms.push((v, rng.gen_range(-2.0..2.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let relation = match rng.gen_range(0..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = rng.gen_range(-2.0..4.0);
        lp.add_constraint(terms, relation, rhs);
    }
    lp
}

/// The constraint matrix of `lp` followed by one unit column per row: the
/// shape of a standard form, so every row has a basic candidate.
fn with_unit_columns(lp: &LpProblem) -> CscMatrix {
    let (m, n) = (lp.num_constraints(), lp.num_vars());
    let mut triplets = Vec::new();
    for (r, row) in lp.rows().enumerate() {
        for (v, coeff) in row.terms() {
            triplets.push((r, v.index(), coeff));
        }
        triplets.push((r, n + r, 1.0));
    }
    CscMatrix::from_triplets(m, n + m, &triplets)
}

/// Random bases of `a` (`m` distinct columns each, singular ones
/// included), and in the middle of them, when `a` has a structural column
/// with two entries, a basis that is singular only at its last elimination
/// step: that column twice, beside the unit columns of every other row.
/// Returns the bases and the position of that last one.
fn random_bases(a: &CscMatrix, count: usize, seed: u64) -> (Vec<Vec<usize>>, Option<usize>) {
    let (m, n) = (a.rows(), a.cols());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed);
    let mut bases: Vec<Vec<usize>> = (0..count)
        .map(|_| {
            let mut cols: Vec<usize> = (0..n).collect();
            for i in 0..m {
                let k = rng.gen_range(i..n);
                cols.swap(i, k);
            }
            cols.truncate(m);
            cols
        })
        .collect();
    let j = (0..n - m).find(|&j| a.col_nnz(j) >= 2);
    let singular_at = j.map(|j| {
        let (rows, _) = a.col(j);
        let (r0, r1) = (rows[0] as usize, rows[1] as usize);
        let mut twice = vec![j, j];
        twice.extend((0..m).filter(|&r| r != r0 && r != r1).map(|r| n - m + r));
        bases.insert(count / 2, twice);
        count / 2
    });
    (bases, singular_at)
}

/// Factorizes `basis` on `lu` and, when that succeeds, exchanges up to
/// three non-basic columns in. Returns the verdicts, the permuted basis and
/// the bits of every FTRAN, sparse FTRAN (with its pattern) and BTRAN.
fn lu_trace(lu: &mut LuBasis, a: &CscMatrix, basis: &[usize]) -> Vec<u64> {
    let m = a.rows();
    let mut basis = basis.to_vec();
    let ok = lu.refactorize(a, &mut basis);
    let mut trace = vec![ok as u64];
    trace.extend(basis.iter().map(|&j| j as u64));
    if !ok {
        return trace;
    }
    let solves = |lu: &LuBasis, trace: &mut Vec<u64>| {
        let mut x: Vec<f64> = (0..m).map(|r| 1.0 + r as f64 * 0.5).collect();
        lu.ftran(&mut x);
        let mut y: Vec<f64> = (0..m).map(|r| (r % 3) as f64 - 1.0).collect();
        lu.btran(&mut y);
        trace.extend(x.iter().chain(&y).map(|v| v.to_bits()));
    };
    solves(lu, &mut trace);
    let mut stamp = vec![0u32; m];
    let entering: Vec<usize> = (0..a.cols())
        .filter(|j| !basis.contains(j))
        .take(3)
        .collect();
    for (epoch, q) in (1u32..).zip(entering) {
        let mut work = vec![0.0; m];
        let mut touched: Vec<u32> = Vec::new();
        let (rows, vals) = a.col(q);
        for (&r, &v) in rows.iter().zip(vals) {
            stamp[r as usize] = epoch;
            touched.push(r);
            work[r as usize] = v;
        }
        lu.ftran_sparse(&mut work, &mut touched, &mut stamp, epoch);
        trace.extend(touched.iter().map(|&i| i as u64));
        trace.extend(work.iter().map(|v| v.to_bits()));
        let Some(row) = (0..m)
            .filter(|&r| work[r].abs() > 1e-6)
            .max_by(|&x, &y| work[x].abs().total_cmp(&work[y].abs()))
        else {
            continue;
        };
        let updated = lu.update(row);
        trace.push(updated as u64);
        if !updated {
            break;
        }
        basis[row] = q;
        solves(lu, &mut trace);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // One LuBasis reused for a sequence of factorizations — some singular,
    // one per matrix failing at its last elimination step — must behave
    // bit for bit like a fresh LuBasis per basis: reuse keeps buffers,
    // never state. The bases come from a large matrix, a small one and
    // another large one, so the small bases run over per-row lists a
    // large basis left beyond their size.
    #[test]
    fn reused_lu_matches_a_fresh_lu_per_basis(
        num_vars in 1usize..7,
        num_cons in 1usize..8,
        large_vars in 6usize..12,
        large_cons in 6usize..14,
        seed in 0u64..1_000_000,
    ) {
        let sizes = [(large_vars, large_cons), (num_vars, num_cons), (large_vars, large_cons)];
        let mut reused = LuBasis::new();
        for (step, &(num_vars, num_cons)) in sizes.iter().enumerate() {
            let seed = seed + step as u64;
            let a = with_unit_columns(&random_lp(num_vars, num_cons, seed));
            let (bases, singular_at) = random_bases(&a, 6, seed);
            for (k, basis) in bases.iter().enumerate() {
                let fresh = lu_trace(&mut LuBasis::new(), &a, basis);
                if Some(k) == singular_at {
                    prop_assert!(fresh[0] == 0, "the duplicated column must be singular");
                }
                let again = lu_trace(&mut reused, &a, basis);
                prop_assert!(
                    fresh == again,
                    "matrix {} ({} rows), basis {} ({:?}): reused LU diverged",
                    step,
                    a.rows(),
                    k,
                    basis
                );
            }
        }
    }
}
