//! LP engine micro-benchmarks: dense tableau vs sparse revised simplex,
//! cold vs warm-started, on network-flow-shaped LPs of increasing size (the
//! shape the multicast formulations produce). Runs in CI's bench-smoke job
//! under `--test` (every body executes once).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_lp::{revised, LpProblem, Objective, Relation, SolveContext, SolverKind};

/// A transshipment LP on a `rows × cols` grid: one unit of flow enters at
/// the top-left corner and must reach the bottom-right corner; arcs go right
/// and down with deterministic pseudo-random costs, and every interior node
/// carries a flow-conservation equality — the same row structure (sparse Eq
/// rows plus a few coupling inequalities) as the steady-state multicast LPs.
fn grid_flow_lp(rows: usize, cols: usize) -> LpProblem {
    let node = |r: usize, c: usize| r * cols + c;
    let mut lp = LpProblem::new(Objective::Minimize);
    let mut arcs: Vec<(usize, usize, pm_lp::VarId)> = Vec::new();
    let mut state = 0x5bd1_e995u64;
    let mut next_cost = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1.0 + (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let v = lp.add_var(&format!("e_{r}_{c}_r"));
                lp.set_objective_coeff(v, next_cost());
                arcs.push((node(r, c), node(r, c + 1), v));
            }
            if r + 1 < rows {
                let v = lp.add_var(&format!("e_{r}_{c}_d"));
                lp.set_objective_coeff(v, next_cost());
                arcs.push((node(r, c), node(r + 1, c), v));
            }
        }
    }
    let source = node(0, 0);
    let sink = node(rows - 1, cols - 1);
    for n in 0..rows * cols {
        let mut terms: Vec<(pm_lp::VarId, f64)> = Vec::new();
        for &(from, to, v) in &arcs {
            if from == n {
                terms.push((v, 1.0));
            } else if to == n {
                terms.push((v, -1.0));
            }
        }
        let rhs = if n == source {
            1.0
        } else if n == sink {
            -1.0
        } else {
            0.0
        };
        lp.add_constraint(terms, Relation::Eq, rhs);
    }
    // A few capacity couplings so the basis is not purely a tree.
    for (i, &(_, _, v)) in arcs.iter().enumerate().step_by(7) {
        let partner = arcs[(i + 3) % arcs.len()].2;
        lp.add_constraint(vec![(v, 1.0), (partner, 1.0)], Relation::Le, 0.9);
    }
    lp
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solve");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, rows, cols) in [("8x8", 8usize, 8usize), ("16x16", 16, 16)] {
        let lp = grid_flow_lp(rows, cols);
        let dense = SolveContext {
            engine: SolverKind::Dense,
            ..SolveContext::default()
        };
        group.bench_with_input(BenchmarkId::new("dense", label), &lp, |b, lp| {
            b.iter(|| lp.solve_in(&dense).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("revised_cold", label), &lp, |b, lp| {
            b.iter(|| lp.solve().unwrap())
        });
        // Warm-started: re-solve from the previous optimal basis, as the
        // Figure-11 sweep does across consecutive densities.
        let basis = revised::solve_with_hint(&lp, None).unwrap().basis;
        group.bench_with_input(BenchmarkId::new("revised_warm", label), &lp, |b, lp| {
            b.iter(|| revised::solve_with_hint(lp, Some(&basis)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
