//! Allocation budgets of a warm masked re-solve and of a refactorization.
//!
//! The greedy heuristics re-solve one template LP per candidate node under a
//! [`BoundsOverlay`] that fixes the candidate's edges to zero, warm-started
//! from an earlier optimal basis. The fixed edges carry flow in that basis,
//! so the re-solve runs the dual pass. Once the thread has solved that
//! template once, such a re-solve reuses the thread's standard form and its
//! spare LU factorization, so it allocates only the engine's per-solve
//! vectors and the returned solution: a fixed number of allocations,
//! whatever the size of the LP and however many pivots and
//! refactorizations it takes. The dual pass keeps its secondary reduced
//! costs in the engine's pricing storage, beside the primary ones.
//!
//! The re-solve takes its configuration by reference from a
//! [`SolveContext`] built before the measurement, as a masked template
//! holds one: the context costs no allocation per solve.
//!
//! A thread's spare [`LuBasis`] serves LPs of every size in turn: drift
//! solves a 16-row packing LP between two flow LPs of a few thousand rows.
//! Once it has factorized the largest basis, a refactorization allocates
//! nothing, whatever size the basis before it had.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so the test harness's own threads cannot disturb them.

mod common;

use common::network_basis;
use pm_lp::revised::{BoundsOverlay, SolveOutcome};
use pm_lp::{CscMatrix, LpProblem, LuBasis, Objective, Relation, SolveContext, VarId, WarmStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations (fresh blocks and reallocations) the measured re-solve may
/// make, at every problem size. It makes 23: the engine's per-solve vectors,
/// the warm-start install and the returned solution, duals and basis.
const BUDGET: usize = 32;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread by `f`, with its result.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A broadcast-style flow LP on a `k × k` grid of processors with
/// bidirectional links: node 0 sends to three targets, each target's flow
/// is conserved at every node and bounded by the edge's message count
/// `n_e`, and the one-port rows bound every node's send and receive time
/// `Σ c_e·n_e` by the period `T`, which is minimized. The secondary
/// objective is the cost-weighted traffic, as in the pm-core formulations.
/// Returns the problem and, per node, the variables of its incident edges.
fn grid_broadcast_lp(k: usize) -> (LpProblem, Vec<Vec<VarId>>) {
    let nodes = k * k;
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..k {
        for c in 0..k {
            let u = r * k + c;
            let cost = |v: usize| 1.0 + ((u * 7 + v * 13) % 5) as f64 * 0.25;
            if c + 1 < k {
                edges.push((u, u + 1, cost(u + 1)));
                edges.push((u + 1, u, cost(u + 1)));
            }
            if r + 1 < k {
                edges.push((u, u + k, cost(u + k)));
                edges.push((u + k, u, cost(u + k)));
            }
        }
    }
    let source = 0;
    let targets = [nodes - 1, k - 1, nodes - k];
    let mut lp = LpProblem::new(Objective::Minimize);
    let t = lp.add_var("T");
    lp.set_objective_coeff(t, 1.0);
    let mut incident: Vec<Vec<VarId>> = vec![Vec::new(); nodes];
    let n: Vec<VarId> = edges
        .iter()
        .enumerate()
        .map(|(e, &(u, v, cost))| {
            let var = lp.add_var(&format!("n{e}"));
            lp.set_secondary_coeff(var, cost);
            incident[u].push(var);
            incident[v].push(var);
            var
        })
        .collect();
    for (ti, &target) in targets.iter().enumerate() {
        let x: Vec<VarId> = edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v, _))| {
                let var = lp.add_var(&format!("x{ti}_{e}"));
                incident[u].push(var);
                incident[v].push(var);
                var
            })
            .collect();
        for node in 0..nodes {
            let terms: Vec<(VarId, f64)> = edges
                .iter()
                .enumerate()
                .filter_map(|(e, &(u, v, _))| {
                    if v == node {
                        Some((x[e], 1.0))
                    } else if u == node {
                        Some((x[e], -1.0))
                    } else {
                        None
                    }
                })
                .collect();
            let demand = if node == target {
                1.0
            } else if node == source {
                -1.0
            } else {
                0.0
            };
            lp.add_constraint(terms, Relation::Eq, demand);
        }
        for (e, &var) in x.iter().enumerate() {
            lp.add_constraint(vec![(var, 1.0), (n[e], -1.0)], Relation::Le, 0.0);
        }
    }
    for node in 0..nodes {
        for outgoing in [true, false] {
            let mut terms: Vec<(VarId, f64)> = edges
                .iter()
                .enumerate()
                .filter(|&(_, &(u, v, _))| if outgoing { u == node } else { v == node })
                .map(|(e, &(_, _, cost))| (n[e], cost))
                .collect();
            terms.push((t, -1.0));
            lp.add_constraint(terms, Relation::Le, 0.0);
        }
    }
    (lp, incident)
}

/// Solves the template cold, then re-solves it with relay `node` masked
/// out, warm-started from the cold basis: once to warm the thread up and
/// once measured. Returns the measured allocations and both re-solves.
fn masked_resolve_allocations(k: usize, node: usize) -> (usize, SolveOutcome, SolveOutcome) {
    let (lp, incident) = grid_broadcast_lp(k);
    let ctx = SolveContext::default();
    let cold = lp
        .resolve_in(&ctx, &BoundsOverlay::new(), None, None)
        .expect("template solves");
    let mut overlay = BoundsOverlay::new();
    overlay.fix_zero.extend(incident[node].iter().copied());
    let warm_up = lp
        .resolve_in(&ctx, &overlay, Some(&cold.basis), None)
        .expect("masked solve");
    let (allocations, measured) = count_allocations(|| {
        lp.resolve_in(&ctx, &overlay, Some(&cold.basis), None)
            .expect("masked solve")
    });
    (allocations, warm_up, measured)
}

#[test]
fn warm_masked_resolve_allocates_a_fixed_number_of_times() {
    // A 4×4 and a 6×6 grid: 224 and 540 rows. Node k + 1, the second node
    // of the second grid row, is a relay of both.
    for k in [4, 6] {
        let (allocations, warm_up, measured) = masked_resolve_allocations(k, k + 1);
        assert_eq!(
            measured.stats.warm,
            WarmStatus::Hit,
            "k={k}: warm start lost"
        );
        assert!(
            measured.stats.dual_pivots > 0,
            "k={k}: the masked re-solve must run the dual pass"
        );
        assert!(
            measured.stats.phase1_pivots + measured.stats.phase2_pivots > 0
                && measured.stats.refactorizations > 0,
            "k={k}: the masked re-solve must pivot and refactorize to exercise the \
             factorization"
        );
        // Reuse changes no result: the measured solve repeats the warm-up.
        assert_eq!(measured.solution, warm_up.solution, "k={k}");
        assert_eq!(measured.basis, warm_up.basis, "k={k}");
        assert!(
            allocations <= BUDGET,
            "k={k} (m={}, {} pivots, {} refactorizations): {allocations} allocations, \
             budget {BUDGET}",
            measured.stats.m,
            measured.stats.phase1_pivots + measured.stats.phase2_pivots,
            measured.stats.refactorizations,
        );
    }
}

#[test]
fn refactorizations_stop_allocating_across_basis_sizes() {
    let (large, small) = (network_basis(3000), network_basis(16));
    let mut basis = vec![0; 3000];
    let mut lu = LuBasis::new();
    // Every refactorization starts from the identity slot order: the
    // factorization permutes the slots it is given.
    let mut refactorize = |a: &CscMatrix| {
        let slots = &mut basis[..a.rows()];
        slots.iter_mut().enumerate().for_each(|(j, s)| *s = j);
        let (allocations, ok) = count_allocations(|| lu.refactorize(a, slots));
        assert!(ok, "the {}-row network basis is nonsingular", a.rows());
        allocations
    };
    for round in 0..3 {
        let large_allocations = refactorize(&large);
        let small_allocations = refactorize(&small);
        if round > 0 {
            assert_eq!(
                (large_allocations, small_allocations),
                (0, 0),
                "round {round}: (3000-row, 16-row) refactorizations allocated"
            );
        }
    }
}
