//! The `serve` workload: a closed loop over an in-process
//! `pm_serve::Server` with 2 shards and one client thread that drives every
//! tenant with one request in flight, so every shard sees one deterministic
//! request stream and one thread runs at a time, on the one CPU the process
//! is pinned to. A thousand small tenants, on seeded instance shapes, run
//! `serve_bench`'s per-round script: a burst of drift (six edge-cost
//! edits and a relay disable/enable pair), a solve barrier, and for a
//! quarter of the tenants a re-realization, a schedule query and a
//! transition-log drain. One tenant in eight is a 2-commodity tenant that
//! solves and realizes jointly. After every round a tenth of the tenants
//! is destroyed and replaced. A timed run measures epochs of whole rounds,
//! each round a pass, every epoch on a server set up anew.
//!
//! Every request goes through the line protocol (`Request::to_line`,
//! `Server::call_line`, `Response::from_line`), and its op time covers all
//! three. The LP is tiny here; the codec, shard queues, coalescing, the
//! template arena, the basis cache and journal compaction do the work.

use std::time::Instant;

use pm_core::report::HeuristicKind;
use pm_serve::protocol::{CommoditySpec, Counters, MultiSpec};
use pm_serve::{InstanceSpec, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::SERVE_TYPES;
use crate::{mean, median, percentile, ratio, sum, Args, OpLog, Outcome, Pass, PassStart, Scale};

const SHARDS: usize = 2;
const SINGLE_SHAPES: usize = 16;
const MULTI_SHAPES: usize = 4;

/// The server under test, configured explicitly (no `PM_SERVE_*` knobs).
fn config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        tick: 8,
        queue_cap: 256,
        cache_capacity: Some(1024),
        compact_interval: 10,
    }
}

struct Sizes {
    tenants: usize,
    /// Rounds of a traced run.
    traced_rounds: usize,
    /// Rounds of each epoch of a timed run.
    epoch_rounds: usize,
}

/// Populations set up before each epoch of a timed run; the last one runs.
const EPOCH_SETUPS: usize = 3;

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // Five rounds grow the tenant journals past the compaction interval.
        // A thousand tenants, not `serve_bench`'s 4000: the server's counters
        // scale with the tenant count, and a smaller working set moves less
        // with the host's load (see `perfbench/README.md`).
        Scale::Full => Sizes {
            tenants: 1000,
            traced_rounds: 5,
            // ~5 s: five or six epochs a run.
            epoch_rounds: 16,
        },
        Scale::Tiny => Sizes {
            tenants: 24,
            traced_rounds: 2,
            epoch_rounds: 1,
        },
    }
}

fn is_multi(index: usize) -> bool {
    index % 8 == 4
}

/// A quarter of the tenants (every multi tenant among them) realize.
fn realizes(index: usize) -> bool {
    index.is_multiple_of(4)
}

struct Shapes {
    single: Vec<InstanceSpec>,
    multi: Vec<MultiSpec>,
}

/// Node count, edges and targets of a single-commodity shape.
type Topology = (usize, &'static [(u32, u32)], &'static [u32]);

/// The single-commodity topologies, after `serve_bench`'s two shapes:
/// source 0, relays 1 and 2, and a direct edge from the source to every
/// target, so disabling either relay never disconnects a target. Edges
/// leaving the source towards a target are the expensive ones.
const SINGLE_TOPOLOGIES: [Topology; 2] = [
    (
        6,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 5),
            (0, 3),
            (2, 4),
            (1, 5),
            (0, 4),
            (0, 5),
        ],
        &[3, 4, 5],
    ),
    (
        5,
        &[(0, 1), (0, 2), (1, 3), (2, 4), (0, 3), (0, 4), (1, 4)],
        &[3, 4],
    ),
];

/// The two-commodity topology: a 7-node ring with chords. Commodity 0 runs
/// from node 0 to node 5 and commodity 1 from node 3 to node 0, neither
/// touching relays 1 and 2, each with a direct edge. Each commodity has one
/// target: the joint LP relaxes multicast trees the way `Multicast-LB`
/// does, so only for single-target commodities is every LP rate
/// achievable, and a missed rate is then a real failure.
const MULTI_EDGES: [(u32, u32); 13] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (6, 0),
    (0, 4),
    (3, 6),
    (5, 1),
    (2, 0),
    (0, 5),
    (3, 0),
];

/// Seeded shapes: the topologies are fixed, the costs are drawn, so every
/// seed loads the server with the same mix of work.
fn shapes(seed: u64) -> Shapes {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0000_0000_0001);
    let single = (0..SINGLE_SHAPES)
        .map(|i| {
            let (nodes, edges, targets) = SINGLE_TOPOLOGIES[i % SINGLE_TOPOLOGIES.len()];
            InstanceSpec {
                nodes,
                edges: edges
                    .iter()
                    .map(|&(s, d)| {
                        let cost = if s == 0 && targets.contains(&d) {
                            rng.gen_range(2.0..4.0)
                        } else {
                            rng.gen_range(0.5..2.5)
                        };
                        (s, d, cost)
                    })
                    .collect(),
                source: 0,
                targets: targets.to_vec(),
            }
        })
        .collect();
    let multi = (0..MULTI_SHAPES)
        .map(|_| MultiSpec {
            nodes: 7,
            edges: MULTI_EDGES
                .iter()
                .map(|&(s, d)| (s, d, rng.gen_range(0.5..2.5)))
                .collect(),
            commodities: vec![
                CommoditySpec {
                    source: 0,
                    targets: vec![5],
                    demand: 1.0,
                },
                CommoditySpec {
                    source: 3,
                    targets: vec![0],
                    demand: 2.0,
                },
            ],
        })
        .collect();
    Shapes { single, multi }
}

/// A tenant as its client thread knows it.
#[derive(Clone)]
struct Tenant {
    index: usize,
    name: String,
}

fn type_of(request: &Request) -> usize {
    let name = match request {
        Request::CreateSession { .. } | Request::CreateMultiSession { .. } => "create",
        Request::SetEdgeCost { .. } | Request::DisableNode { .. } | Request::EnableNode { .. } => {
            "edit"
        }
        Request::Solve { .. } => "solve",
        Request::ReRealize { .. } => "re_realize",
        Request::QuerySchedule { .. } => "query",
        Request::StreamTransitionCosts { .. } => "transitions",
        Request::SolveMulti { .. } => "solve_multi",
        Request::ReRealizeMulti { .. } => "re_realize_multi",
        Request::DestroySession { .. } => "destroy",
        Request::Counters { .. } => unreachable!("the script never asks for counters"),
    };
    SERVE_TYPES
        .iter()
        .position(|&t| t == name)
        .expect("every type is listed")
}

/// Whether `response` is the kind of answer `request` expects.
fn answers(request: &Request, response: &Response) -> bool {
    matches!(
        (request, response),
        (
            Request::CreateSession { .. }
                | Request::CreateMultiSession { .. }
                | Request::SetEdgeCost { .. }
                | Request::DisableNode { .. }
                | Request::EnableNode { .. }
                | Request::DestroySession { .. },
            Response::Ok { .. }
        ) | (Request::Solve { .. }, Response::Solved { .. })
            | (Request::ReRealize { .. }, Response::Realized { .. })
            | (Request::QuerySchedule { .. }, Response::Schedule { .. })
            | (
                Request::StreamTransitionCosts { .. },
                Response::Transitions { .. }
            )
            | (Request::SolveMulti { .. }, Response::MultiSolved { .. })
            | (
                Request::ReRealizeMulti { .. },
                Response::MultiRealized { .. }
            )
    )
}

/// Every check a response must pass.
fn check(request: &Request, line: &str, parsed: &Result<Response, String>) -> Vec<String> {
    let response = match parsed {
        Ok(r) => r,
        Err(e) => return vec![format!("malformed response {line:?}: {e}")],
    };
    let mut problems = Vec::new();
    match response {
        Response::Error { code, message, .. } => problems.push(format!("error {code}: {message}")),
        Response::Overloaded { .. } => problems.push("overloaded".into()),
        Response::Realized {
            violations, gap, ..
        } if *violations > 0 || gap.is_nan() || *gap > crate::ops::EPS => {
            problems.push(format!(
                "realized with {violations} violations, gap {gap:e}"
            ));
        }
        Response::MultiRealized {
            violations,
            rate_met,
            ..
        } if *violations > 0 || rate_met.iter().any(|met| !met) => {
            problems.push(format!(
                "multi realization with {violations} violations, rates met {rate_met:?}"
            ));
        }
        _ => {}
    }
    if problems.is_empty() && (response.id() != request.id() || !answers(request, response)) {
        problems.push(format!("response {line:?} does not answer {request:?}"));
    }
    problems
}

/// The client: one thread driving every tenant, one request at a time, so
/// that one thread (the client or the shard serving it) runs at a time.
struct Client<'a> {
    server: &'a Server,
    tracer: Tracer,
    log: OpLog,
    next_id: u64,
    /// Digest the periods while true (the first round).
    digesting: bool,
    /// Latencies of the create requests.
    create_ns: Vec<u64>,
    /// Trees of every realization answered.
    trees: u64,
}

impl Client<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Round-trips one request through the line protocol and checks it.
    fn call(&mut self, request: Request) {
        let ty = SERVE_TYPES[type_of(&request)];
        let op = self.next_id;
        let start = Instant::now();
        let open = self.tracer.begin("request", ty, op);
        let line = self.tracer.span("encode", ty, op, || request.to_line());
        let reply = self.server.call_line(&line);
        let parsed = self
            .tracer
            .span("decode", ty, op, || Response::from_line(&reply));
        self.tracer.end(open);
        let elapsed = start.elapsed().as_nanos() as u64;
        if ty == "create" {
            self.create_ns.push(elapsed);
        }
        let problems = check(&request, &reply, &parsed);
        match parsed {
            Ok(Response::Solved { period, .. } | Response::MultiSolved { period, .. })
                if self.digesting =>
            {
                self.log.digest.add(request.id(), period)
            }
            Ok(Response::Realized { trees, .. } | Response::MultiRealized { trees, .. }) => {
                self.trees += trees
            }
            _ => {}
        }
        self.log.finish(elapsed, &problems);
    }

    fn create(&mut self, tenant: &Tenant, shapes: &Shapes) {
        let id = self.id();
        let session = tenant.name.clone();
        let request = if is_multi(tenant.index) {
            Request::CreateMultiSession {
                id,
                session,
                spec: shapes.multi[tenant.index % MULTI_SHAPES].clone(),
            }
        } else {
            Request::CreateSession {
                id,
                session,
                spec: shapes.single[tenant.index % SINGLE_SHAPES].clone(),
                kinds: vec![HeuristicKind::Scatter],
            }
        };
        self.call(request);
    }

    fn solve(&mut self, tenant: &Tenant) {
        let (id, session) = (self.id(), tenant.name.clone());
        self.call(if is_multi(tenant.index) {
            Request::SolveMulti { id, session }
        } else {
            Request::Solve {
                id,
                session,
                kind: HeuristicKind::Scatter,
            }
        });
    }

    /// Creates a tenant and runs its cold first solve.
    fn admit(&mut self, tenant: &Tenant, shapes: &Shapes) {
        self.create(tenant, shapes);
        self.solve(tenant);
    }

    /// `serve_bench`'s per-round script for one tenant.
    fn round(&mut self, tenant: &Tenant, round: usize, shapes: &Shapes) {
        let multi = is_multi(tenant.index);
        let edge_count = if multi {
            shapes.multi[tenant.index % MULTI_SHAPES].edges.len()
        } else {
            shapes.single[tenant.index % SINGLE_SHAPES].edges.len()
        } as u32;
        let i = tenant.index;
        let edge_a = (i as u32 + round as u32) % edge_count;
        let edge_b = (edge_a + 1) % edge_count;
        let session = &tenant.name;
        for k in 0..3 {
            let id = self.id();
            self.call(Request::SetEdgeCost {
                id,
                session: session.clone(),
                edge: edge_a,
                cost: 0.5 + ((i + round + k) % 17) as f64 * 0.25,
            });
            let id = self.id();
            self.call(Request::SetEdgeCost {
                id,
                session: session.clone(),
                edge: edge_b,
                cost: 0.75 + ((i * 3 + round + k) % 13) as f64 * 0.3,
            });
        }
        let relay = 1 + (round % 2) as u32;
        let id = self.id();
        self.call(Request::DisableNode {
            id,
            session: session.clone(),
            node: relay,
        });
        let id = self.id();
        self.call(Request::EnableNode {
            id,
            session: session.clone(),
            node: relay,
        });
        self.solve(tenant);
        if !realizes(i) {
            return;
        }
        let id = self.id();
        if multi {
            self.call(Request::ReRealizeMulti {
                id,
                session: session.clone(),
            });
        } else {
            self.call(Request::ReRealize {
                id,
                session: session.clone(),
                kind: HeuristicKind::Scatter,
            });
            let id = self.id();
            self.call(Request::QuerySchedule {
                id,
                session: session.clone(),
                kind: HeuristicKind::Scatter,
            });
        }
        let id = self.id();
        self.call(Request::StreamTransitionCosts {
            id,
            session: session.clone(),
        });
    }

    /// Replaces a tenth of the tenants: destroy, then admit a new tenant of
    /// the same shape under a name that routes to the same shard, so each
    /// shard keeps its share of the load.
    fn churn(&mut self, tenants: &mut [Tenant], round: usize, shapes: &Shapes) {
        let count = (tenants.len() / 10).max(1);
        for j in 0..count {
            let slot = (round * count + j) % tenants.len();
            let id = self.id();
            self.call(Request::DestroySession {
                id,
                session: tenants[slot].name.clone(),
            });
            let index = tenants[slot].index;
            let shard = self.server.shard_of(&tenants[slot].name);
            let name = (1..)
                .map(|generation| format!("tenant-{index}-r{round}-{generation}"))
                .find(|name| self.server.shard_of(name) == shard)
                .expect("some name routes to every shard");
            tenants[slot] = Tenant { index, name };
            let tenant = tenants[slot].clone();
            self.admit(&tenant, shapes);
        }
    }
}

/// A started server with every tenant admitted.
struct Population {
    server: Server,
    tenants: Vec<Tenant>,
    /// Sum of the create-request latencies, in ms.
    create_ms: f64,
    seconds: f64,
    log: OpLog,
}

fn populate(seed: u64, tenants: usize, shapes: &Shapes) -> Population {
    let start = Instant::now();
    let server = Server::start(config());
    let tenants: Vec<Tenant> = (0..tenants)
        .map(|index| Tenant {
            index,
            name: format!("tenant-{seed}-{index}"),
        })
        .collect();
    let mut client = Client::new(&server, false, start);
    for tenant in &tenants {
        client.admit(tenant, shapes);
    }
    let Client { log, create_ns, .. } = client;
    Population {
        server,
        tenants,
        create_ms: create_ns.iter().sum::<u64>() as f64 / 1e6,
        seconds: start.elapsed().as_secs_f64(),
        log,
    }
}

impl<'a> Client<'a> {
    fn new(server: &'a Server, traced: bool, origin: Instant) -> Client<'a> {
        Client {
            server,
            tracer: Tracer::new(traced, origin),
            log: OpLog::default(),
            next_id: 0,
            digesting: false,
            create_ns: Vec::new(),
            trees: 0,
        }
    }
}

/// What the measured rounds of one population produced.
struct Measured {
    trees: u64,
    log: OpLog,
    /// One pass per round.
    passes: Vec<Pass>,
    tracer: Tracer,
    seconds: f64,
    delta: Counters,
}

fn counters_delta(before: &Counters, after: &Counters) -> Counters {
    Counters {
        requests: after.requests - before.requests,
        drift_events: after.drift_events - before.drift_events,
        coalesced_writes: after.coalesced_writes - before.coalesced_writes,
        flushes: after.flushes - before.flushes,
        shed: after.shed - before.shed,
        template_builds: after.template_builds - before.template_builds,
        template_hits: after.template_hits - before.template_hits,
        warm_hits: after.warm_hits - before.warm_hits,
        warm_misses: after.warm_misses - before.warm_misses,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        compactions: after.compactions - before.compactions,
        journal_entries_dropped: after.journal_entries_dropped - before.journal_entries_dropped,
        ..Counters::default()
    }
}

/// Runs `rounds` whole rounds, then retires the server.
fn measure(population: Population, shapes: &Shapes, traced: bool, rounds: usize) -> Measured {
    let Population {
        server,
        mut tenants,
        ..
    } = population;
    let before = server.counters();
    let start = Instant::now();
    let mut client = Client::new(&server, traced, start);
    client.next_id = 1_000_000;
    let mut passes = Vec::new();
    for round in 0..rounds {
        client.digesting = round == 0;
        let pass = PassStart::now(&client.log);
        for tenant in &tenants {
            client.round(tenant, round, shapes);
        }
        client.churn(&mut tenants, round, shapes);
        passes.push(pass.end(&client.log));
    }
    let seconds = start.elapsed().as_secs_f64();
    let Client {
        log, tracer, trees, ..
    } = client;
    let delta = counters_delta(&before, &server.counters());
    server.shutdown();
    Measured {
        log,
        passes,
        tracer,
        seconds,
        delta,
        trees,
    }
}

/// The per-layer metrics of a traced serve run.
fn layers(
    measured: &Measured,
    population_create_ms: f64,
    generate_ms: f64,
) -> std::collections::BTreeMap<String, f64> {
    let mut m = std::collections::BTreeMap::new();
    let durations = |name: &str, detail: Option<&str>| measured.tracer.durations_ms(name, detail);
    let d = &measured.delta;
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("platform.generate_ms", generate_ms);
    put("session.create_ms", population_create_ms);
    put("session.edits", d.coalesced_writes as f64);
    put(
        "session.edit_us",
        mean(&durations("request", Some("edit"))) * 1e3,
    );
    let solves = durations("request", Some("solve"));
    put("solve.ms", sum(&solves));
    put("solve.p50_ms", median(&solves));
    put("solve.p90_ms", percentile(&solves, 0.9));
    put("solve.scatter.ms", sum(&solves));
    put("lp.solves", (d.warm_hits + d.warm_misses) as f64);
    put("lp.warm_hit_rate", d.warm_hit_rate());
    let realizes = durations("request", Some("re_realize"));
    put("realize.ms", sum(&realizes));
    put("realize.p50_ms", median(&realizes));
    // The shard's packing-basis cache sees every packing LP.
    put("realize.lp_solves", (d.cache_hits + d.cache_misses) as f64);
    put("realize.trees", measured.trees as f64);
    put(
        "realize.share_pct",
        100.0 * ratio(sum(&realizes), sum(&durations("request", None))),
    );
    for ty in SERVE_TYPES {
        let lat = durations("request", Some(ty));
        put(&format!("serve.{ty}.p50_ms"), median(&lat));
        put(&format!("serve.{ty}.p99_ms"), percentile(&lat, 0.99));
    }
    put("serve.encode_us", mean(&durations("encode", None)) * 1e3);
    put("serve.decode_us", mean(&durations("decode", None)) * 1e3);
    put("serve.coalescing_ratio", d.coalescing_ratio());
    put("serve.flushes", d.flushes as f64);
    put(
        "serve.template_hit_rate",
        ratio(
            d.template_hits as f64,
            (d.template_hits + d.template_builds) as f64,
        ),
    );
    put("serve.cache_hit_rate", d.cache_hit_rate());
    put("serve.cache_evictions", d.cache_evictions as f64);
    put("serve.warm_hit_rate", d.warm_hit_rate());
    put("serve.compactions", d.compactions as f64);
    put("serve.journal_dropped", d.journal_entries_dropped as f64);
    put("serve.shed", d.shed as f64);
    m
}

pub fn run(args: &Args) -> Outcome {
    let sizes = sizes(args.scale);
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let shapes = shapes(args.seed);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;

    if args.trace {
        // The same rounds untraced, then traced, each on a fresh server.
        let rounds = sizes.traced_rounds;
        let first = populate(args.seed, sizes.tenants, &shapes);
        outcome.log.absorb_failures(&first.log);
        let untraced = measure(first, &shapes, false, rounds);
        let second = populate(args.seed, sizes.tenants, &shapes);
        let create_ms = second.create_ms;
        outcome.setup_s.push(second.seconds);
        outcome.log.absorb_failures(&second.log);
        let traced = measure(second, &shapes, true, rounds);
        outcome.layers = layers(&traced, create_ms, generate_ms);
        outcome.layers.insert(
            "trace.overhead_pct".into(),
            crate::ops::overhead_pct(&untraced.log, &traced.log),
        );
        outcome.log.absorb_failures(&untraced.log);
        crate::write_trace(args, &traced.tracer);
        outcome.measured_s = traced.seconds;
        outcome.log.digest = traced.log.digest;
        outcome.log.merge(traced.log);
        return outcome;
    }

    // The timed run is a series of epochs, each set up anew: `EPOCH_SETUPS`
    // populations in turn, of which the last runs `EPOCH_ROUNDS` rounds. The
    // set-ups spread over the run, and every server serves the same rounds,
    // so its memory peaks at the same size on every run.
    let mut setup_log = OpLog::default();
    let start = Instant::now();
    loop {
        let mut population: Option<Population> = None;
        for _ in 0..EPOCH_SETUPS {
            // Retire the previous population's server before starting the next.
            drop(population.take());
            let p = populate(args.seed, sizes.tenants, &shapes);
            outcome.setup_s.push(p.seconds);
            setup_log.absorb_failures(&p.log);
            population = Some(p);
        }
        let measured = measure(
            population.expect("EPOCH_SETUPS > 0"),
            &shapes,
            false,
            sizes.epoch_rounds,
        );
        let offset = outcome.log.op_ns.len();
        outcome
            .passes
            .extend(measured.passes.into_iter().map(|pass| Pass {
                ops: pass.ops.start + offset..pass.ops.end + offset,
                ..pass
            }));
        outcome.measured_s += measured.seconds;
        if offset == 0 {
            // Every epoch repeats the first one's results; the digest covers
            // its first round.
            outcome.log.digest = measured.log.digest;
        }
        outcome.log.merge(measured.log);
        if crate::passes_done(args, &outcome, start) {
            break;
        }
    }
    outcome.log.absorb_failures(&setup_log);
    outcome
}
