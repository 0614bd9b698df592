//! `serve_bench` — closed-loop load driver for the sharded session server.
//!
//! Spawns one client thread per shard (each driving only the sessions that
//! route to its shard, so every shard sees one deterministic request
//! stream), pushes batched drift traffic through the full line protocol,
//! and emits `BENCH_serve_baseline.json` (schema `pm-bench/serve/v1`).
//!
//! Two timed micro-phases measure the coalescing win directly on disjoint
//! warmed session populations:
//!
//! * **phase A (per-event)** — 8 × (edit, solve): every drift event pays a
//!   full re-solve;
//! * **phase B (batched)** — 8 edits then one solve: the same drift volume
//!   coalesced behind one barrier.
//!
//! `batch_speedup = phase_a_ms / phase_b_ms` is the artifact's headline
//! ratio (CI gates it at ≥ 2).
//!
//! Every response line is re-parsed; a line the protocol decoder rejects
//! counts as `malformed_responses` (CI gates at 0). All count fields are
//! deterministic; wall-clock fields are line-filtered by the CI
//! byte-compare, mirroring `solve_ms` in the other artifacts.
//!
//! ```text
//! serve_bench [--sessions N] [--rounds R] [--out PATH]
//! ```

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use pm_core::report::HeuristicKind;
use pm_serve::json::Pretty;
use pm_serve::{InstanceSpec, Request, Response, ServeConfig, Server};

const SCHEMA: &str = "pm-bench/serve/v1";
/// Drift events per burst in the main load loop.
const BURST: usize = 8;
/// Sessions driven through each timed micro-phase.
const PHASE_SESSIONS: usize = 64;

/// The two instance shapes tenants are spread over (exercises the per-shard
/// template arena with more than one key). Both keep every target reachable
/// when either relay is disabled.
fn shapes() -> Vec<InstanceSpec> {
    vec![
        InstanceSpec {
            nodes: 6,
            edges: vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 1.5),
                (1, 4, 2.5),
                (2, 5, 1.8),
                (0, 3, 3.0),
                (2, 4, 2.2),
                (1, 5, 2.7),
                (0, 4, 3.5),
                (0, 5, 3.2),
            ],
            source: 0,
            targets: vec![3, 4, 5],
        },
        InstanceSpec {
            nodes: 5,
            edges: vec![
                (0, 1, 1.2),
                (0, 2, 1.7),
                (1, 3, 2.1),
                (2, 4, 1.4),
                (0, 3, 2.9),
                (0, 4, 2.6),
                (1, 4, 3.1),
            ],
            source: 0,
            targets: vec![3, 4],
        },
    ]
}

struct ClientStats {
    latencies_us: Vec<u64>,
    requests: u64,
    malformed: u64,
    overloaded: u64,
    errors: u64,
    transition_entries: u64,
}

impl ClientStats {
    fn new() -> ClientStats {
        ClientStats {
            latencies_us: Vec::new(),
            requests: 0,
            malformed: 0,
            overloaded: 0,
            errors: 0,
            transition_entries: 0,
        }
    }

    /// Round-trips one request through the line protocol, recording latency
    /// and well-formedness.
    fn call(&mut self, server: &Server, request: &Request) -> Option<Response> {
        let line = request.to_line();
        let start = Instant::now();
        let response_line = server.call_line(&line);
        let elapsed = start.elapsed().as_micros() as u64;
        self.requests += 1;
        self.latencies_us.push(elapsed);
        match Response::from_line(&response_line) {
            Ok(response) => {
                match &response {
                    Response::Overloaded { .. } => self.overloaded += 1,
                    Response::Error { .. } => self.errors += 1,
                    Response::Transitions { entries, .. } => {
                        self.transition_entries += entries.len() as u64;
                    }
                    _ => {}
                }
                Some(response)
            }
            Err(_) => {
                self.malformed += 1;
                None
            }
        }
    }
}

fn session_name(i: usize) -> String {
    format!("tenant-{i}")
}

/// The deterministic per-session load script for one round.
fn round_requests(i: usize, round: usize, spec: &InstanceSpec, next_id: &mut u64) -> Vec<Request> {
    let mut requests = Vec::with_capacity(BURST + 3);
    let session = session_name(i);
    let edge_count = spec.edges.len() as u32;
    let edge_a = (i as u32 + round as u32) % edge_count;
    let edge_b = (edge_a + 1) % edge_count;
    let mut id = || {
        *next_id += 1;
        *next_id
    };
    // Burst: 3 + 3 repeated edge edits (→ 2 net writes) and one
    // disable/enable flip pair on a relay (→ 1 net no-op write).
    for k in 0..3 {
        requests.push(Request::SetEdgeCost {
            id: id(),
            session: session.clone(),
            edge: edge_a,
            cost: 0.5 + ((i + round + k) % 17) as f64 * 0.25,
        });
        requests.push(Request::SetEdgeCost {
            id: id(),
            session: session.clone(),
            edge: edge_b,
            cost: 0.75 + ((i * 3 + round + k) % 13) as f64 * 0.3,
        });
    }
    let relay = 1 + (round % 2) as u32;
    requests.push(Request::DisableNode {
        id: id(),
        session: session.clone(),
        node: relay,
    });
    requests.push(Request::EnableNode {
        id: id(),
        session: session.clone(),
        node: relay,
    });
    // Barrier: one coalesced re-solve per burst.
    requests.push(Request::Solve {
        id: id(),
        session: session.clone(),
        kind: HeuristicKind::Scatter,
    });
    // A quarter of the tenants also re-realize and read back the schedule.
    if i.is_multiple_of(4) {
        requests.push(Request::ReRealize {
            id: id(),
            session: session.clone(),
            kind: HeuristicKind::Scatter,
        });
        requests.push(Request::QuerySchedule {
            id: id(),
            session,
            kind: HeuristicKind::Scatter,
        });
    }
    requests
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

fn main() {
    let mut sessions = 1000usize;
    let mut rounds = 3usize;
    let mut out_path = "BENCH_serve_baseline.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sessions N");
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds R");
            }
            "--out" => {
                out_path = args.next().expect("--out PATH");
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: serve_bench [--sessions N] [--rounds R] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let mut config = ServeConfig::from_env();
    if std::env::var("PM_SERVE_COMPACT").is_err() {
        // The per-tenant journals of this workload are short (a handful of
        // coalesced writes per round); compact aggressively so the artifact
        // actually exercises the compaction path.
        config.compact_interval = 10;
    }
    eprintln!(
        "serve_bench: {sessions} sessions x {rounds} rounds, {} shards, tick {}, queue {}",
        config.shards, config.tick, config.queue_cap
    );
    let server = Server::start(config.clone());
    let shapes = shapes();

    // Partition tenants by the shard their name routes to, so each client
    // thread drives exactly one shard: per-shard request order — and with it
    // every counter — is deterministic regardless of thread scheduling.
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); config.shards];
    for i in 0..sessions {
        by_shard[server.shard_of(&session_name(i))].push(i);
    }

    // Phase 0: create + warmup solve, per shard in parallel.
    let stats = Mutex::new(ClientStats::new());
    let setup_start = Instant::now();
    std::thread::scope(|scope| {
        for shard_sessions in &by_shard {
            let server = &server;
            let shapes = &shapes;
            let stats = &stats;
            scope.spawn(move || {
                let mut local = ClientStats::new();
                let mut next_id = 0u64;
                for &i in shard_sessions {
                    let spec = &shapes[i % shapes.len()];
                    next_id += 1;
                    local.call(
                        server,
                        &Request::CreateSession {
                            id: next_id,
                            session: session_name(i),
                            spec: spec.clone(),
                            kinds: vec![HeuristicKind::Scatter],
                        },
                    );
                    next_id += 1;
                    local.call(
                        server,
                        &Request::Solve {
                            id: next_id,
                            session: session_name(i),
                            kind: HeuristicKind::Scatter,
                        },
                    );
                }
                // Setup latencies are not part of the load-phase percentiles;
                // only the counts are merged.
                let mut merged = stats.lock().unwrap();
                merged.requests += local.requests;
                merged.malformed += local.malformed;
                merged.overloaded += local.overloaded;
                merged.errors += local.errors;
            });
        }
    });
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;

    // Timed micro-phases on disjoint warmed populations (main thread,
    // closed loop). Phase A: every event pays a re-solve.
    let phase_count = PHASE_SESSIONS.min(sessions / 2);
    let mut phase_stats = ClientStats::new();
    let mut next_id = 10_000_000u64;
    let phase_a_start = Instant::now();
    for i in 0..phase_count {
        let spec = &shapes[i % shapes.len()];
        let edge_count = spec.edges.len() as u32;
        for k in 0..BURST {
            next_id += 1;
            phase_stats.call(
                &server,
                &Request::SetEdgeCost {
                    id: next_id,
                    session: session_name(i),
                    edge: (k as u32) % edge_count,
                    cost: 0.6 + ((i + k) % 11) as f64 * 0.2,
                },
            );
            next_id += 1;
            phase_stats.call(
                &server,
                &Request::Solve {
                    id: next_id,
                    session: session_name(i),
                    kind: HeuristicKind::Scatter,
                },
            );
        }
    }
    let phase_a_ms = phase_a_start.elapsed().as_secs_f64() * 1e3;

    // Phase B: the same drift volume coalesced behind one barrier.
    let phase_b_start = Instant::now();
    for j in 0..phase_count {
        let i = phase_count + j;
        let spec = &shapes[i % shapes.len()];
        let edge_count = spec.edges.len() as u32;
        for k in 0..BURST {
            next_id += 1;
            phase_stats.call(
                &server,
                &Request::SetEdgeCost {
                    id: next_id,
                    session: session_name(i),
                    edge: (k as u32) % edge_count,
                    cost: 0.6 + ((j + k) % 11) as f64 * 0.2,
                },
            );
        }
        next_id += 1;
        phase_stats.call(
            &server,
            &Request::Solve {
                id: next_id,
                session: session_name(i),
                kind: HeuristicKind::Scatter,
            },
        );
    }
    let phase_b_ms = phase_b_start.elapsed().as_secs_f64() * 1e3;
    let batch_speedup = if phase_b_ms > 0.0 {
        phase_a_ms / phase_b_ms
    } else {
        f64::INFINITY
    };

    // Main closed loop: every tenant gets `rounds` bursts; a quarter also
    // re-realize, read schedules, and stream transition logs.
    let load_start = Instant::now();
    std::thread::scope(|scope| {
        for (shard, shard_sessions) in by_shard.iter().enumerate() {
            let server = &server;
            let shapes = &shapes;
            let stats = &stats;
            scope.spawn(move || {
                let mut local = ClientStats::new();
                let mut next_id = 20_000_000u64 + (shard as u64) * 5_000_000;
                for round in 0..rounds {
                    for &i in shard_sessions {
                        let spec = &shapes[i % shapes.len()];
                        for request in round_requests(i, round, spec, &mut next_id) {
                            local.call(server, &request);
                        }
                    }
                }
                // Steady-state churn: re-realize the realizing tenants twice
                // more with no drift in between — consecutive packings of an
                // unchanged pool are where the shard basis cache pays off.
                for _ in 0..3 {
                    for &i in shard_sessions {
                        if i.is_multiple_of(4) {
                            next_id += 1;
                            local.call(
                                server,
                                &Request::ReRealize {
                                    id: next_id,
                                    session: session_name(i),
                                    kind: HeuristicKind::Scatter,
                                },
                            );
                        }
                    }
                }
                // Drain transition logs for the realizing tenants.
                for &i in shard_sessions {
                    if i.is_multiple_of(4) {
                        next_id += 1;
                        local.call(
                            server,
                            &Request::StreamTransitionCosts {
                                id: next_id,
                                session: session_name(i),
                            },
                        );
                    }
                }
                // Retire the tail 10% of this shard's tenants.
                let keep = shard_sessions.len() - shard_sessions.len() / 10;
                for &i in &shard_sessions[keep..] {
                    next_id += 1;
                    local.call(
                        server,
                        &Request::DestroySession {
                            id: next_id,
                            session: session_name(i),
                        },
                    );
                }
                let mut merged = stats.lock().unwrap();
                merged.latencies_us.extend(local.latencies_us);
                merged.requests += local.requests;
                merged.malformed += local.malformed;
                merged.overloaded += local.overloaded;
                merged.errors += local.errors;
                merged.transition_entries += local.transition_entries;
            });
        }
    });
    let load_elapsed = load_start.elapsed();

    let mut stats = stats.into_inner().unwrap();
    stats.requests += phase_stats.requests;
    stats.malformed += phase_stats.malformed;
    stats.overloaded += phase_stats.overloaded;
    stats.errors += phase_stats.errors;

    let counters = server.shutdown();
    let mut latencies = std::mem::take(&mut stats.latencies_us);
    latencies.sort_unstable();
    let load_requests = latencies.len() as u64;
    let events_per_sec = load_requests as f64 / load_elapsed.as_secs_f64();
    let elapsed_ms = load_elapsed.as_secs_f64() * 1e3;

    let out = Pretty::document(|w| {
        w.field("schema", SCHEMA);
        w.object("config", |w| {
            w.field("sessions", sessions);
            w.field("rounds", rounds);
            w.field("burst", BURST);
            w.field("shards", config.shards);
            w.field("tick", config.tick);
            w.field("queue_cap", config.queue_cap);
            w.field("cache_capacity", config.cache_capacity);
            w.field("compact_interval", config.compact_interval);
        });
        w.object("counts", |w| {
            w.field("requests", counters.requests);
            w.field("sessions_created", counters.sessions_created);
            w.field("sessions_destroyed", counters.sessions_destroyed);
            w.field("sessions_live", counters.sessions_live);
            w.field("drift_events", counters.drift_events);
            w.field("coalesced_writes", counters.coalesced_writes);
            w.field("flushes", counters.flushes);
            w.field("coalescing_ratio", counters.coalescing_ratio());
            w.field("shed", counters.shed);
            w.field("overloaded_responses", stats.overloaded);
            w.field("malformed_responses", stats.malformed);
            w.field("error_responses", stats.errors);
            w.field("template_builds", counters.template_builds);
            w.field("template_hits", counters.template_hits);
            w.field("solves", counters.solves);
            w.field("realizations", counters.realizations);
            w.field("degraded_solves", counters.degraded_solves);
            w.field("warm_hits", counters.warm_hits);
            w.field("warm_misses", counters.warm_misses);
            w.field("warm_hit_rate", counters.warm_hit_rate());
            w.field("cache_hits", counters.cache_hits);
            w.field("cache_misses", counters.cache_misses);
            w.field("cache_evictions", counters.cache_evictions);
            w.field("cache_hit_rate", counters.cache_hit_rate());
            w.field("compactions", counters.compactions);
            w.field("journal_entries_dropped", counters.journal_entries_dropped);
            w.field("transition_entries", stats.transition_entries);
            w.field("server_errors", counters.errors);
        });
        w.object("perf", |w| {
            w.field("setup_ms", setup_ms);
            w.field("elapsed_ms", elapsed_ms);
            w.field("events_per_sec", events_per_sec);
            w.field("p50_us", percentile(&latencies, 0.50));
            w.field("p95_us", percentile(&latencies, 0.95));
            w.field("p99_us", percentile(&latencies, 0.99));
            w.field("phase_a_ms", phase_a_ms);
            w.field("phase_b_ms", phase_b_ms);
            w.field("batch_speedup", batch_speedup);
        });
    });

    let mut file = std::fs::File::create(&out_path).expect("create artifact");
    file.write_all(out.as_bytes()).expect("write artifact");
    eprintln!(
        "serve_bench: {load_requests} load requests in {:.1} ms ({:.0} req/s), coalescing {:.2}, warm {:.2}, cache {:.2}, speedup {:.2} -> {out_path}",
        elapsed_ms,
        events_per_sec,
        counters.coalescing_ratio(),
        counters.warm_hit_rate(),
        counters.cache_hit_rate(),
        batch_speedup
    );
}
