//! The line-delimited JSON request/response protocol spoken by `pm-serve`.
//!
//! Every request and response is one JSON object per line. Requests carry a
//! client-chosen numeric `id` that is echoed verbatim on the response, plus a
//! `type` tag; most carry a `session` name routing them to a shard. The
//! response `status` is `"ok"`, `"error"` or `"overloaded"`.
//!
//! The wire encoding is deliberately dependency-free (see [`crate::json`])
//! and deterministic: identical request sequences produce byte-identical
//! response lines, which the CI smoke job exploits.

use crate::json::Json;
use pm_core::multi::{Commodity, CommoditySet};
use pm_core::report::HeuristicKind;
use pm_core::session::{SessionError, TransitionCost};
use pm_platform::graph::{NodeId, Platform, PlatformBuilder};
use pm_platform::instances::MulticastInstance;

/// Snake-case key of a heuristic kind, on the wire and in every `pm_bench`
/// artifact (the paper labels of [`HeuristicKind::label`] contain spaces
/// and dots, so they are kept for tables only).
pub fn kind_key(kind: HeuristicKind) -> &'static str {
    match kind {
        HeuristicKind::Scatter => "scatter",
        HeuristicKind::LowerBound => "lower_bound",
        HeuristicKind::Broadcast => "broadcast",
        HeuristicKind::Mcph => "mcph",
        HeuristicKind::AugmentedMulticast => "augmented_multicast",
        HeuristicKind::ReducedBroadcast => "reduced_broadcast",
        HeuristicKind::MultisourceMulticast => "multisource_multicast",
    }
}

/// Inverse of [`kind_key`].
pub fn kind_from_key(key: &str) -> Option<HeuristicKind> {
    HeuristicKind::ALL
        .iter()
        .copied()
        .find(|&k| kind_key(k) == key)
}

/// Stable machine-readable code for a session-level failure.
pub fn error_code(err: &SessionError) -> &'static str {
    use pm_core::formulations::FormulationError;
    use pm_core::realize::RealizeError;
    match err {
        SessionError::Formulation(FormulationError::Unreachable(_)) => "unreachable",
        SessionError::Formulation(FormulationError::InvalidArgument(_)) => "invalid_argument",
        SessionError::Formulation(FormulationError::Lp(_)) => "lp_failure",
        SessionError::Realize(RealizeError::NotRealizable(_)) => "not_realizable",
        SessionError::Realize(_) => "realize_failure",
        SessionError::Poisoned { .. } => "poisoned",
        SessionError::Replay { .. } => "replay_failure",
    }
}

/// A plain-data description of a multicast instance, as sent on
/// `create_session`. Building the [`MulticastInstance`] validates it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Number of processors (`NodeId`s are `0..nodes`).
    pub nodes: usize,
    /// Directed edges `(src, dst, cost)`; the index in this list is the
    /// `EdgeId` used by `set_edge_cost`.
    pub edges: Vec<(u32, u32, f64)>,
    /// The source processor.
    pub source: u32,
    /// The target processors.
    pub targets: Vec<u32>,
}

impl InstanceSpec {
    /// Validates and builds the platform instance.
    pub fn build(&self) -> Result<MulticastInstance, String> {
        let mut builder = PlatformBuilder::new();
        builder.add_nodes(self.nodes);
        for &(src, dst, cost) in &self.edges {
            builder
                .add_edge(NodeId(src), NodeId(dst), cost)
                .map_err(|e| e.to_string())?;
        }
        let platform: Platform = builder.build().map_err(|e| e.to_string())?;
        MulticastInstance::new(
            platform,
            NodeId(self.source),
            self.targets.iter().map(|&t| NodeId(t)).collect(),
        )
        .map_err(|e| e.to_string())
    }

    /// FNV-1a fingerprint of the full shape (topology, bit-exact costs,
    /// source and targets) — the key of the per-shard template arena.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.nodes as u64);
        h.write_u64(self.source as u64);
        for &t in &self.targets {
            h.write_u64(t as u64);
        }
        for &(src, dst, cost) in &self.edges {
            h.write_u64(src as u64);
            h.write_u64(dst as u64);
            h.write_u64(cost.to_bits());
        }
        h.finish()
    }

    /// Extracts the spec back out of a built instance (driver/test helper).
    pub fn from_instance(instance: &MulticastInstance) -> InstanceSpec {
        InstanceSpec {
            nodes: instance.platform.node_count(),
            edges: instance
                .platform
                .edge_ids()
                .map(|e| {
                    let edge = instance.platform.edge(e);
                    (edge.src.0, edge.dst.0, edge.cost)
                })
                .collect(),
            source: instance.source.0,
            targets: instance.targets.iter().map(|t| t.0).collect(),
        }
    }

    fn to_json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("nodes", Json::Num(self.nodes as f64)),
            (
                "edges",
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|&(s, d, c)| {
                            Json::Arr(vec![Json::Num(s as f64), Json::Num(d as f64), Json::Num(c)])
                        })
                        .collect(),
                ),
            ),
            ("source", Json::Num(self.source as f64)),
            (
                "targets",
                Json::Arr(self.targets.iter().map(|&t| Json::Num(t as f64)).collect()),
            ),
        ]
    }

    fn from_json(v: &Json) -> Result<InstanceSpec, String> {
        let nodes = field_u64(v, "nodes")? as usize;
        let source = field_u64(v, "source")? as u32;
        let targets = v
            .get("targets")
            .and_then(Json::as_arr)
            .ok_or("missing 'targets' array")?
            .iter()
            .map(|t| t.as_u64().map(|t| t as u32).ok_or("bad target"))
            .collect::<Result<Vec<_>, _>>()?;
        let edges = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("missing 'edges' array")?
            .iter()
            .map(|e| {
                let e = e
                    .as_arr()
                    .filter(|e| e.len() == 3)
                    .ok_or("bad edge triple")?;
                Ok((
                    e[0].as_u64().ok_or("bad edge src")? as u32,
                    e[1].as_u64().ok_or("bad edge dst")? as u32,
                    e[2].as_f64().ok_or("bad edge cost")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(InstanceSpec {
            nodes,
            edges,
            source,
            targets,
        })
    }
}

/// One commodity of a multi-commodity workload, as sent on
/// `create_multi_session`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommoditySpec {
    /// The commodity's source processor.
    pub source: u32,
    /// The commodity's target processors.
    pub targets: Vec<u32>,
    /// Relative rate weight (finite, strictly positive).
    pub demand: f64,
}

/// A plain-data description of a multi-commodity workload on a shared
/// platform, as sent on `create_multi_session`. Building the
/// [`CommoditySet`] validates it.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSpec {
    /// Number of processors (`NodeId`s are `0..nodes`).
    pub nodes: usize,
    /// Directed edges `(src, dst, cost)`; the index in this list is the
    /// `EdgeId` used by `set_edge_cost`.
    pub edges: Vec<(u32, u32, f64)>,
    /// The concurrent commodities sharing the platform's one-port capacity.
    pub commodities: Vec<CommoditySpec>,
}

impl MultiSpec {
    /// Validates the workload and builds the session's base instance
    /// (commodity 0's multicast) plus the normalized commodity list handed
    /// to [`pm_core::session::Session::solve_multi`] on every `solve_multi`.
    pub fn build(&self) -> Result<(MulticastInstance, Vec<Commodity>), String> {
        let mut builder = PlatformBuilder::new();
        builder.add_nodes(self.nodes);
        for &(src, dst, cost) in &self.edges {
            builder
                .add_edge(NodeId(src), NodeId(dst), cost)
                .map_err(|e| e.to_string())?;
        }
        let platform: Platform = builder.build().map_err(|e| e.to_string())?;
        let commodities: Vec<Commodity> = self
            .commodities
            .iter()
            .map(|c| Commodity {
                source: NodeId(c.source),
                targets: c.targets.iter().map(|&t| NodeId(t)).collect(),
                demand: c.demand,
            })
            .collect();
        let set = CommoditySet::new(platform, commodities).map_err(|e| e.to_string())?;
        let base = set.instance(0);
        Ok((base, set.commodities().to_vec()))
    }

    /// FNV-1a fingerprint of the full shape (topology, bit-exact costs and
    /// demands, every commodity's endpoints) — the key of the per-shard
    /// template arena, disjoint from [`InstanceSpec::fingerprint`] by a
    /// domain-separating prefix.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_bytes(b"multi");
        h.write_u64(self.nodes as u64);
        for &(src, dst, cost) in &self.edges {
            h.write_u64(src as u64);
            h.write_u64(dst as u64);
            h.write_u64(cost.to_bits());
        }
        h.write_u64(self.commodities.len() as u64);
        for c in &self.commodities {
            h.write_u64(c.source as u64);
            h.write_u64(c.targets.len() as u64);
            for &t in &c.targets {
                h.write_u64(t as u64);
            }
            h.write_u64(c.demand.to_bits());
        }
        h.finish()
    }

    fn to_json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("nodes", Json::Num(self.nodes as f64)),
            (
                "edges",
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|&(s, d, c)| {
                            Json::Arr(vec![Json::Num(s as f64), Json::Num(d as f64), Json::Num(c)])
                        })
                        .collect(),
                ),
            ),
            (
                "commodities",
                Json::Arr(
                    self.commodities
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("source", Json::Num(c.source as f64)),
                                (
                                    "targets",
                                    Json::Arr(
                                        c.targets.iter().map(|&t| Json::Num(t as f64)).collect(),
                                    ),
                                ),
                                ("demand", Json::Num(c.demand)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]
    }

    fn from_json(v: &Json) -> Result<MultiSpec, String> {
        let nodes = field_u64(v, "nodes")? as usize;
        let edges = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("missing 'edges' array")?
            .iter()
            .map(|e| {
                let e = e
                    .as_arr()
                    .filter(|e| e.len() == 3)
                    .ok_or("bad edge triple")?;
                Ok((
                    e[0].as_u64().ok_or("bad edge src")? as u32,
                    e[1].as_u64().ok_or("bad edge dst")? as u32,
                    e[2].as_f64().ok_or("bad edge cost")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let commodities = v
            .get("commodities")
            .and_then(Json::as_arr)
            .ok_or("missing 'commodities' array")?
            .iter()
            .map(|c| {
                Ok(CommoditySpec {
                    source: field_u64(c, "source")? as u32,
                    targets: c
                        .get("targets")
                        .and_then(Json::as_arr)
                        .ok_or("missing commodity 'targets'")?
                        .iter()
                        .map(|t| t.as_u64().map(|t| t as u32).ok_or("bad target"))
                        .collect::<Result<Vec<_>, _>>()?,
                    demand: field_f64(c, "demand")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MultiSpec {
            nodes,
            edges,
            commodities,
        })
    }
}

/// FNV-1a, 64-bit. Used both for instance fingerprints and shard routing.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A client request. `id` is echoed on the response.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    CreateSession {
        id: u64,
        session: String,
        spec: InstanceSpec,
        /// Heuristic kinds whose formulation templates should be pre-built
        /// from the shard's shared arena (empty = build lazily on solve).
        kinds: Vec<HeuristicKind>,
    },
    SetEdgeCost {
        id: u64,
        session: String,
        edge: u32,
        cost: f64,
    },
    DisableNode {
        id: u64,
        session: String,
        node: u32,
    },
    EnableNode {
        id: u64,
        session: String,
        node: u32,
    },
    Solve {
        id: u64,
        session: String,
        kind: HeuristicKind,
    },
    ReRealize {
        id: u64,
        session: String,
        kind: HeuristicKind,
    },
    QuerySchedule {
        id: u64,
        session: String,
        kind: HeuristicKind,
    },
    StreamTransitionCosts {
        id: u64,
        session: String,
    },
    /// Creates a multi-commodity session: k concurrent demands jointly
    /// scheduled in one super-period (drift requests apply unchanged).
    CreateMultiSession {
        id: u64,
        session: String,
        spec: MultiSpec,
    },
    /// Joint steady-state solve of a multi-commodity session.
    SolveMulti {
        id: u64,
        session: String,
    },
    /// Realizes the joint solve as a single super-period schedule.
    ReRealizeMulti {
        id: u64,
        session: String,
    },
    DestroySession {
        id: u64,
        session: String,
    },
    Counters {
        id: u64,
    },
}

impl Request {
    /// The request id (echoed on every response).
    pub fn id(&self) -> u64 {
        match self {
            Request::CreateSession { id, .. }
            | Request::SetEdgeCost { id, .. }
            | Request::DisableNode { id, .. }
            | Request::EnableNode { id, .. }
            | Request::Solve { id, .. }
            | Request::ReRealize { id, .. }
            | Request::QuerySchedule { id, .. }
            | Request::StreamTransitionCosts { id, .. }
            | Request::CreateMultiSession { id, .. }
            | Request::SolveMulti { id, .. }
            | Request::ReRealizeMulti { id, .. }
            | Request::DestroySession { id, .. }
            | Request::Counters { id } => *id,
        }
    }

    /// The session this request routes to (`None` for server-wide requests).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::CreateSession { session, .. }
            | Request::SetEdgeCost { session, .. }
            | Request::DisableNode { session, .. }
            | Request::EnableNode { session, .. }
            | Request::Solve { session, .. }
            | Request::ReRealize { session, .. }
            | Request::QuerySchedule { session, .. }
            | Request::StreamTransitionCosts { session, .. }
            | Request::CreateMultiSession { session, .. }
            | Request::SolveMulti { session, .. }
            | Request::ReRealizeMulti { session, .. }
            | Request::DestroySession { session, .. } => Some(session),
            Request::Counters { .. } => None,
        }
    }

    /// Whether the request only buffers drift (edge/node churn) — these are
    /// acknowledged immediately and coalesced until the next barrier.
    pub fn is_drift(&self) -> bool {
        matches!(
            self,
            Request::SetEdgeCost { .. } | Request::DisableNode { .. } | Request::EnableNode { .. }
        )
    }

    /// Serializes to a single JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let fields = match self {
            Request::CreateSession {
                id,
                session,
                spec,
                kinds,
            } => {
                let mut fields = vec![
                    ("id", Json::Num(*id as f64)),
                    ("type", Json::str("create_session")),
                    ("session", Json::str(session)),
                ];
                fields.extend(spec.to_json_fields());
                fields.push((
                    "kinds",
                    Json::Arr(kinds.iter().map(|&k| Json::str(kind_key(k))).collect()),
                ));
                fields
            }
            Request::SetEdgeCost {
                id,
                session,
                edge,
                cost,
            } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("set_edge_cost")),
                ("session", Json::str(session)),
                ("edge", Json::Num(*edge as f64)),
                ("cost", Json::Num(*cost)),
            ],
            Request::DisableNode { id, session, node } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("disable_node")),
                ("session", Json::str(session)),
                ("node", Json::Num(*node as f64)),
            ],
            Request::EnableNode { id, session, node } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("enable_node")),
                ("session", Json::str(session)),
                ("node", Json::Num(*node as f64)),
            ],
            Request::Solve { id, session, kind } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("solve")),
                ("session", Json::str(session)),
                ("kind", Json::str(kind_key(*kind))),
            ],
            Request::ReRealize { id, session, kind } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("re_realize")),
                ("session", Json::str(session)),
                ("kind", Json::str(kind_key(*kind))),
            ],
            Request::QuerySchedule { id, session, kind } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("query_schedule")),
                ("session", Json::str(session)),
                ("kind", Json::str(kind_key(*kind))),
            ],
            Request::StreamTransitionCosts { id, session } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("stream_transition_costs")),
                ("session", Json::str(session)),
            ],
            Request::CreateMultiSession { id, session, spec } => {
                let mut fields = vec![
                    ("id", Json::Num(*id as f64)),
                    ("type", Json::str("create_multi_session")),
                    ("session", Json::str(session)),
                ];
                fields.extend(spec.to_json_fields());
                fields
            }
            Request::SolveMulti { id, session } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("solve_multi")),
                ("session", Json::str(session)),
            ],
            Request::ReRealizeMulti { id, session } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("re_realize_multi")),
                ("session", Json::str(session)),
            ],
            Request::DestroySession { id, session } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("destroy_session")),
                ("session", Json::str(session)),
            ],
            Request::Counters { id } => vec![
                ("id", Json::Num(*id as f64)),
                ("type", Json::str("counters")),
            ],
        };
        Json::obj(fields).emit()
    }

    /// Parses one request line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let id = field_u64(&v, "id")?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing 'type'")?;
        let session = || -> Result<String, String> {
            Ok(v.get("session")
                .and_then(Json::as_str)
                .ok_or("missing 'session'")?
                .to_string())
        };
        let kind = || -> Result<HeuristicKind, String> {
            let key = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing 'kind'")?;
            kind_from_key(key).ok_or_else(|| format!("unknown kind '{key}'"))
        };
        match ty {
            "create_session" => {
                let kinds = match v.get("kinds") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .as_arr()
                        .ok_or("'kinds' must be an array")?
                        .iter()
                        .map(|k| {
                            let key = k.as_str().ok_or("bad kind")?;
                            kind_from_key(key).ok_or(format!("unknown kind '{key}'"))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                Ok(Request::CreateSession {
                    id,
                    session: session()?,
                    spec: InstanceSpec::from_json(&v)?,
                    kinds,
                })
            }
            "set_edge_cost" => Ok(Request::SetEdgeCost {
                id,
                session: session()?,
                edge: field_u64(&v, "edge")? as u32,
                cost: v
                    .get("cost")
                    .and_then(Json::as_f64)
                    .ok_or("missing 'cost'")?,
            }),
            "disable_node" => Ok(Request::DisableNode {
                id,
                session: session()?,
                node: field_u64(&v, "node")? as u32,
            }),
            "enable_node" => Ok(Request::EnableNode {
                id,
                session: session()?,
                node: field_u64(&v, "node")? as u32,
            }),
            "solve" => Ok(Request::Solve {
                id,
                session: session()?,
                kind: kind()?,
            }),
            "re_realize" => Ok(Request::ReRealize {
                id,
                session: session()?,
                kind: kind()?,
            }),
            "query_schedule" => Ok(Request::QuerySchedule {
                id,
                session: session()?,
                kind: kind()?,
            }),
            "stream_transition_costs" => Ok(Request::StreamTransitionCosts {
                id,
                session: session()?,
            }),
            "create_multi_session" => Ok(Request::CreateMultiSession {
                id,
                session: session()?,
                spec: MultiSpec::from_json(&v)?,
            }),
            "solve_multi" => Ok(Request::SolveMulti {
                id,
                session: session()?,
            }),
            "re_realize_multi" => Ok(Request::ReRealizeMulti {
                id,
                session: session()?,
            }),
            "destroy_session" => Ok(Request::DestroySession {
                id,
                session: session()?,
            }),
            "counters" => Ok(Request::Counters { id }),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
}

/// One weighted multicast tree of a realized schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDesc {
    pub weight: f64,
    pub edges: Vec<u32>,
}

/// Wire form of a [`TransitionCost`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionDesc {
    pub drain_time: f64,
    pub first_delivery_latency: f64,
    pub switch_time: f64,
    pub multicasts_lost: f64,
    pub throughput_delta: f64,
    pub trees_kept: u64,
    pub trees_added: u64,
    pub trees_dropped: u64,
}

impl TransitionDesc {
    pub fn from_cost(t: &TransitionCost) -> TransitionDesc {
        TransitionDesc {
            drain_time: t.drain_time,
            first_delivery_latency: t.first_delivery_latency,
            switch_time: t.switch_time,
            multicasts_lost: t.multicasts_lost,
            throughput_delta: t.throughput_delta,
            trees_kept: t.trees_kept as u64,
            trees_added: t.trees_added as u64,
            trees_dropped: t.trees_dropped as u64,
        }
    }

    /// The transition as a JSON object, on the wire and in the drift,
    /// faults and multi artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("drain_time", Json::Num(self.drain_time)),
            (
                "first_delivery_latency",
                Json::Num(self.first_delivery_latency),
            ),
            ("switch_time", Json::Num(self.switch_time)),
            ("multicasts_lost", Json::Num(self.multicasts_lost)),
            ("throughput_delta", Json::Num(self.throughput_delta)),
            ("trees_kept", Json::Num(self.trees_kept as f64)),
            ("trees_added", Json::Num(self.trees_added as f64)),
            ("trees_dropped", Json::Num(self.trees_dropped as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<TransitionDesc, String> {
        Ok(TransitionDesc {
            drain_time: field_f64(v, "drain_time")?,
            first_delivery_latency: field_f64(v, "first_delivery_latency")?,
            switch_time: field_f64(v, "switch_time")?,
            multicasts_lost: field_f64(v, "multicasts_lost")?,
            throughput_delta: field_f64(v, "throughput_delta")?,
            trees_kept: field_u64(v, "trees_kept")?,
            trees_added: field_u64(v, "trees_added")?,
            trees_dropped: field_u64(v, "trees_dropped")?,
        })
    }
}

/// Aggregated server-wide counters (summed over shards on query).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub requests: u64,
    pub sessions_created: u64,
    pub sessions_destroyed: u64,
    pub sessions_live: u64,
    /// Drift requests admitted (before coalescing).
    pub drift_events: u64,
    /// Net writes actually applied to sessions at flush barriers.
    pub coalesced_writes: u64,
    /// Flush barriers executed.
    pub flushes: u64,
    /// Requests rejected at admission because a shard queue was full.
    pub shed: u64,
    pub template_builds: u64,
    pub template_hits: u64,
    pub solves: u64,
    pub realizations: u64,
    /// Joint multi-commodity solves (`solve_multi`).
    pub multi_solves: u64,
    /// Super-period realizations (`re_realize_multi`).
    pub multi_realizes: u64,
    pub degraded_solves: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// Shared per-shard packing-basis cache counters.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub compactions: u64,
    pub journal_entries_dropped: u64,
    pub errors: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.requests += o.requests;
        self.sessions_created += o.sessions_created;
        self.sessions_destroyed += o.sessions_destroyed;
        self.sessions_live += o.sessions_live;
        self.drift_events += o.drift_events;
        self.coalesced_writes += o.coalesced_writes;
        self.flushes += o.flushes;
        self.shed += o.shed;
        self.template_builds += o.template_builds;
        self.template_hits += o.template_hits;
        self.solves += o.solves;
        self.realizations += o.realizations;
        self.multi_solves += o.multi_solves;
        self.multi_realizes += o.multi_realizes;
        self.degraded_solves += o.degraded_solves;
        self.warm_hits += o.warm_hits;
        self.warm_misses += o.warm_misses;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.compactions += o.compactions;
        self.journal_entries_dropped += o.journal_entries_dropped;
        self.errors += o.errors;
    }

    /// Admitted drift events per net write applied (≥ 1.0; higher is more
    /// coalescing).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.coalesced_writes == 0 {
            if self.drift_events == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.drift_events as f64 / self.coalesced_writes as f64
        }
    }

    /// Packing-basis cache hit rate over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Warm-start hit rate of the per-session formulation bases.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("sessions_created", Json::Num(self.sessions_created as f64)),
            (
                "sessions_destroyed",
                Json::Num(self.sessions_destroyed as f64),
            ),
            ("sessions_live", Json::Num(self.sessions_live as f64)),
            ("drift_events", Json::Num(self.drift_events as f64)),
            ("coalesced_writes", Json::Num(self.coalesced_writes as f64)),
            ("flushes", Json::Num(self.flushes as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("template_builds", Json::Num(self.template_builds as f64)),
            ("template_hits", Json::Num(self.template_hits as f64)),
            ("solves", Json::Num(self.solves as f64)),
            ("realizations", Json::Num(self.realizations as f64)),
            ("multi_solves", Json::Num(self.multi_solves as f64)),
            ("multi_realizes", Json::Num(self.multi_realizes as f64)),
            ("degraded_solves", Json::Num(self.degraded_solves as f64)),
            ("warm_hits", Json::Num(self.warm_hits as f64)),
            ("warm_misses", Json::Num(self.warm_misses as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
            ("compactions", Json::Num(self.compactions as f64)),
            (
                "journal_entries_dropped",
                Json::Num(self.journal_entries_dropped as f64),
            ),
            ("errors", Json::Num(self.errors as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Counters, String> {
        Ok(Counters {
            requests: field_u64(v, "requests")?,
            sessions_created: field_u64(v, "sessions_created")?,
            sessions_destroyed: field_u64(v, "sessions_destroyed")?,
            sessions_live: field_u64(v, "sessions_live")?,
            drift_events: field_u64(v, "drift_events")?,
            coalesced_writes: field_u64(v, "coalesced_writes")?,
            flushes: field_u64(v, "flushes")?,
            shed: field_u64(v, "shed")?,
            template_builds: field_u64(v, "template_builds")?,
            template_hits: field_u64(v, "template_hits")?,
            solves: field_u64(v, "solves")?,
            realizations: field_u64(v, "realizations")?,
            multi_solves: field_u64(v, "multi_solves")?,
            multi_realizes: field_u64(v, "multi_realizes")?,
            degraded_solves: field_u64(v, "degraded_solves")?,
            warm_hits: field_u64(v, "warm_hits")?,
            warm_misses: field_u64(v, "warm_misses")?,
            cache_hits: field_u64(v, "cache_hits")?,
            cache_misses: field_u64(v, "cache_misses")?,
            cache_evictions: field_u64(v, "cache_evictions")?,
            compactions: field_u64(v, "compactions")?,
            journal_entries_dropped: field_u64(v, "journal_entries_dropped")?,
            errors: field_u64(v, "errors")?,
        })
    }
}

/// A server response (one JSON line).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Plain acknowledgement (creates, drift acks, destroys).
    Ok { id: u64 },
    /// Result of a `solve`.
    Solved {
        id: u64,
        kind: HeuristicKind,
        /// Achieved period; `f64::INFINITY` encodes as JSON `null`.
        period: f64,
        throughput: f64,
        degraded: bool,
    },
    /// Result of a `re_realize`.
    Realized {
        id: u64,
        kind: HeuristicKind,
        violations: u64,
        gap: f64,
        throughput: f64,
        trees: u64,
        transition: Option<TransitionDesc>,
    },
    /// Result of a `query_schedule`.
    Schedule {
        id: u64,
        kind: HeuristicKind,
        period: f64,
        throughput: f64,
        trees: Vec<TreeDesc>,
    },
    /// Drained transition-cost log entries for one session.
    Transitions {
        id: u64,
        entries: Vec<(HeuristicKind, TransitionDesc)>,
    },
    /// Result of a `solve_multi`: the joint super-unit period and every
    /// commodity's steady-state rate.
    MultiSolved {
        id: u64,
        /// Joint super-unit period `T*`; `f64::INFINITY` encodes as `null`.
        period: f64,
        /// Per-commodity steady-state rates `d_c / T*`.
        rates: Vec<f64>,
    },
    /// Result of a `re_realize_multi`.
    MultiRealized {
        id: u64,
        /// Certified super-period `P`; `f64::INFINITY` encodes as `null`.
        super_period: f64,
        /// One-port violations of the combined schedule's replay.
        violations: u64,
        /// `max_c |simulated_c − certified_c| / certified_c`.
        gap: f64,
        /// Per-commodity simulated rates of the super-period replay.
        rates: Vec<f64>,
        /// Per commodity: simulated rate within `1e-6` of its LP rate.
        rate_met: Vec<bool>,
        trees: u64,
        transition: Option<TransitionDesc>,
    },
    /// Aggregated counters.
    Counters { id: u64, counters: Counters },
    /// Request failed; the session (if any) is unchanged except as noted by
    /// the code.
    Error {
        id: u64,
        code: String,
        message: String,
    },
    /// Admission control rejected the request; retry later.
    Overloaded { id: u64 },
}

impl Response {
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id }
            | Response::Solved { id, .. }
            | Response::Realized { id, .. }
            | Response::Schedule { id, .. }
            | Response::Transitions { id, .. }
            | Response::MultiSolved { id, .. }
            | Response::MultiRealized { id, .. }
            | Response::Counters { id, .. }
            | Response::Error { id, .. }
            | Response::Overloaded { id } => *id,
        }
    }

    /// Serializes to a single JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Response::Ok { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("ack")),
            ]),
            Response::Solved {
                id,
                kind,
                period,
                throughput,
                degraded,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("solved")),
                ("kind", Json::str(kind_key(*kind))),
                ("period", Json::Num(*period)),
                ("throughput", Json::Num(*throughput)),
                ("degraded", Json::Bool(*degraded)),
            ]),
            Response::Realized {
                id,
                kind,
                violations,
                gap,
                throughput,
                trees,
                transition,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("realized")),
                ("kind", Json::str(kind_key(*kind))),
                ("violations", Json::Num(*violations as f64)),
                ("gap", Json::Num(*gap)),
                ("throughput", Json::Num(*throughput)),
                ("trees", Json::Num(*trees as f64)),
                (
                    "transition",
                    match transition {
                        Some(t) => t.to_json(),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Schedule {
                id,
                kind,
                period,
                throughput,
                trees,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("schedule")),
                ("kind", Json::str(kind_key(*kind))),
                ("period", Json::Num(*period)),
                ("throughput", Json::Num(*throughput)),
                (
                    "trees",
                    Json::Arr(
                        trees
                            .iter()
                            .map(|t| {
                                Json::obj(vec![
                                    ("weight", Json::Num(t.weight)),
                                    (
                                        "edges",
                                        Json::Arr(
                                            t.edges.iter().map(|&e| Json::Num(e as f64)).collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Transitions { id, entries } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("transitions")),
                (
                    "entries",
                    Json::Arr(
                        entries
                            .iter()
                            .map(|(k, t)| {
                                let mut obj = vec![("kind".to_string(), Json::str(kind_key(*k)))];
                                if let Json::Obj(fields) = t.to_json() {
                                    obj.extend(fields);
                                }
                                Json::Obj(obj)
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::MultiSolved { id, period, rates } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("multi_solved")),
                ("period", Json::Num(*period)),
                (
                    "rates",
                    Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect()),
                ),
            ]),
            Response::MultiRealized {
                id,
                super_period,
                violations,
                gap,
                rates,
                rate_met,
                trees,
                transition,
            } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("multi_realized")),
                ("super_period", Json::Num(*super_period)),
                ("violations", Json::Num(*violations as f64)),
                ("gap", Json::Num(*gap)),
                (
                    "rates",
                    Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect()),
                ),
                (
                    "rate_met",
                    Json::Arr(rate_met.iter().map(|&m| Json::Bool(m)).collect()),
                ),
                ("trees", Json::Num(*trees as f64)),
                (
                    "transition",
                    match transition {
                        Some(t) => t.to_json(),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Counters { id, counters } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("ok")),
                ("type", Json::str("counters")),
                ("counters", counters.to_json()),
            ]),
            Response::Error { id, code, message } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("error")),
                ("code", Json::str(code)),
                ("message", Json::str(message)),
            ]),
            Response::Overloaded { id } => Json::obj(vec![
                ("id", Json::Num(*id as f64)),
                ("status", Json::str("overloaded")),
            ]),
        };
        json.emit()
    }

    /// Parses one response line (driver-side well-formedness check).
    pub fn from_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line)?;
        let id = field_u64(&v, "id")?;
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or("missing 'status'")?;
        match status {
            "overloaded" => Ok(Response::Overloaded { id }),
            "error" => Ok(Response::Error {
                id,
                code: v
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or("missing 'code'")?
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("missing 'message'")?
                    .to_string(),
            }),
            "ok" => {
                let ty = v
                    .get("type")
                    .and_then(Json::as_str)
                    .ok_or("missing 'type'")?;
                let kind = || -> Result<HeuristicKind, String> {
                    let key = v
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or("missing 'kind'")?;
                    kind_from_key(key).ok_or_else(|| format!("unknown kind '{key}'"))
                };
                match ty {
                    "ack" => Ok(Response::Ok { id }),
                    "solved" => Ok(Response::Solved {
                        id,
                        kind: kind()?,
                        period: field_f64_or_inf(&v, "period")?,
                        throughput: field_f64(&v, "throughput")?,
                        degraded: v
                            .get("degraded")
                            .and_then(Json::as_bool)
                            .ok_or("missing 'degraded'")?,
                    }),
                    "realized" => Ok(Response::Realized {
                        id,
                        kind: kind()?,
                        violations: field_u64(&v, "violations")?,
                        gap: field_f64(&v, "gap")?,
                        throughput: field_f64(&v, "throughput")?,
                        trees: field_u64(&v, "trees")?,
                        transition: match v.get("transition") {
                            None | Some(Json::Null) => None,
                            Some(t) => Some(TransitionDesc::from_json(t)?),
                        },
                    }),
                    "schedule" => Ok(Response::Schedule {
                        id,
                        kind: kind()?,
                        period: field_f64_or_inf(&v, "period")?,
                        throughput: field_f64(&v, "throughput")?,
                        trees: v
                            .get("trees")
                            .and_then(Json::as_arr)
                            .ok_or("missing 'trees'")?
                            .iter()
                            .map(|t| {
                                Ok(TreeDesc {
                                    weight: field_f64(t, "weight")?,
                                    edges: t
                                        .get("edges")
                                        .and_then(Json::as_arr)
                                        .ok_or("missing 'edges'")?
                                        .iter()
                                        .map(|e| e.as_u64().map(|e| e as u32).ok_or("bad edge"))
                                        .collect::<Result<Vec<_>, _>>()?,
                                })
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                    }),
                    "transitions" => Ok(Response::Transitions {
                        id,
                        entries: v
                            .get("entries")
                            .and_then(Json::as_arr)
                            .ok_or("missing 'entries'")?
                            .iter()
                            .map(|e| {
                                let key =
                                    e.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
                                let k = kind_from_key(key)
                                    .ok_or_else(|| format!("unknown kind '{key}'"))?;
                                Ok((k, TransitionDesc::from_json(e)?))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                    }),
                    "multi_solved" => Ok(Response::MultiSolved {
                        id,
                        period: field_f64_or_inf(&v, "period")?,
                        rates: v
                            .get("rates")
                            .and_then(Json::as_arr)
                            .ok_or("missing 'rates'")?
                            .iter()
                            .map(|r| r.as_f64().ok_or("bad rate"))
                            .collect::<Result<Vec<_>, _>>()?,
                    }),
                    "multi_realized" => Ok(Response::MultiRealized {
                        id,
                        super_period: field_f64_or_inf(&v, "super_period")?,
                        violations: field_u64(&v, "violations")?,
                        gap: field_f64(&v, "gap")?,
                        rates: v
                            .get("rates")
                            .and_then(Json::as_arr)
                            .ok_or("missing 'rates'")?
                            .iter()
                            .map(|r| r.as_f64().ok_or("bad rate"))
                            .collect::<Result<Vec<_>, _>>()?,
                        rate_met: v
                            .get("rate_met")
                            .and_then(Json::as_arr)
                            .ok_or("missing 'rate_met'")?
                            .iter()
                            .map(|m| m.as_bool().ok_or("bad rate_met"))
                            .collect::<Result<Vec<_>, _>>()?,
                        trees: field_u64(&v, "trees")?,
                        transition: match v.get("transition") {
                            None | Some(Json::Null) => None,
                            Some(t) => Some(TransitionDesc::from_json(t)?),
                        },
                    }),
                    "counters" => Ok(Response::Counters {
                        id,
                        counters: Counters::from_json(
                            v.get("counters").ok_or("missing 'counters'")?,
                        )?,
                    }),
                    other => Err(format!("unknown response type '{other}'")),
                }
            }
            other => Err(format!("unknown status '{other}'")),
        }
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

/// Like [`field_f64`] but decodes JSON `null` as `f64::INFINITY` (the
/// emitter maps non-finite periods to `null`).
fn field_f64_or_inf(v: &Json, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Json::Null) => Ok(f64::INFINITY),
        Some(n) => n.as_f64().ok_or_else(|| format!("non-numeric '{key}'")),
        None => Err(format!("missing '{key}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_lines() {
        let spec = InstanceSpec {
            nodes: 4,
            edges: vec![(0, 1, 1.5), (1, 2, 2.0), (1, 3, 2.5)],
            source: 0,
            targets: vec![2, 3],
        };
        let reqs = vec![
            Request::CreateSession {
                id: 1,
                session: "t0".into(),
                spec: spec.clone(),
                kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
            },
            Request::SetEdgeCost {
                id: 2,
                session: "t0".into(),
                edge: 1,
                cost: 3.25,
            },
            Request::DisableNode {
                id: 3,
                session: "t0".into(),
                node: 1,
            },
            Request::EnableNode {
                id: 4,
                session: "t0".into(),
                node: 1,
            },
            Request::Solve {
                id: 5,
                session: "t0".into(),
                kind: HeuristicKind::Scatter,
            },
            Request::ReRealize {
                id: 6,
                session: "t0".into(),
                kind: HeuristicKind::Scatter,
            },
            Request::QuerySchedule {
                id: 7,
                session: "t0".into(),
                kind: HeuristicKind::Scatter,
            },
            Request::StreamTransitionCosts {
                id: 8,
                session: "t0".into(),
            },
            Request::CreateMultiSession {
                id: 9,
                session: "m0".into(),
                spec: MultiSpec {
                    nodes: 4,
                    edges: vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 1.0)],
                    commodities: vec![
                        CommoditySpec {
                            source: 0,
                            targets: vec![2, 3],
                            demand: 4.0,
                        },
                        CommoditySpec {
                            source: 2,
                            targets: vec![0],
                            demand: 1.0,
                        },
                    ],
                },
            },
            Request::SolveMulti {
                id: 10,
                session: "m0".into(),
            },
            Request::ReRealizeMulti {
                id: 11,
                session: "m0".into(),
            },
            Request::DestroySession {
                id: 12,
                session: "t0".into(),
            },
            Request::Counters { id: 13 },
        ];
        for req in reqs {
            let line = req.to_line();
            let back = Request::from_line(&line).unwrap();
            assert_eq!(back, req, "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip_through_lines() {
        let transition = TransitionDesc {
            drain_time: 1.0,
            first_delivery_latency: 2.0,
            switch_time: 3.0,
            multicasts_lost: 0.5,
            throughput_delta: -0.25,
            trees_kept: 1,
            trees_added: 2,
            trees_dropped: 0,
        };
        let resps = vec![
            Response::Ok { id: 1 },
            Response::Solved {
                id: 2,
                kind: HeuristicKind::Broadcast,
                period: 2.5,
                throughput: 0.4,
                degraded: false,
            },
            Response::Solved {
                id: 3,
                kind: HeuristicKind::Mcph,
                period: f64::INFINITY,
                throughput: 0.0,
                degraded: true,
            },
            Response::Realized {
                id: 4,
                kind: HeuristicKind::Scatter,
                violations: 0,
                gap: 0.01,
                throughput: 0.4,
                trees: 3,
                transition: Some(transition.clone()),
            },
            Response::Schedule {
                id: 5,
                kind: HeuristicKind::Scatter,
                period: 2.5,
                throughput: 0.4,
                trees: vec![TreeDesc {
                    weight: 0.4,
                    edges: vec![0, 2],
                }],
            },
            Response::Transitions {
                id: 6,
                entries: vec![(HeuristicKind::Scatter, transition.clone())],
            },
            Response::Counters {
                id: 7,
                counters: Counters {
                    requests: 12,
                    drift_events: 8,
                    coalesced_writes: 3,
                    ..Counters::default()
                },
            },
            Response::MultiSolved {
                id: 8,
                period: 6.5,
                rates: vec![0.615_384_615_384_615_4, 0.153_846_153_846_153_85],
            },
            Response::MultiRealized {
                id: 9,
                super_period: 6.5,
                violations: 0,
                gap: 0.0,
                rates: vec![0.615_384_615_384_615_4, 0.153_846_153_846_153_85],
                rate_met: vec![true, true],
                trees: 3,
                transition: Some(transition.clone()),
            },
            Response::Error {
                id: 10,
                code: "unreachable".into(),
                message: "target n3 unreachable".into(),
            },
            Response::Overloaded { id: 11 },
        ];
        for resp in resps {
            let line = resp.to_line();
            let back = Response::from_line(&line).unwrap();
            assert_eq!(back, resp, "line: {line}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_shapes() {
        let a = InstanceSpec {
            nodes: 3,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
            source: 0,
            targets: vec![2],
        };
        let mut b = a.clone();
        b.edges[1].2 = 2.0;
        let mut c = a.clone();
        c.targets = vec![1];
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn build_validates_the_spec() {
        let ok = InstanceSpec {
            nodes: 3,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
            source: 0,
            targets: vec![2],
        };
        assert!(ok.build().is_ok());
        let unreachable = InstanceSpec {
            nodes: 3,
            edges: vec![(0, 1, 1.0)],
            source: 0,
            targets: vec![2],
        };
        assert!(unreachable.build().is_err());
        let bad_cost = InstanceSpec {
            nodes: 2,
            edges: vec![(0, 1, -1.0)],
            source: 0,
            targets: vec![1],
        };
        assert!(bad_cost.build().is_err());
    }

    #[test]
    fn multi_spec_validates_and_fingerprints_demands() {
        let a = MultiSpec {
            nodes: 3,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
            commodities: vec![
                CommoditySpec {
                    source: 0,
                    targets: vec![1, 2],
                    demand: 1.0,
                },
                CommoditySpec {
                    source: 2,
                    targets: vec![0],
                    demand: 2.0,
                },
            ],
        };
        let (base, commodities) = a.build().unwrap();
        assert_eq!(base.source, NodeId(0));
        assert_eq!(commodities.len(), 2);

        // Demands are part of the shape: a skewed copy gets its own arena
        // entry.
        let mut skewed = a.clone();
        skewed.commodities[1].demand = 4.0;
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), skewed.fingerprint());

        // An unreachable commodity target is rejected at build time.
        let mut unreachable = a.clone();
        unreachable.edges.pop();
        assert!(unreachable.build().is_err());

        // A non-positive demand is rejected at build time.
        let mut bad_demand = a.clone();
        bad_demand.commodities[0].demand = 0.0;
        assert!(bad_demand.build().is_err());
    }
}
