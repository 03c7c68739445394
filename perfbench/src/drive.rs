//! Drives one network through generated inputs as a closed loop with one
//! driver: each `pose_query_sql`/`insert_tuple` call blocks until the
//! network is quiescent, and the next call starts only after it returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, IndexStrategy, Metrics, Network, Protocol, SocketStats,
    SuspicionConfig, TraceSink,
};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

use crate::gen::{Inputs, Op, Spec};
use crate::timing::{Counts, Timed};

/// Everything that selects how one network is built.
pub struct Setup<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The engine seed (the workload seed).
    pub seed: u64,
    /// Run over TCP loopback (`spec.tcp` unless overridden).
    pub tcp: bool,
    /// Wrap the algorithm in the timing decorator (traced run only).
    pub timed: Option<Arc<Timed>>,
    /// A trace sink to install before the first query.
    pub tracer: Option<Arc<dyn TraceSink>>,
}

impl<'a> Setup<'a> {
    /// The untraced, undecorated set-up of `spec`.
    pub fn plain(spec: &'a Spec, algorithm: Algorithm, seed: u64) -> Self {
        Setup {
            spec,
            algorithm,
            seed,
            tcp: spec.tcp,
            timed: None,
            tracer: None,
        }
    }
}

/// The paper's two-relation catalog: `R0` and `R1`, four int attributes.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for r in ["R0", "R1"] {
        let attrs = [
            ("A0", DataType::Int),
            ("A1", DataType::Int),
            ("A2", DataType::Int),
            ("A3", DataType::Int),
        ];
        c.register(RelationSchema::of(r, &attrs).expect("distinct attributes"))
            .expect("distinct relations");
    }
    c
}

/// The engine configuration of one workload and algorithm: JFRT on, the
/// lowest-rate strategy, notification bodies retained for the check.
pub fn config(spec: &Spec, algorithm: Algorithm, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(algorithm)
        .with_nodes(spec.nodes)
        .with_jfrt(true)
        .with_strategy(IndexStrategy::LowestRate)
        .with_retained_notifications(true)
        .with_seed(seed);
    if spec.churn {
        let mut fault = FaultConfig::lossy(0.1, seed ^ 0xEF02);
        fault.replication = 2;
        cfg = cfg.with_fault(fault).with_suspicion(
            SuspicionConfig::active()
                .with_suspect_after(12)
                .with_confirm_after(12),
        );
    }
    cfg
}

/// What one network's run measured.
pub struct Outcome {
    /// The network after the run (for checks and table sizes).
    pub net: Network,
    /// Ring and `Network` build, TCP bind and the initial query install.
    pub setup: Duration,
    /// Latency of every `pose_query_sql` call, install and stream, in ns.
    pub pose_ns: Vec<u64>,
    /// Latency of every `insert_tuple` call, in ns.
    pub publish_ns: Vec<u64>,
    /// Wall time of the stream (publishes, stream poses and failures).
    pub stream: Duration,
    /// Wall time of the final `settle()`.
    pub settle: Duration,
    /// Pose, publish and settle calls made.
    pub calls: u64,
    /// Of those, calls that returned `Err`.
    pub errors: u64,
    /// Metrics at the end of the install, so stream deltas can be taken.
    pub installed: Metrics,
    /// Timing-decorator counts at the end of the install (zero untimed).
    pub handlers_installed: Counts,
    /// Socket statistics of the stream phase (TCP only).
    pub socket: Option<SocketStats>,
}

impl Outcome {
    /// Traffic (messages, hops) of the stream phase.
    pub fn stream_traffic(&self) -> (u64, u64) {
        let (a, b) = (
            self.net.metrics().total_traffic(),
            self.installed.total_traffic(),
        );
        (a.messages - b.messages, a.hops - b.hops)
    }
}

fn values(v: &[i64; 4]) -> Vec<Value> {
    v.iter().map(|&x| Value::Int(x)).collect()
}

/// Builds the network of `setup` and drives `inputs` through it.
pub fn run(setup: &Setup<'_>, inputs: &Inputs) -> Outcome {
    let mut calls = 0u64;
    let mut errors = 0u64;
    let mut pose_ns = Vec::with_capacity(inputs.install.len() + inputs.stream.len() / 4);
    let mut publish_ns = Vec::with_capacity(inputs.stream.len());

    let start = Instant::now();
    let cfg = config(setup.spec, setup.algorithm, setup.seed);
    let protocol: Arc<dyn Protocol> = match &setup.timed {
        Some(t) => t.clone(),
        None => cq_engine::protocol_for(setup.algorithm),
    };
    let mut net = Network::with_protocol(cfg, catalog(), protocol);
    if setup.tcp {
        calls += 1;
        if net.enable_tcp_transport().is_err() {
            errors += 1;
        }
    }
    if let Some(t) = &setup.tracer {
        net.set_tracer(Arc::clone(t));
    }
    for op in &inputs.install {
        apply(
            &mut net,
            op,
            &mut pose_ns,
            &mut publish_ns,
            &mut calls,
            &mut errors,
        );
    }
    let setup_time = start.elapsed();
    let installed = net.metrics().clone();
    let handlers_installed = setup.timed.as_ref().map(|t| t.counts()).unwrap_or_default();
    // Reset the socket counters so the stream's figures stand alone.
    let _ = net.take_socket_stats();

    let start = Instant::now();
    for op in &inputs.stream {
        apply(
            &mut net,
            op,
            &mut pose_ns,
            &mut publish_ns,
            &mut calls,
            &mut errors,
        );
    }
    let stream = start.elapsed();
    let socket = net.take_socket_stats();

    let start = Instant::now();
    calls += 1;
    if net.settle().is_err() {
        errors += 1;
    }
    let settle = start.elapsed();
    Outcome {
        net,
        setup: setup_time,
        pose_ns,
        publish_ns,
        stream,
        settle,
        calls,
        errors,
        installed,
        handlers_installed,
        socket,
    }
}

fn apply(
    net: &mut Network,
    op: &Op,
    pose_ns: &mut Vec<u64>,
    publish_ns: &mut Vec<u64>,
    calls: &mut u64,
    errors: &mut u64,
) {
    let alive = net.alive_count();
    match op {
        Op::Pose { node, sql } => {
            let h = net.node_at(node % alive);
            let t = Instant::now();
            let r = net.pose_query_sql(h, sql);
            pose_ns.push(t.elapsed().as_nanos() as u64);
            *calls += 1;
            *errors += u64::from(r.is_err());
        }
        Op::Publish {
            node,
            relation,
            values: v,
        } => {
            let h = net.node_at(node % alive);
            let vals = values(v);
            let t = Instant::now();
            let r = net.insert_tuple(h, relation, vals);
            publish_ns.push(t.elapsed().as_nanos() as u64);
            *calls += 1;
            *errors += u64::from(r.is_err());
        }
        Op::Fail { node } => {
            let h = net.node_at(node % alive);
            *errors += u64::from(net.node_fail(h).is_err());
            *calls += 1;
        }
    }
}
