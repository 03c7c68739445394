//! The timing `Protocol` decorator: wraps an algorithm from
//! `cq_engine::protocol_for` and counts calls and busy time per handler.
//! Installed through `Network::with_protocol` in the traced run only.
//!
//! Handlers never call one another (their sends are deferred effects the
//! network flushes after the handler returns), so each handler's busy time
//! is its self time.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cq_engine::{EngineError, NodeCtx, Protocol, ValueJoin};
use cq_overlay::Id;
use cq_relational::{JoinQuery, QueryRef, RewrittenQuery, Side, Tuple};

/// Handler names, in counter order.
pub const HANDLERS: [&str; 6] = [
    "pose",
    "publish",
    "tuple_arrival",
    "value_tuple",
    "rewritten_query",
    "join_v",
];

/// Calls and busy nanoseconds of each handler in [`HANDLERS`] order.
pub type Counts = [(u64, u64); 6];

/// A protocol that forwards to `inner` and times every handler.
pub struct Timed {
    inner: Arc<dyn Protocol>,
    // Statistics only: they publish no other data, so `Relaxed` suffices.
    calls: [AtomicU64; 6],
    busy_ns: [AtomicU64; 6],
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Protocol>) -> Arc<Timed> {
        Arc::new(Timed {
            inner,
            calls: Default::default(),
            busy_ns: Default::default(),
        })
    }

    /// The counts so far.
    pub fn counts(&self) -> Counts {
        std::array::from_fn(|i| {
            (
                self.calls[i].load(Ordering::Relaxed),
                self.busy_ns[i].load(Ordering::Relaxed),
            )
        })
    }

    fn time<T>(&self, i: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[i].fetch_add(ns, Ordering::Relaxed);
        out
    }
}

type Result<T> = std::result::Result<T, EngineError>;

impl Protocol for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn validate_query(&self, query: &JoinQuery) -> Result<()> {
        self.inner.validate_query(query)
    }

    fn index_attr<'q>(
        &self,
        ctx: &mut NodeCtx<'_>,
        query: &'q JoinQuery,
        side: Side,
    ) -> Cow<'q, str> {
        self.inner.index_attr(ctx, query, side)
    }

    fn on_pose_query(&self, ctx: &mut NodeCtx<'_>, query: &QueryRef) -> Result<()> {
        self.time(0, || self.inner.on_pose_query(ctx, query))
    }

    fn on_publish_tuple(&self, ctx: &mut NodeCtx<'_>, tuple: &Arc<Tuple>) -> Result<()> {
        self.time(1, || self.inner.on_publish_tuple(ctx, tuple))
    }

    fn on_tuple_arrival(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        self.time(2, || {
            self.inner.on_tuple_arrival(ctx, tuple, attr, index_id)
        })
    }

    fn on_value_tuple(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        self.time(3, || self.inner.on_value_tuple(ctx, tuple, attr, index_id))
    }

    fn on_rewritten_query(
        &self,
        ctx: &mut NodeCtx<'_>,
        items: Vec<RewrittenQuery>,
        index_id: Id,
    ) -> Result<()> {
        self.time(4, || self.inner.on_rewritten_query(ctx, items, index_id))
    }

    fn on_join_message(&self, ctx: &mut NodeCtx<'_>, join: ValueJoin) -> Result<()> {
        self.time(5, || self.inner.on_join_message(ctx, join))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{self, Setup};
    use crate::gen::{spec, Inputs, Spec};
    use cq_engine::{Algorithm, Metrics, TrafficKind};

    fn fingerprint(m: &Metrics) -> Vec<u64> {
        let mut v: Vec<u64> = TrafficKind::ALL
            .iter()
            .flat_map(|&k| [m.traffic(k).messages, m.traffic(k).hops])
            .collect();
        v.extend([
            m.notifications_delivered,
            m.notifications_stored_offline,
            m.total_filtering(),
        ]);
        v.extend(m.loads().iter().map(|l| l.filtering()));
        v
    }

    #[test]
    fn decorated_runs_deliver_and_count_exactly_as_undecorated() {
        for name in ["paper-skew", "churn-lossy"] {
            let base = spec(name).unwrap();
            let spec = Spec {
                nodes: 64,
                initial_queries: 10,
                tuples: 50,
                algorithms: &Algorithm::ALL,
                ..base.clone()
            };
            let inputs = Inputs::generate(&spec, 11);
            for &alg in spec.algorithms {
                let plain = drive::run(&Setup::plain(&spec, alg, 11), &inputs);
                let timed = Timed::new(cq_engine::protocol_for(alg));
                let setup = Setup {
                    timed: Some(timed.clone()),
                    ..Setup::plain(&spec, alg, 11)
                };
                let decorated = drive::run(&setup, &inputs);
                assert_eq!(
                    plain.net.delivered_set(),
                    decorated.net.delivered_set(),
                    "{name} {alg}"
                );
                assert_eq!(
                    fingerprint(plain.net.metrics()),
                    fingerprint(decorated.net.metrics()),
                    "{name} {alg}"
                );
                assert_eq!(plain.net.metrics().faults, decorated.net.metrics().faults);
                assert_eq!(
                    plain.net.metrics().recovery,
                    decorated.net.metrics().recovery
                );
                let counts = timed.counts();
                assert_eq!(
                    counts[1].0,
                    inputs.publishes() as u64,
                    "one publish call per tuple"
                );
                assert!(counts[0].0 >= spec.initial_queries as u64);
            }
        }
    }
}
