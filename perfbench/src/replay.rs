//! Layer replays: time one layer's public API on inputs taken from a traced
//! run, outside the engine's message loop.
//!
//! * overlay — `Ring::route` over the recorded (from, target) pairs of
//!   identifier-routed sends;
//! * relational — `parse_query` over the run's posed SQL;
//! * wire — `encode_message`/`decode_message` over messages rebuilt from the
//!   run's own tuples, rewritten queries and notifications, weighted by the
//!   recorded kind mix. Every replayed message must decode back to its
//!   source: re-encoding the decoded message gives the same bytes and the
//!   same `Debug` form.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cq_engine::tables::StoredQuery;
use cq_engine::wire::{decode_message, encode_message};
use cq_engine::{Message, Network, ReplicaItem, TrafficKind, ValueJoin};
use cq_overlay::{Id, NodeHandle, Ring};
use cq_relational::{parse_query, Catalog, Notification, RewrittenQuery, Side};

use crate::recorder::Send;

/// Each replay repeats its inputs until it has run at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(20);

/// Repeats `pass` until `MIN_REPLAY` has elapsed; returns (passes, time).
fn time_box(mut pass: impl FnMut()) -> (u64, Duration) {
    let start = Instant::now();
    let mut passes = 0;
    loop {
        pass();
        passes += 1;
        let t = start.elapsed();
        if t >= MIN_REPLAY {
            return (passes, t);
        }
    }
}

/// Kinds sent toward an identifier; the rest go to a known node directly.
const ROUTED: [&str; 6] = [
    "query",
    "al-index",
    "vl-index",
    "join",
    "join-v",
    "store-notify",
];

/// Overlay replay result.
#[derive(Clone, Copy, Debug, Default)]
pub struct Routes {
    /// Routes replayed (per pass).
    pub routes: u64,
    /// Overlay hops of one pass.
    pub hops: u64,
    /// Nanoseconds per route.
    pub route_ns: f64,
}

/// Replays `Ring::route` over the recorded identifier-routed sends whose
/// sender is still alive in `ring`.
pub fn overlay(ring: &Ring, sends: &[Send]) -> Routes {
    let pairs: Vec<(NodeHandle, Id)> = sends
        .iter()
        .filter(|s| ROUTED.contains(&s.kind))
        .map(|s| (NodeHandle::from_index(s.from as usize), s.target))
        .filter(|(h, _)| ring.node(*h).is_alive())
        .collect();
    if pairs.is_empty() {
        return Routes::default();
    }
    let mut hops = 0u64;
    for &(from, target) in &pairs {
        if let Ok(r) = ring.route(from, target) {
            hops += r.path.len() as u64 - 1;
        }
    }
    let (passes, t) = time_box(|| {
        for &(from, target) in &pairs {
            let _ = black_box(ring.route(black_box(from), black_box(target)));
        }
    });
    Routes {
        routes: pairs.len() as u64,
        hops,
        route_ns: t.as_nanos() as f64 / (passes * pairs.len() as u64) as f64,
    }
}

/// Microseconds per `parse_query` over `sqls`, and how many failed.
pub fn relational(catalog: &Catalog, sqls: &[&str]) -> (f64, u64) {
    if sqls.is_empty() {
        return (0.0, 0);
    }
    let failed = sqls
        .iter()
        .filter(|s| parse_query(s, catalog).is_err())
        .count() as u64;
    let (passes, t) = time_box(|| {
        for s in sqls {
            let _ = black_box(parse_query(black_box(s), catalog));
        }
    });
    (
        t.as_secs_f64() * 1e6 / (passes * sqls.len() as u64) as f64,
        failed,
    )
}

/// Wire replay totals, accumulated over kinds (and algorithms), each kind
/// weighted by how many sends of it the traced run recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    /// Recorded sends of the kinds the replay could rebuild (the weight).
    pub weight: f64,
    /// Σ weight × mean encode ns.
    pub encode_ns: f64,
    /// Σ weight × mean decode ns.
    pub decode_ns: f64,
    /// Σ weight × mean frame bytes.
    pub bytes: f64,
    /// Messages rebuilt and checked.
    pub checked: u64,
    /// Rebuilt messages that did not decode back to their source.
    pub mismatches: u64,
}

impl Wire {
    /// Weighted mean encode ns per message.
    pub fn encode_ns(&self) -> f64 {
        crate::stats::ratio(self.encode_ns, self.weight)
    }

    /// Weighted mean decode ns per message.
    pub fn decode_ns(&self) -> f64 {
        crate::stats::ratio(self.decode_ns, self.weight)
    }

    /// Weighted mean frame bytes per message.
    pub fn bytes_per_msg(&self) -> f64 {
        crate::stats::ratio(self.bytes, self.weight)
    }
}

/// Messages rebuilt per kind.
const SAMPLES: usize = 256;

/// Rebuilds up to [`SAMPLES`] messages of `kind` from `net`'s own state.
fn rebuild(net: &Network, kind: &str) -> Vec<Message> {
    let queries = net.posed_queries();
    let tuples = net.inserted_tuples();
    let id = |i: usize| Id((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let notifications = || -> Vec<Notification> {
        (0..net.ring().slot_count())
            .flat_map(|i| net.inbox(NodeHandle::from_index(i)).iter().cloned())
            .take(SAMPLES * 16)
            .collect()
    };
    // Notifications travel in per-subscriber batches; use the run's mean
    // batch size.
    let batch = || {
        let m = net.metrics();
        let msgs = m.traffic(TrafficKind::Notify).messages.max(1);
        ((m.notifications_delivered / msgs) as usize).clamp(1, 16)
    };
    match kind {
        "query" => queries
            .iter()
            .take(SAMPLES)
            .enumerate()
            .map(|(i, q)| Message::IndexQuery {
                query: Arc::clone(q),
                index_side: Side::Left,
                index_attr: q.join_attr(Side::Left).unwrap_or("A0").to_string(),
                index_id: id(i),
            })
            .collect(),
        "al-index" | "vl-index" => tuples
            .iter()
            .take(SAMPLES)
            .enumerate()
            .map(|(i, t)| {
                let (tuple, attr, index_id) = (Arc::clone(t), "A0".to_string(), id(i));
                if kind == "al-index" {
                    Message::AlIndexTuple {
                        tuple,
                        attr,
                        index_id,
                    }
                } else {
                    Message::VlIndexTuple {
                        tuple,
                        attr,
                        index_id,
                    }
                }
            })
            .collect(),
        "join" | "join-v" => {
            // One message per (tuple, query group): the group's rewritings
            // of that tuple, as a rewriter reindexes them.
            let mut out = Vec::new();
            for (i, t) in tuples.iter().enumerate() {
                let mut groups: BTreeMap<String, Vec<RewrittenQuery>> = BTreeMap::new();
                for q in queries
                    .iter()
                    .filter(|q| q.relation(Side::Left) == t.relation())
                {
                    if let Ok(Some(rq)) = RewrittenQuery::rewrite_value(q, Side::Left, t) {
                        groups.entry(q.group_key()).or_default().push(rq);
                    }
                }
                for (group, items) in groups {
                    let msg = if kind == "join" {
                        Message::Join {
                            items,
                            index_id: id(i),
                        }
                    } else {
                        Message::JoinV(ValueJoin {
                            value_key: t.canonical_at(0).to_string(),
                            group,
                            items,
                            tuple: Arc::clone(t),
                            side: Side::Left,
                            index_id: id(i),
                        })
                    };
                    out.push(msg);
                    if out.len() == SAMPLES {
                        return out;
                    }
                }
            }
            out
        }
        "notify" | "store-notify" => notifications()
            .chunks(batch())
            .take(SAMPLES)
            .enumerate()
            .map(|(i, c)| {
                if kind == "notify" {
                    Message::Notify {
                        notifications: c.to_vec(),
                    }
                } else {
                    Message::StoreNotifications {
                        subscriber_id: id(i),
                        notifications: c.to_vec(),
                    }
                }
            })
            .collect(),
        "replicate" => queries
            .iter()
            .map(|q| {
                ReplicaItem::Query(StoredQuery {
                    index_id: id(1),
                    query: Arc::clone(q),
                    index_side: Side::Right,
                    index_attr: q.join_attr(Side::Right).unwrap_or("A0").to_string(),
                })
            })
            .chain(notifications().into_iter().map(|n| ReplicaItem::Offline {
                id: id(0),
                notification: n,
            }))
            .take(SAMPLES)
            .map(|item| Message::Replicate {
                item: Box::new(item),
            })
            .collect(),
        "ping" | "pong" => (0..SAMPLES as u64)
            .map(|seq| {
                let from = (seq % 64) as u32;
                if kind == "ping" {
                    Message::Ping { from, seq }
                } else {
                    Message::Pong { from, seq }
                }
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Replays the codec over messages rebuilt from `net`, weighting each kind
/// by its count in `mix`, and adds the result to `acc`.
pub fn wire(net: &Network, mix: &BTreeMap<&'static str, u64>, acc: &mut Wire) {
    let catalog = net.catalog();
    for (&kind, &count) in mix {
        let msgs = rebuild(net, kind);
        if msgs.is_empty() {
            continue;
        }
        let mut frames = Vec::with_capacity(msgs.len());
        for m in &msgs {
            let mut buf = Vec::new();
            encode_message(m, &mut buf);
            acc.checked += 1;
            if !decodes_to_source(m, &buf, catalog) {
                acc.mismatches += 1;
            }
            frames.push(buf);
        }
        let total_bytes: usize = frames.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(total_bytes);
        let (passes, t_enc) = time_box(|| {
            buf.clear();
            for m in &msgs {
                encode_message(black_box(m), &mut buf);
            }
            black_box(&buf);
        });
        let enc = t_enc.as_nanos() as f64 / (passes * msgs.len() as u64) as f64;
        let (passes, t_dec) = time_box(|| {
            for f in &frames {
                let _ = black_box(decode_message(black_box(f), catalog));
            }
        });
        let dec = t_dec.as_nanos() as f64 / (passes * msgs.len() as u64) as f64;
        let w = count as f64;
        acc.weight += w;
        acc.encode_ns += w * enc;
        acc.decode_ns += w * dec;
        acc.bytes += w * total_bytes as f64 / msgs.len() as f64;
    }
}

fn decodes_to_source(src: &Message, frame: &[u8], catalog: &Catalog) -> bool {
    let Ok((decoded, used)) = decode_message(frame, catalog) else {
        return false;
    };
    let mut again = Vec::new();
    encode_message(&decoded, &mut again);
    used == frame.len() && again == frame && format!("{decoded:?}") == format!("{src:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{self, Setup};
    use crate::gen::{spec, Inputs, Spec};
    use crate::recorder::{kind_mix, Recorder};
    use cq_engine::{Algorithm, TraceSink};

    #[test]
    fn every_replayed_message_decodes_to_its_source() {
        for name in ["paper-skew", "churn-lossy"] {
            let spec = Spec {
                nodes: 64,
                initial_queries: 12,
                tuples: 40,
                ..spec(name).unwrap().clone()
            };
            let inputs = Inputs::generate(&spec, 9);
            for alg in Algorithm::ALL {
                let rec = Arc::new(Recorder::default());
                let setup = Setup {
                    tracer: Some(Arc::clone(&rec) as Arc<dyn TraceSink>),
                    ..Setup::plain(&spec, alg, 9)
                };
                let out = drive::run(&setup, &inputs);
                let sends = rec.take();
                let mix = kind_mix(&sends);
                for kind in mix.keys() {
                    assert!(!rebuild(&out.net, kind).is_empty(), "{name} {alg}: {kind}");
                }
                let mut acc = Wire::default();
                wire(&out.net, &mix, &mut acc);
                assert!(acc.checked > 0, "{name} {alg}");
                assert_eq!(acc.mismatches, 0, "{name} {alg}");
                let routes = overlay(out.net.ring(), &sends);
                assert!(routes.routes > 0 && routes.hops > 0, "{name} {alg}");
            }
        }
    }

    #[test]
    fn parse_replay_parses_generated_queries() {
        let sql = ["SELECT R0.A1, R1.A2 FROM R0, R1 WHERE R0.A0 = R1.A3"];
        let (us, failed) = relational(&crate::drive::catalog(), &sql);
        assert_eq!(failed, 0);
        assert!(us > 0.0);
    }
}
