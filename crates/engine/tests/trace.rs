//! The structured tracing layer observed end to end: trace files that
//! reproduce the in-memory event stream in both formats, causal ordering
//! invariants, and DAI-V's two-phase value-hop path reconstructed event by
//! event from the trace alone.

use std::sync::Arc;

use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, FileSink, Network, RingBufferSink, TeeSink, TraceEvent,
    TraceFormat,
};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("D", DataType::Int), ("E", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn stream(net: &mut Network) {
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    for i in 0..8i64 {
        net.insert_tuple(
            net.node_at((i % 16) as usize),
            "R",
            vec![Value::Int(i), Value::Int(i % 3)],
        )
        .unwrap();
        net.insert_tuple(
            net.node_at(((i + 5) % 16) as usize),
            "S",
            vec![Value::Int(i), Value::Int(i % 2)],
        )
        .unwrap();
    }
}

/// Stream-order invariants every trace must satisfy: a message is sent
/// before it is delivered (per `MsgId`), and notifications are only ever
/// delivered after join evaluations produced at least that many matches.
fn check_ordering(events: &[TraceEvent], context: &str) {
    let mut sent = std::collections::HashSet::new();
    let mut matches_so_far = 0u64;
    let mut delivered_so_far = 0u64;
    let mut notify_events = 0u64;
    for ev in events {
        match ev {
            TraceEvent::MsgSend { id, .. } => {
                sent.insert(*id);
            }
            TraceEvent::MsgDeliver { id, .. } => {
                assert!(sent.contains(id), "{context}: deliver of unsent {id:?}");
            }
            TraceEvent::JoinEval { matches, .. } => matches_so_far += matches,
            TraceEvent::NotifyDelivered { count, .. } => {
                delivered_so_far += count;
                notify_events += 1;
                assert!(
                    delivered_so_far <= matches_so_far,
                    "{context}: {delivered_so_far} notifications delivered but only \
                     {matches_so_far} join matches produced so far — delivery without \
                     a causal join event"
                );
            }
            _ => {}
        }
    }
    assert!(
        notify_events > 0,
        "{context}: workload must deliver matches"
    );
}

#[test]
fn ordering_invariants_hold_for_every_algorithm_under_faults() {
    for alg in Algorithm::ALL {
        let ring = Arc::new(RingBufferSink::new(1 << 20));
        let mut net = Network::new(
            EngineConfig::new(alg)
                .with_nodes(16)
                .with_seed(7)
                .with_fault(FaultConfig::lossy(0.15, 99)),
            catalog(),
        );
        net.set_tracer(ring.clone());
        stream(&mut net);
        let events = ring.events();
        assert!(
            events.iter().any(|e| e.kind() == "fault-drop"),
            "{alg}: the lossy profile must surface fault decisions in the trace"
        );
        check_ordering(&events, &format!("{alg} lossy"));
    }
}

/// Runs the lossy DAI-Q workload with a [`RingBufferSink`] and one
/// [`FileSink`] per `formats` entry teed together, and returns the
/// in-memory events plus each file's bytes.
fn traced_run(name: &str, formats: &[TraceFormat]) -> (Vec<TraceEvent>, Vec<Vec<u8>>) {
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let paths: Vec<_> = formats
        .iter()
        .map(|f| {
            std::env::temp_dir().join(format!(
                "cq-trace-{name}-{}.{}",
                std::process::id(),
                f.extension()
            ))
        })
        .collect();
    let files: Vec<Arc<FileSink>> = paths
        .iter()
        .zip(formats)
        .map(|(p, f)| Arc::new(FileSink::create(p, *f).unwrap()))
        .collect();
    let mut sinks: Vec<Arc<dyn cq_engine::TraceSink>> = vec![ring.clone()];
    sinks.extend(
        files
            .iter()
            .map(|f| f.clone() as Arc<dyn cq_engine::TraceSink>),
    );
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiQ)
            .with_nodes(16)
            .with_seed(7)
            .with_fault(FaultConfig::lossy(0.15, 99)),
        catalog(),
    );
    net.set_tracer(Arc::new(TeeSink::new(sinks)));
    stream(&mut net);
    let bytes = files
        .iter()
        .zip(&paths)
        .map(|(f, p)| {
            f.flush().unwrap();
            let b = std::fs::read(p).unwrap();
            std::fs::remove_file(p).ok();
            b
        })
        .collect();
    (ring.events(), bytes)
}

#[test]
fn jsonl_file_round_trips_the_in_memory_event_stream() {
    let (events, files) = traced_run("roundtrip", &[TraceFormat::Jsonl]);
    let text = String::from_utf8(files[0].clone()).unwrap();
    // The file is a faithful rendering: line i is exactly the JSONL of the
    // i-th event the in-memory sink saw.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, ev) in lines.iter().zip(&events) {
        let mut want = String::new();
        ev.to_jsonl(&mut want);
        assert_eq!(*line, want);
    }
    check_ordering(&events, "traced run");
}

#[test]
fn binary_trace_dumps_back_to_byte_identical_jsonl() {
    // The same run streams into a JSONL file and a binary file; decoding
    // the binary file the way `trace_dump` does yields exactly the events
    // the in-memory sink saw, and re-serializing them with `to_jsonl`
    // reproduces the JSONL file byte for byte — the writer's batching is
    // invisible on disk.
    let (events, files) = traced_run("bin-rt", &[TraceFormat::Jsonl, TraceFormat::Binary]);
    let expected = String::from_utf8(files[0].clone()).unwrap();
    let bytes = &files[1];
    assert!(!bytes.is_empty(), "binary trace must not be empty");

    let mut decoded = Vec::with_capacity(events.len());
    let mut dumped = String::with_capacity(expected.len());
    let mut pos = 0usize;
    while pos < bytes.len() {
        let (ev, used) = cq_engine::wire::decode_trace_event(&bytes[pos..])
            .unwrap_or_else(|e| panic!("bad frame at byte {pos}: {e}"));
        pos += used;
        ev.to_jsonl(&mut dumped);
        dumped.push('\n');
        decoded.push(ev);
    }
    assert_eq!(
        decoded, events,
        "binary file diverged from the event stream"
    );
    assert!(
        dumped == expected,
        "binary round-trip diverged from the JSONL file"
    );
}

#[test]
fn dai_v_two_phase_value_hop_path_is_visible_event_by_event() {
    // DAI-V ships a tuple to its attribute rewriter first (phase 1,
    // `al-index`), which rewrites to a value target and forwards a combined
    // `join-v` message to the evaluator (phase 2). The trace must show the
    // full causal chain: al-index deliver at X → join-v send *from* X with
    // its hop path → join-v deliver at Y → join evaluation at Y → and once
    // the other side arrives, a matched evaluation followed by an online
    // notification.
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(16)
            .with_seed(7),
        catalog(),
    );
    net.set_tracer(ring.clone());
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.insert_tuple(net.node_at(3), "R", vec![Value::Int(1), Value::Int(7)])
        .unwrap();
    net.insert_tuple(net.node_at(9), "S", vec![Value::Int(2), Value::Int(7)])
        .unwrap();
    let events = ring.events();

    // Phase 1 → phase 2 hand-off: every join-v send originates at a node
    // that previously received an al-index message (the rewriter), and its
    // captured path starts at the rewriter and ends at the resolved
    // evaluator.
    let join_v_sends: Vec<_> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, TraceEvent::MsgSend { kind: "join-v", .. }))
        .collect();
    assert_eq!(
        join_v_sends.len(),
        2,
        "one value-hop per inserted tuple: {events:#?}"
    );
    for (pos, ev) in &join_v_sends {
        let TraceEvent::MsgSend {
            node, id, to, path, ..
        } = ev
        else {
            unreachable!()
        };
        assert!(
            events[..*pos].iter().any(
                |e| matches!(e, TraceEvent::MsgDeliver { kind: "al-index", node: n, .. } if n == node)
            ),
            "join-v sender {node} must have received an al-index message first"
        );
        assert_eq!(id.0, *node, "MsgId encodes the sending slot");
        let path = path.as_ref().expect("unicast sends capture their route");
        assert_eq!(path.first(), Some(node), "path starts at the rewriter");
        assert_eq!(path.last(), Some(to), "path ends at the evaluator");
    }

    // Delivery of a join-v is immediately followed by the evaluation it
    // triggers, on the same node (the handler runs synchronously).
    let mut evals = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if let TraceEvent::MsgDeliver {
            kind: "join-v",
            node,
            ..
        } = ev
        {
            match events.get(i + 1) {
                Some(TraceEvent::JoinEval {
                    node: n,
                    candidates,
                    matches,
                    ..
                }) => {
                    assert_eq!(n, node, "evaluation happens at the delivery node");
                    evals.push((*candidates, *matches));
                }
                other => panic!("join-v deliver not followed by JoinEval: {other:?}"),
            }
            // The evaluator stores the triggering tuple after matching.
            assert!(
                matches!(
                    events.get(i + 2),
                    Some(TraceEvent::IndexInsert {
                        table: "vstore",
                        ..
                    })
                ),
                "evaluator must store the tuple in its value store"
            );
        }
    }
    // First tuple finds an empty store; the second matches it.
    assert_eq!(evals, vec![(0, 0), (1, 1)]);

    // The match reaches the subscriber online, exactly once.
    let delivered: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NotifyDelivered { .. }))
        .collect();
    assert_eq!(
        delivered,
        vec![&TraceEvent::NotifyDelivered {
            tick: delivered.first().map(|e| e.tick()).unwrap_or_default(),
            node: a.index() as u32,
            count: 1,
            offline: false,
        }]
    );
    check_ordering(&events, "DAI-V two-phase");
}
