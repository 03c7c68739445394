//! Allocation + throughput audit of the join-evaluation kernels.
//!
//! Prints one JSON object to stdout with, per kernel and table size, the
//! events measured, ns/event, events/sec and — when built with
//! `--features count-allocs` — heap allocations per event. The audit's
//! point is the *slope*: each scan kernel is measured at two table sizes an
//! order of magnitude apart, and a zero-clone kernel shows (near-)constant
//! allocations per event while a clone-collect kernel grows linearly with
//! the candidate count. `scripts/bench_snapshot.sh` folds the output into
//! the snapshot and enforces the flat-slope check, plus the detector's
//! allocations per probe.
//!
//! Usage: `alloc_audit [--quick]` (`--quick` shrinks event counts for CI).

use std::sync::Arc;
use std::time::Instant;

use cq_bench::alloc_count;
use cq_engine::tables::{Alqt, StoredQuery, StoredRewritten, StoredTuple, Vlqt, Vltt};
use cq_engine::{Algorithm, EngineConfig, FaultConfig, Matches, Network, SuspicionConfig};
use cq_overlay::Id;
use cq_relational::{
    parse_query, Catalog, DataType, QueryKey, QueryRef, RelationSchema, RewrittenQuery, Side,
    Timestamp, Tuple, Value,
};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn query(cat: &Catalog, n: u64) -> QueryRef {
    Arc::new(
        parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", cat)
            .unwrap()
            .into_query(QueryKey::derive("bench", n), "bench", Timestamp(0), cat)
            .unwrap(),
    )
}

fn r_tuple(cat: &Catalog, a: i64, b: i64) -> Tuple {
    Tuple::new(
        cat.get("R").unwrap().clone(),
        vec![Value::Int(a), Value::Int(b)],
        Timestamp(1),
        a as u64,
    )
    .unwrap()
}

fn s_tuple(cat: &Catalog, c: i64, d: i64) -> Arc<Tuple> {
    Arc::new(
        Tuple::new(
            cat.get("S").unwrap().clone(),
            vec![Value::Int(c), Value::Int(d)],
            Timestamp(1),
            d as u64,
        )
        .unwrap(),
    )
}

/// One measured result row.
struct Row {
    kernel: &'static str,
    size: usize,
    events: u64,
    ns_per_event: f64,
    events_per_sec: f64,
    allocs_per_event: Option<f64>,
}

/// Times `events` iterations of `f`, counting allocations around the loop.
fn measure(kernel: &'static str, size: usize, events: u64, mut f: impl FnMut()) -> Row {
    // warm-up: fault in lazily allocated structures outside the window
    for _ in 0..events.min(100) {
        f();
    }
    let a0 = alloc_count::allocations();
    let t0 = Instant::now();
    for _ in 0..events {
        f();
    }
    let dt = t0.elapsed();
    let allocs = alloc_count::allocations() - a0;
    let ns = dt.as_nanos() as f64 / events as f64;
    Row {
        kernel,
        size,
        events,
        ns_per_event: ns,
        events_per_sec: 1e9 / ns,
        allocs_per_event: cfg!(feature = "count-allocs").then(|| allocs as f64 / events as f64),
    }
}

/// `match_against_vltt`'s inner loop: scan stored tuples under one value
/// key, test the rewritten query, accumulate counts.
fn audit_vltt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let q = query(cat, 0);
    let rq = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &r_tuple(cat, 1, 7))
        .unwrap()
        .unwrap();
    let mut vltt = Vltt::new();
    for i in 0..size as i64 {
        vltt.insert(StoredTuple {
            index_id: Id(i as u64),
            attr: "C".to_string(),
            tuple: s_tuple(cat, 7, i),
        })
        .unwrap();
    }
    measure("vltt-scan", size, events, || {
        let mut matches = Matches::new(false);
        for e in vltt.candidates("S", "C", "i:7") {
            if rq.matches(&e.tuple).unwrap() {
                matches.add(&rq, &e.tuple).unwrap();
            }
        }
        assert_eq!(matches.len(), size as u64);
    })
}

/// `match_vlqt_candidates`' inner loop: scan stored rewritten queries under
/// one value key, test the arriving tuple.
fn audit_vlqt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let tuple = s_tuple(cat, 7, 99);
    let mut vlqt = Vlqt::new();
    for i in 0..size as u64 {
        let q = query(cat, i);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &r_tuple(cat, 1, 7))
            .unwrap()
            .unwrap();
        vlqt.insert(StoredRewritten {
            index_id: Id(i),
            rq,
        })
        .unwrap();
    }
    measure("vlqt-scan", size, events, || {
        let mut matches = Matches::new(false);
        for e in vlqt.candidates("S", "C", "i:7") {
            if e.rq.matches(&tuple).unwrap() {
                matches.add(&e.rq, &tuple).unwrap();
            }
        }
        assert_eq!(matches.len(), size as u64);
    })
}

/// The rewriter's triggered-group scan (`t1_tuple_arrival` / DAI-V tuple
/// arrival): iterate ALQT groups in place with borrowed group keys,
/// filtering by index identifier and attribute. Pure iteration — must be
/// allocation-free.
fn audit_alqt_scan(cat: &Catalog, size: usize, events: u64) -> Row {
    let mut alqt = Alqt::new();
    for i in 0..size as u64 {
        alqt.insert(StoredQuery {
            index_id: Id(7),
            query: query(cat, i),
            index_side: Side::Left,
            index_attr: "B".to_string(),
        });
    }
    measure("alqt-scan", size, events, || {
        let mut checks = 0u64;
        for (group, stored) in alqt.groups("R", "B") {
            for sq in stored {
                if sq.index_id != Id(7) {
                    continue;
                }
                checks += 1;
                if sq.index_attr != "B" {
                    continue;
                }
                std::hint::black_box(group);
            }
        }
        assert_eq!(checks, size as u64);
    })
}

/// End-to-end steady-state tuple insert (routing + rewriting + matching +
/// delivery) — the trajectory number future PRs compare against. Allocations
/// here are *not* expected to be flat in the query count (each extra match
/// legitimately produces notification work); the scan kernels above isolate
/// the allocation-free parts.
fn audit_insert_e2e(size: usize, events: u64) -> Row {
    let mut net = Network::new(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(256)
            .with_seed(7),
        catalog(),
    );
    let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
    for i in 0..size {
        let poser = net.node_at(i % 256);
        net.pose_query_sql(poser, sql).unwrap();
    }
    let mut i = 0i64;
    measure("insert-e2e", size, events, move || {
        i += 1;
        let from = net.node_at((i as usize) % 256);
        let (rel, values) = if i % 2 == 0 {
            ("R", vec![Value::Int(i), Value::Int(i % 32)])
        } else {
            ("S", vec![Value::Int(i % 32), Value::Int(i)])
        };
        net.insert_tuple(from, rel, values).unwrap();
    })
}

/// The socket hot path in isolation: one frame pumped per event through a
/// loopback [`cq_engine::frames::FrameConn`] pair — encoded in place at the write queue's
/// tail, flushed with a vectored write, read back through the pooled-buffer
/// path, and the buffer recycled. After the warm-up primes the write
/// segments, the read chunk, and the pool, the steady state must be
/// allocation-free end to end (`size` is the frame payload in bytes).
fn audit_socket_pump(size: usize, events: u64) -> Row {
    use cq_engine::frames::{BufPool, FrameConn, RawFrame};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let mut tx = FrameConn::new(client, cq_engine::wire::MAX_FRAME).expect("tx conn");
    let mut rx = FrameConn::new(server, cq_engine::wire::MAX_FRAME).expect("rx conn");
    let payload = vec![0xA5u8; size];
    let mut pool = BufPool::new();
    let mut out: Vec<RawFrame> = Vec::new();
    let mut seq = 0u64;
    measure("socket-pump", size, events, move || {
        tx.append_frame_with(seq, |buf| {
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
        });
        seq += 1;
        while tx.wants_write() {
            tx.flush().expect("flush");
        }
        while out.is_empty() {
            rx.read_frames(&mut out, &mut pool).expect("read");
        }
        for (_, buf) in out.drain(..) {
            pool.put(buf);
        }
    })
}

/// The failure detector's steady state on an idle, lossy network of `size`
/// nodes: heartbeat rounds, probe round trips through the fault pump,
/// deadline sweeps and anti-entropy rounds served from the digest cache.
/// One event is one probe sent (a ping, plus its pong when both survive);
/// after a warm-up that sizes the watch table, the wheel buckets and the
/// dedup bitmaps, allocations per probe must stay near zero and flat in
/// the ring size. The timeouts span eight heartbeat rounds, so 10% loss
/// never gets a live node confirmed: a confirmation triggers ring
/// stabilization, which is the overlay's cost, not the detector's.
fn audit_detector_tick(size: usize, ticks: u64) -> Row {
    let mut fault = FaultConfig::lossy(0.1, 7);
    fault.replication = 2;
    let suspicion = SuspicionConfig::active()
        .with_suspect_after(32)
        .with_confirm_after(32);
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(size)
            .with_seed(7)
            .with_fault(fault)
            .with_suspicion(suspicion),
        catalog(),
    );
    let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
    for i in 0..8 {
        let poser = net.node_at(i * size / 8);
        net.pose_query_sql(poser, sql).unwrap();
    }
    for i in 0..16i64 {
        let from = net.node_at(i as usize % size);
        net.insert_tuple(from, "R", vec![Value::Int(i), Value::Int(i % 4)])
            .unwrap();
    }
    net.pump_ticks(ticks / 4).unwrap();
    let probes0 = net.recovery_counters().heartbeats_sent;
    let a0 = alloc_count::allocations();
    let t0 = Instant::now();
    net.pump_ticks(ticks).unwrap();
    let dt = t0.elapsed();
    let allocs = alloc_count::allocations() - a0;
    let probes = net.recovery_counters().heartbeats_sent - probes0;
    let ns = dt.as_nanos() as f64 / probes as f64;
    Row {
        kernel: "detector-tick",
        size,
        events: probes,
        ns_per_event: ns,
        events_per_sec: 1e9 / ns,
        allocs_per_event: cfg!(feature = "count-allocs").then(|| allocs as f64 / probes as f64),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cat = catalog();
    let (scan_events, e2e_events) = if quick { (200, 200) } else { (2_000, 5_000) };
    let detector_ticks = if quick { 400 } else { 4_000 };
    let rows = [
        audit_vltt_scan(&cat, 1_000, scan_events),
        audit_vltt_scan(&cat, 10_000, scan_events.max(200) / 10),
        audit_vlqt_scan(&cat, 1_000, scan_events),
        audit_vlqt_scan(&cat, 10_000, scan_events.max(200) / 10),
        audit_alqt_scan(&cat, 50, scan_events),
        audit_alqt_scan(&cat, 500, scan_events),
        audit_insert_e2e(50, e2e_events),
        audit_socket_pump(256, e2e_events),
        audit_detector_tick(64, detector_ticks),
        audit_detector_tick(640, detector_ticks),
    ];
    println!("{{");
    println!("  \"count_allocs\": {},", cfg!(feature = "count-allocs"));
    println!("  \"kernels\": [");
    for (i, r) in rows.iter().enumerate() {
        let allocs = r
            .allocs_per_event
            .map_or("null".to_string(), |a| format!("{a:.2}"));
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"kernel\": \"{}\", \"size\": {}, \"events\": {}, \
             \"ns_per_event\": {:.1}, \"events_per_sec\": {:.0}, \
             \"allocs_per_event\": {}}}{}",
            r.kernel, r.size, r.events, r.ns_per_event, r.events_per_sec, allocs, comma
        );
    }
    println!("  ]");
    println!("}}");
}
