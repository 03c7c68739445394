//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cq_engine::{Network, TraceSink, TrafficKind};
use cq_relational::Notification;

use crate::calib;
use crate::drive::{self, Outcome, Setup};
use crate::gen::{instance_seed, Inputs, Op, Spec};
use crate::recorder::{self, Recorder};
use crate::reference;
use crate::replay;
use crate::stats::{median, peak_rss_mb, percentile, ratio, reset_peak_rss};
use crate::timing::{Timed, HANDLERS};

/// A run's result: the correctness verdict, call counts and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Outputs matched the reference and every check held.
    pub correct: bool,
    /// Pose, publish and settle calls attempted.
    pub attempted: u64,
    /// Of those, calls that returned `Err`.
    pub failed: u64,
    /// `(name, value)` pairs; units come from [`END_TO_END`] and [`per_layer`].
    pub metrics: BTreeMap<String, f64>,
    /// Notifications the reference expected, summed over every check.
    pub expected: u64,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// Checks that hold over the whole run.
    fn finish(&mut self) {
        if self.failed > 0 {
            self.fail(format!(
                "{} of {} calls returned Err",
                self.failed, self.attempted
            ));
        }
        if self.expected == 0 {
            self.fail("the inputs produced no notification to check".to_string());
        }
    }
}

/// The end-to-end metrics an untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("tuples_per_s", "1/s"),
    ("publish_p50_ms", "ms"),
    ("publish_p99_ms", "ms"),
    ("pose_p50_us", "us"),
    ("pose_p99_us", "us"),
    ("hops_per_tuple", "hops"),
    ("msgs_per_tuple", "msgs"),
    ("peak_rss_mb", "MiB"),
    ("recall", "ratio"),
];

/// The per-layer metrics a traced run reports, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for h in HANDLERS {
        v.push((format!("protocol.{h}.calls"), "count"));
        v.push((format!("protocol.{h}.busy_ms"), "ms"));
    }
    let fixed: [(&str, &'static str); 9] = [
        ("protocol.busy_share", "ratio"),
        ("protocol.filtering_per_tuple", "checks"),
        ("protocol.match_ratio", "ratio"),
        ("tables.alqt_entries", "count"),
        ("tables.vlqt_entries", "count"),
        ("tables.vltt_entries", "count"),
        ("tables.vstore_entries", "count"),
        ("network.residual_ms", "ms"),
        ("network.notifications_per_tuple", "count"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in TrafficKind::ALL {
        v.push((format!("network.msgs_per_tuple.{}", k.name()), "msgs"));
    }
    let rest: [(&str, &'static str); 22] = [
        ("overlay.route_ns", "ns"),
        ("overlay.hops_per_route", "hops"),
        ("relational.parse_us", "us"),
        ("faults.lost_per_msg", "ratio"),
        ("faults.retransmissions_per_msg", "ratio"),
        ("faults.dedup_per_msg", "ratio"),
        ("faults.bytes_per_tuple", "B"),
        ("recovery.settle_ms", "ms"),
        ("recovery.heartbeats_per_tuple", "msgs"),
        ("recovery.digests_per_tuple", "count"),
        ("recovery.false_suspect_ratio", "ratio"),
        ("recovery.detect_ticks_mean", "ticks"),
        ("recovery.repair_ticks_mean", "ticks"),
        ("recovery.repair_bytes", "B"),
        ("wire.encode_ns", "ns"),
        ("wire.decode_ns", "ns"),
        ("wire.bytes_per_msg", "B"),
        ("reactor.syscalls_per_msg", "ratio"),
        ("reactor.frames_per_flush", "ratio"),
        ("reactor.bytes_per_syscall", "B"),
        ("reactor.pool_hit_rate", "ratio"),
        ("reactor.blocked_writes", "count"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    v.push(("reactor.overhead_ms".to_string(), "ms"));
    v.push(("trace.overhead".to_string(), "ratio"));
    v
}

/// Checks one finished network against the reference.
fn check(
    report: &mut Report,
    cache: &mut reference::Cache,
    what: &str,
    net: &Network,
    delivered: &HashSet<Notification>,
) -> f64 {
    let (queries, tuples) = (net.posed_queries(), net.inserted_tuples());
    let checked = cache.all(queries, tuples).and_then(|all| {
        reference::check(all, queries, tuples, &net.detection_windows(), delivered)
    });
    match checked {
        Ok(c) => {
            if c.recall < 1.0 || c.spurious > 0 {
                report.fail(format!(
                    "{what}: recall {} over {} expected, {} spurious",
                    c.recall, c.expected, c.spurious
                ));
            }
            report.expected += c.expected;
            report.notes.push(format!(
                "{what}: {} expected notifications, {} delivered with multiplicity",
                c.expected,
                net.metrics().notifications_delivered
            ));
            c.recall
        }
        Err(e) => {
            report.fail(format!("{what}: reference evaluation failed: {e}"));
            0.0
        }
    }
}

fn count_calls(report: &mut Report, out: &Outcome) {
    report.attempted += out.calls;
    report.failed += out.errors;
}

/// Instances every untraced run completes, whatever `--seconds` says.
pub const MIN_INSTANCES: usize = 3;

/// One network's timings, scaled to reference host speed (`calib`).
struct Timings {
    setup: Duration,
    stream: Duration,
    pose_ns: Vec<u64>,
    publish_ns: Vec<u64>,
}

impl Timings {
    fn scaled(out: &Outcome, scale: f64) -> Timings {
        let scaled = |ns: &[u64]| ns.iter().map(|&t| (t as f64 * scale) as u64).collect();
        Timings {
            setup: out.setup.mul_f64(scale),
            stream: out.stream.mul_f64(scale),
            pose_ns: scaled(&out.pose_ns),
            publish_ns: scaled(&out.publish_ns),
        }
    }

    /// The faster reading of each timing of two passes over one input.
    fn faster(self, other: Timings) -> Timings {
        let min = |a: Vec<u64>, b: Vec<u64>| a.into_iter().zip(b).map(|(x, y)| x.min(y)).collect();
        Timings {
            setup: self.setup.min(other.setup),
            stream: self.stream.min(other.stream),
            pose_ns: min(self.pose_ns, other.pose_ns),
            publish_ns: min(self.publish_ns, other.publish_ns),
        }
    }
}

/// The untraced run. Instance `k` of a run is the workload's inputs for
/// `instance_seed(seed, k)`; each instance runs every algorithm of the
/// workload in turn, `spec.passes` times, and each network's output is
/// checked against the reference. Instances follow one another until
/// `seconds` have passed and at least `MIN_INSTANCES` have run. Every
/// timing is brought to reference host speed by the calibration probes run
/// around its network (`calib`), and keeps the fastest of its readings: a
/// host interruption seldom hits the same call twice, and only 28–70% of
/// the slowest 1% of calls of one pass were among the slowest 1% of the
/// other. Latencies pool the distinct calls of every instance; throughput
/// is publishes over the summed stream time of the whole run;
/// set-up time is a median over instances; peak memory is the median over
/// networks of each one's peak while it is driven (the checks come after,
/// and the process's peak is reset before each network); traffic and peak
/// memory cover the first `MIN_INSTANCES` instances, so they do not depend
/// on how many instances fit in the time.
pub fn untraced(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (mut pose_ns, mut publish_ns) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let (mut published, mut stream) = (0u64, Duration::ZERO);
    let (mut raw_published, mut raw_stream) = (0u64, Duration::ZERO);
    let mut probes = Vec::new();
    let mut peaks = Vec::new();
    let (mut msgs, mut hops, mut traffic_tuples, mut recall) = (0u64, 0u64, 0u64, 1.0f64);
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_INSTANCES || start.elapsed() < Duration::from_secs(seconds) {
        let iseed = instance_seed(seed, k as u64);
        let inputs = Inputs::generate(spec, iseed);
        let publishes = inputs.publishes() as u64;
        let mut cache = reference::Cache::default();
        let mut setup = Duration::ZERO;
        for &alg in spec.algorithms {
            let mut best: Option<Timings> = None;
            for pass in 0..spec.passes {
                let before = calib::probe();
                reset_peak_rss();
                let out = drive::run(&Setup::plain(spec, alg, iseed), &inputs);
                if k < MIN_INSTANCES {
                    peaks.extend(peak_rss_mb());
                }
                let after = calib::probe();
                probes.extend([before, after]);
                count_calls(&mut report, &out);
                let what = format!("instance {k} {alg} pass {pass}");
                let r = check(
                    &mut report,
                    &mut cache,
                    &what,
                    &out.net,
                    &out.net.delivered_set(),
                );
                recall = recall.min(r);
                if k < MIN_INSTANCES && pass == 0 {
                    let (m, h) = out.stream_traffic();
                    msgs += m;
                    hops += h;
                    traffic_tuples += publishes;
                }
                raw_stream += out.stream;
                raw_published += publishes;
                let this = Timings::scaled(&out, calib::scale(before, after));
                best = Some(match best {
                    Some(b) => b.faster(this),
                    None => this,
                });
            }
            let best = best.expect("every workload makes at least one pass");
            setup += best.setup;
            stream += best.stream;
            published += publishes;
            pose_ns.extend(best.pose_ns);
            publish_ns.extend(best.publish_ns);
        }
        setups.push(setup.as_secs_f64());
        k += 1;
    }
    pose_ns.sort_unstable();
    publish_ns.sort_unstable();
    report.notes.push(format!(
        "{k} instances in {:.1} s; {} publish and {} pose samples",
        start.elapsed().as_secs_f64(),
        publish_ns.len(),
        pose_ns.len()
    ));
    report.notes.push(format!(
        "calibration probe median {:.3} ms (reference {} ms); unscaled tuples_per_s {:.1}",
        median(&probes) * 1e3,
        calib::REFERENCE_S * 1e3,
        raw_published as f64 / raw_stream.as_secs_f64()
    ));
    report.set("setup_s", median(&setups));
    report.set("tuples_per_s", published as f64 / stream.as_secs_f64());
    report.set("publish_p50_ms", percentile(&publish_ns, 0.50) as f64 / 1e6);
    report.set("publish_p99_ms", percentile(&publish_ns, 0.99) as f64 / 1e6);
    report.set("pose_p50_us", percentile(&pose_ns, 0.50) as f64 / 1e3);
    report.set("pose_p99_us", percentile(&pose_ns, 0.99) as f64 / 1e3);
    report.set("hops_per_tuple", hops as f64 / traffic_tuples as f64);
    report.set("msgs_per_tuple", msgs as f64 / traffic_tuples as f64);
    report.set("peak_rss_mb", median(&peaks));
    report.set("recall", recall);
    report.finish();
    report
}

/// Per-layer sums over a workload's algorithms in the traced run.
#[derive(Default)]
struct Layers {
    handlers: [(u64, u64); 6],
    stream_busy_ns: u64,
    traced_stream: Duration,
    untraced_stream: Duration,
    sim_stream: Duration,
    settle: Duration,
    filtering: u64,
    notifications: u64,
    kinds: [u64; 5],
    tables: [u64; 4],
    faults: [u64; 3],
    sends: u64,
    bytes: u64,
    heartbeats: u64,
    digests: u64,
    suspects: u64,
    false_suspects: u64,
    detect: (u64, u64),
    repair: (u64, u64),
    repair_bytes: u64,
    socket: cq_engine::SocketStats,
    routes: replay::Routes,
    route_ns: f64,
    wire: replay::Wire,
}

/// The traced run: per algorithm, an untraced pass (the reference for the
/// delivered set and for `trace.overhead`; on TCP workloads also a
/// simulator pass of the same inputs for `reactor.overhead_ms`), then a
/// traced pass with the timing decorator and the send recorder installed,
/// then the layer replays over what the traced pass recorded.
pub fn traced(spec: &Spec, seed: u64, out_dir: &Path) -> Report {
    let iseed = instance_seed(seed, 0);
    let inputs = Inputs::generate(spec, iseed);
    let publishes = inputs.publishes() as u64;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut l = Layers::default();
    let mut cache = reference::Cache::default();
    for &alg in spec.algorithms {
        let plain = drive::run(&Setup::plain(spec, alg, iseed), &inputs);
        count_calls(&mut report, &plain);
        l.untraced_stream += plain.stream;
        if let Some(s) = plain.socket {
            add_socket(&mut l.socket, &s);
        }
        let want = plain.net.delivered_set();
        check(&mut report, &mut cache, alg.name(), &plain.net, &want);
        drop(plain);
        if spec.tcp {
            let sim = drive::run(
                &Setup {
                    tcp: false,
                    ..Setup::plain(spec, alg, iseed)
                },
                &inputs,
            );
            count_calls(&mut report, &sim);
            l.sim_stream += sim.stream;
        }

        let timed = Timed::new(cq_engine::protocol_for(alg));
        let rec = Arc::new(Recorder::default());
        let setup = Setup {
            timed: Some(Arc::clone(&timed)),
            tracer: Some(Arc::clone(&rec) as Arc<dyn TraceSink>),
            ..Setup::plain(spec, alg, iseed)
        };
        let out = drive::run(&setup, &inputs);
        count_calls(&mut report, &out);
        if out.net.delivered_set() != want {
            report.fail(format!("{alg}: the traced run delivered another set"));
        }
        let counts = timed.counts();
        for (i, (c, b)) in counts.iter().enumerate() {
            l.handlers[i].0 += c;
            l.handlers[i].1 += b;
            l.stream_busy_ns += b - out.handlers_installed[i].1;
        }
        l.traced_stream += out.stream;
        l.settle += out.settle;
        let (m, i) = (out.net.metrics(), &out.installed);
        l.filtering += m.total_filtering() - i.total_filtering();
        l.notifications += m.notifications_delivered - i.notifications_delivered;
        for (k, kind) in TrafficKind::ALL.iter().enumerate() {
            l.kinds[k] += m.traffic(*kind).messages - i.traffic(*kind).messages;
        }
        for h in out.net.ring().alive_nodes() {
            let st = out.net.node_state(h);
            for (k, n) in [st.alqt.len(), st.vlqt.len(), st.vltt.len(), st.vstore.len()]
                .into_iter()
                .enumerate()
            {
                l.tables[k] += n as u64;
            }
        }
        let (f, r) = (m.faults, m.recovery);
        for (k, n) in [f.messages_lost, f.retransmissions, f.dedup_suppressed]
            .into_iter()
            .enumerate()
        {
            l.faults[k] += n;
        }
        l.bytes += f.total_bytes_sent() - i.faults.total_bytes_sent();
        l.heartbeats += r.heartbeats_sent - i.recovery.heartbeats_sent;
        l.digests += r.digest_exchanges - i.recovery.digest_exchanges;
        l.suspects += r.suspects;
        l.false_suspects += r.false_suspects;
        l.detect.0 += r.detect_ticks_total;
        l.detect.1 += r.detections;
        l.repair.0 += r.repair_ticks_total;
        l.repair.1 += r.repairs;
        l.repair_bytes += r.repair_bytes;

        let sends = rec.take();
        l.sends += sends.len() as u64;
        let routes = replay::overlay(out.net.ring(), &sends);
        l.routes.routes += routes.routes;
        l.routes.hops += routes.hops;
        l.route_ns += routes.route_ns * routes.routes as f64;
        replay::wire(&out.net, &recorder::kind_mix(&sends), &mut l.wire);
        let path = out_dir.join(format!("sends-{}-{}-seed{seed}.tsv", spec.name, alg.name()));
        if let Err(e) =
            recorder::write_tsv(&path, &format!("{} {alg} seed {seed}", spec.name), &sends)
        {
            report
                .notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    if l.wire.mismatches > 0 {
        report.fail(format!(
            "{} of {} replayed messages did not decode to their source",
            l.wire.mismatches, l.wire.checked
        ));
    }

    let sqls: Vec<&str> = inputs
        .install
        .iter()
        .chain(&inputs.stream)
        .filter_map(|op| match op {
            Op::Pose { sql, .. } => Some(sql.as_str()),
            _ => None,
        })
        .collect();
    let (parse_us, parse_failed) = replay::relational(&drive::catalog(), &sqls);
    if parse_failed > 0 {
        report.fail(format!(
            "{parse_failed} posed queries did not parse in the replay"
        ));
    }

    let algs = spec.algorithms.len() as f64;
    let tuples = (publishes as f64) * algs;
    let stream_ms = l.traced_stream.as_secs_f64() * 1e3;
    for (i, h) in HANDLERS.iter().enumerate() {
        report.set(&format!("protocol.{h}.calls"), l.handlers[i].0 as f64);
        report.set(
            &format!("protocol.{h}.busy_ms"),
            l.handlers[i].1 as f64 / 1e6,
        );
    }
    report.set(
        "protocol.busy_share",
        ratio(l.stream_busy_ns as f64 / 1e6, stream_ms),
    );
    report.set("protocol.filtering_per_tuple", l.filtering as f64 / tuples);
    report.set(
        "protocol.match_ratio",
        ratio(l.notifications as f64, l.filtering as f64),
    );
    for (k, t) in ["alqt", "vlqt", "vltt", "vstore"].iter().enumerate() {
        report.set(&format!("tables.{t}_entries"), l.tables[k] as f64 / algs);
    }
    report.set(
        "network.residual_ms",
        stream_ms - l.stream_busy_ns as f64 / 1e6,
    );
    report.set(
        "network.notifications_per_tuple",
        l.notifications as f64 / tuples,
    );
    for (k, kind) in TrafficKind::ALL.iter().enumerate() {
        report.set(
            &format!("network.msgs_per_tuple.{}", kind.name()),
            l.kinds[k] as f64 / tuples,
        );
    }
    report.set(
        "overlay.route_ns",
        ratio(l.route_ns, l.routes.routes as f64),
    );
    report.set(
        "overlay.hops_per_route",
        ratio(l.routes.hops as f64, l.routes.routes as f64),
    );
    report.set("relational.parse_us", parse_us);
    report.set(
        "faults.lost_per_msg",
        ratio(l.faults[0] as f64, l.sends as f64),
    );
    report.set(
        "faults.retransmissions_per_msg",
        ratio(l.faults[1] as f64, l.sends as f64),
    );
    report.set(
        "faults.dedup_per_msg",
        ratio(l.faults[2] as f64, l.sends as f64),
    );
    report.set("faults.bytes_per_tuple", l.bytes as f64 / tuples);
    report.set("recovery.settle_ms", l.settle.as_secs_f64() * 1e3);
    report.set(
        "recovery.heartbeats_per_tuple",
        l.heartbeats as f64 / tuples,
    );
    report.set("recovery.digests_per_tuple", l.digests as f64 / tuples);
    report.set(
        "recovery.false_suspect_ratio",
        ratio(l.false_suspects as f64, l.suspects as f64),
    );
    report.set(
        "recovery.detect_ticks_mean",
        ratio(l.detect.0 as f64, l.detect.1 as f64),
    );
    report.set(
        "recovery.repair_ticks_mean",
        ratio(l.repair.0 as f64, l.repair.1 as f64),
    );
    report.set("recovery.repair_bytes", l.repair_bytes as f64);
    report.set("wire.encode_ns", l.wire.encode_ns());
    report.set("wire.decode_ns", l.wire.decode_ns());
    report.set("wire.bytes_per_msg", l.wire.bytes_per_msg());
    let s = &l.socket;
    let syscalls = (s.write_syscalls + s.read_syscalls) as f64;
    report.set(
        "reactor.syscalls_per_msg",
        ratio(syscalls, s.frames_sent as f64),
    );
    report.set("reactor.frames_per_flush", s.frames_per_flush());
    report.set("reactor.bytes_per_syscall", s.bytes_per_syscall());
    report.set("reactor.pool_hit_rate", s.pool_hit_rate());
    report.set("reactor.blocked_writes", s.blocked_writes as f64);
    let overhead = if spec.tcp {
        (l.untraced_stream.as_secs_f64() - l.sim_stream.as_secs_f64()) * 1e3
    } else {
        0.0
    };
    report.set("reactor.overhead_ms", overhead);
    report.set(
        "trace.overhead",
        ratio(
            l.traced_stream.as_secs_f64(),
            l.untraced_stream.as_secs_f64(),
        ),
    );
    report.finish();
    report
}

fn add_socket(acc: &mut cq_engine::SocketStats, s: &cq_engine::SocketStats) {
    acc.write_syscalls += s.write_syscalls;
    acc.read_syscalls += s.read_syscalls;
    acc.bytes_written += s.bytes_written;
    acc.bytes_read += s.bytes_read;
    acc.frames_sent += s.frames_sent;
    acc.frames_received += s.frames_received;
    acc.blocked_writes += s.blocked_writes;
    acc.pool_hits += s.pool_hits;
    acc.pool_misses += s.pool_misses;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::spec;

    fn small(name: &str) -> Spec {
        Spec {
            nodes: 64,
            domain: 400,
            initial_queries: 12,
            tuples: 48,
            ..spec(name).unwrap().clone()
        }
    }

    #[test]
    fn one_seed_repeats_its_traffic_and_recall() {
        for name in ["paper-skew", "churn-lossy"] {
            let spec = small(name);
            let a = untraced(&spec, 5, 0);
            let b = untraced(&spec, 5, 0);
            assert!(
                a.correct && b.correct,
                "{name}: {:?} {:?}",
                a.notes,
                b.notes
            );
            for m in ["hops_per_tuple", "msgs_per_tuple", "recall"] {
                assert_eq!(a.metrics[m], b.metrics[m], "{name} {m}");
            }
            let c = untraced(&spec, 6, 0);
            assert_ne!(
                a.metrics["hops_per_tuple"], c.metrics["hops_per_tuple"],
                "{name}"
            );
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_match_untraced_deliveries() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for name in ["sparse-wide", "churn-lossy", "tcp-loopback"] {
            let spec = small(name);
            let r = traced(&spec, 3, &dir);
            assert!(r.correct, "{name}: {:?}", r.notes);
            for (m, _) in per_layer() {
                assert!(r.metrics.contains_key(&m), "{name} lacks {m}");
            }
            assert!(r.metrics["overlay.hops_per_route"] > 0.0, "{name}");
            assert!(r.metrics["wire.bytes_per_msg"] > 0.0, "{name}");
            assert!(r.metrics["protocol.busy_share"] > 0.0, "{name}");
            let tcp = r.metrics["reactor.frames_per_flush"] > 0.0;
            assert_eq!(tcp, spec.tcp, "{name}: reactor counters only on TCP");
            let churn = r.metrics["recovery.heartbeats_per_tuple"] > 0.0;
            assert_eq!(churn, spec.churn, "{name}: recovery only under churn");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The names and units printed are the ones `BENCHMARK.json` declares,
    /// and every workload it lists is one the benchmark runs.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads = &text[text.find("\"workloads\"").expect("workloads")..];
        let workloads = &workloads[..workloads.find(']').expect("list end")];
        let names: Vec<&str> = workloads
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("quote")])
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for name in names {
            assert!(crate::gen::spec(name).is_some(), "unknown workload {name}");
        }
    }
}
