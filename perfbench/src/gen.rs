//! Workload definitions and seeded input generation.
//!
//! Everything the engine receives — queries (as SQL), tuples, the node
//! indices that pose and publish them, and the failure schedule — is
//! generated here from the `--seed` argument before any timing starts.
//! Generation uses its own PRNG and Zipf sampler, so the inputs of a seed
//! never change when engine or workload-crate code changes.

use std::fmt::Write as _;

use cq_engine::Algorithm;

/// SplitMix64: small, fast, and fully specified, so a seed's inputs are
/// stable across toolchains and crate versions.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How attribute values are drawn.
#[derive(Clone, Debug)]
enum Values {
    Uniform(u64),
    /// Cumulative Zipf weights over ranks `0..domain` (rank 0 most frequent).
    Zipf(Vec<f64>),
}

impl Values {
    fn new(domain: u64, theta: f64) -> Self {
        if theta == 0.0 {
            return Values::Uniform(domain);
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=domain)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Values::Zipf(cdf)
    }

    /// `n` values. Zipf values are drawn by stratified sampling: draw `i`
    /// sits at a random point of the `i`-th of `n` equal quantile strata,
    /// and the draws are then shuffled. How often each hot value occurs
    /// thus follows the distribution closely for every seed, and the seed
    /// decides which tuple carries which value. Without it, how many tuples
    /// land on the few hottest values (whose joins dominate the work)
    /// varies widely between seeds, and so would every figure the benchmark
    /// reports. Uniform values are drawn independently: strata narrower
    /// than the domain would make every value distinct and remove the rare
    /// collisions a sparse workload's joins consist of.
    fn draw(&self, n: usize, rng: &mut SplitMix) -> Vec<i64> {
        match self {
            Values::Uniform(d) => (0..n).map(|_| rng.below(*d) as i64).collect(),
            Values::Zipf(cdf) => {
                let mut v: Vec<i64> = (0..n)
                    .map(|i| {
                        let u = (i as f64 + rng.unit()) / n as f64;
                        cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as i64
                    })
                    .collect();
                shuffle(&mut v, rng);
                v
            }
        }
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// One workload: the shape of its inputs and how the engine is configured.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Network size `N`.
    pub nodes: usize,
    /// Attribute values are drawn from `0..domain`.
    pub domain: u64,
    /// Zipf skew of attribute values; `0.0` = uniform.
    pub zipf_theta: f64,
    /// Queries installed before the stream starts.
    pub initial_queries: usize,
    /// Tuples published in the stream.
    pub tuples: usize,
    /// One new query is posed after every `pose_every` publishes (`0` = none).
    pub pose_every: usize,
    /// The algorithms run in turn on identical inputs.
    pub algorithms: &'static [Algorithm],
    /// 10% message loss, `k = 2` successor replication, heartbeat detection
    /// at 12 ticks, abrupt failures during the stream, `settle()` at the end.
    pub churn: bool,
    /// Abrupt failures spread evenly over the stream (churn only).
    pub failures: usize,
    /// Run over `Network::enable_tcp_transport` instead of the simulator.
    pub tcp: bool,
    /// Networks each algorithm of an untraced instance drives on identical
    /// inputs; each timing keeps its fastest reading. Two where calls are
    /// fast enough for host interruptions to set their tail; one where the
    /// tail comes from the inputs (loss and failures), which repeat in every
    /// pass, so that a second pass would only halve the distinct instances.
    pub passes: usize,
}

const ALL: &[Algorithm] = &Algorithm::ALL;
const SAI_DAIT: &[Algorithm] = &[Algorithm::Sai, Algorithm::DaiT];
/// `churn-lossy` leaves SAI out: SAI loses notifications outside every
/// detection window after abrupt failures (an engine defect, reproduced by
/// the ignored test `sai_keeps_outside_window_notifications_under_churn`).
const DAIT: &[Algorithm] = &[Algorithm::DaiT];

/// The benchmark's workloads. Why each exists is recorded in
/// `perfbench/README.md`.
pub const WORKLOADS: [Spec; 4] = [
    // Skewed join keys: output-heavy joins, so evaluator scans, rewriting
    // and notification delivery dominate.
    Spec {
        name: "paper-skew",
        nodes: 1024,
        domain: 400,
        zipf_theta: 0.9,
        initial_queries: 1000,
        tuples: 180,
        pose_every: 0,
        algorithms: ALL,
        churn: false,
        failures: 0,
        tcp: false,
        passes: 2,
    },
    // Uniform keys over a wide domain on the largest ring: few matches, so
    // routing and dispatch dominate, with subscriptions interleaved.
    Spec {
        name: "sparse-wide",
        nodes: 10_000,
        domain: 100_000,
        zipf_theta: 0.0,
        initial_queries: 100,
        tuples: 400,
        pose_every: 4,
        algorithms: ALL,
        churn: false,
        failures: 0,
        tcp: false,
        passes: 2,
    },
    // Lossy channel plus abrupt failures: the fault pump and recovery.
    // Half of ef02's 100 tuples: a publish costs more the longer the
    // stream has run, and short instances pool more poses into a run.
    Spec {
        name: "churn-lossy",
        nodes: 64,
        domain: 100,
        zipf_theta: 0.9,
        initial_queries: 20,
        tuples: 50,
        pose_every: 0,
        algorithms: DAIT,
        churn: true,
        failures: 3,
        tcp: false,
        passes: 1,
    },
    // sparse-wide's inputs at a size loopback sockets can carry: the only
    // workload that runs the wire codec and the reactor.
    Spec {
        name: "tcp-loopback",
        nodes: 64,
        domain: 100_000,
        zipf_theta: 0.0,
        initial_queries: 200,
        tuples: 400,
        pose_every: 4,
        algorithms: SAI_DAIT,
        churn: false,
        failures: 0,
        tcp: true,
        passes: 2,
    },
];

/// The seed of instance `k` of a run with `--seed seed`.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One input event. Node fields are indices into the alive nodes, taken
/// modulo the alive count when the event is applied (`Network::node_at`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Pose a continuous query from a node.
    Pose {
        /// Poser index.
        node: usize,
        /// The query, in the supported SQL subset.
        sql: String,
    },
    /// Publish a tuple from a node.
    Publish {
        /// Publisher index.
        node: usize,
        /// `"R0"` or `"R1"`.
        relation: &'static str,
        /// The four attribute values.
        values: [i64; 4],
    },
    /// Abruptly fail a node.
    Fail {
        /// Victim index.
        node: usize,
    },
}

/// The generated inputs of one workload and seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Queries installed before the stream (all `Op::Pose`).
    pub install: Vec<Op>,
    /// The measured stream: publishes, interleaved poses and failures.
    pub stream: Vec<Op>,
}

impl Inputs {
    /// Generates the inputs of `spec` for `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed ^ 0xC0DE_B0A7_0000_0000);
        let n = spec.nodes as u64;
        let stream_poses = spec.tuples.checked_div(spec.pose_every).unwrap_or(0);
        // Every (R0, R1) join-attribute pair is used equally often.
        let mut joins: Vec<usize> = (0..spec.initial_queries + stream_poses)
            .map(|i| i % 16)
            .collect();
        shuffle(&mut joins, &mut rng);
        let mut joins = joins.into_iter();
        let mut pose = |rng: &mut SplitMix| {
            let j = joins.next().expect("one join pair per query");
            Op::Pose {
                node: rng.below(n) as usize,
                sql: format!(
                    "SELECT R0.A{}, R1.A{} FROM R0, R1 WHERE R0.A{} = R1.A{}",
                    rng.below(4),
                    rng.below(4),
                    j / 4,
                    j % 4
                ),
            }
        };
        let install = (0..spec.initial_queries).map(|_| pose(&mut rng)).collect();
        // Half the tuples go to each relation.
        let mut relations: Vec<&'static str> = (0..spec.tuples)
            .map(|i| if i % 2 == 0 { "R0" } else { "R1" })
            .collect();
        shuffle(&mut relations, &mut rng);
        let values = Values::new(spec.domain, spec.zipf_theta).draw(spec.tuples * 4, &mut rng);
        // Victims are spaced a fraction of the ring apart, so no two are
        // successors of one another and `k = 2` replication always holds a
        // surviving copy.
        let base = rng.below(n) as usize;
        let spacing = spec.nodes / (spec.failures + 1);
        let mut stream = Vec::with_capacity(spec.tuples * 2);
        let mut failed = 0;
        for (i, (relation, vals)) in relations.into_iter().zip(values.chunks(4)).enumerate() {
            while failed < spec.failures && i * (spec.failures + 1) >= (failed + 1) * spec.tuples {
                stream.push(Op::Fail {
                    node: (base + failed * spacing) % (spec.nodes - failed),
                });
                failed += 1;
            }
            stream.push(Op::Publish {
                node: rng.below(n) as usize,
                relation,
                values: [vals[0], vals[1], vals[2], vals[3]],
            });
            if spec.pose_every > 0 && (i + 1) % spec.pose_every == 0 {
                stream.push(pose(&mut rng));
            }
        }
        Inputs { install, stream }
    }

    /// A canonical text rendering, one event per line (compared byte for
    /// byte by the seed-discipline test).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (phase, ops) in [("install", &self.install), ("stream", &self.stream)] {
            for op in ops {
                // Writing to a String cannot fail.
                let _ = match op {
                    Op::Pose { node, sql } => writeln!(out, "{phase} pose {node} {sql}"),
                    Op::Publish {
                        node,
                        relation,
                        values,
                    } => writeln!(out, "{phase} publish {node} {relation} {values:?}"),
                    Op::Fail { node } => writeln!(out, "{phase} fail {node}"),
                };
            }
        }
        out
    }

    /// Number of publishes in the stream.
    pub fn publishes(&self) -> usize {
        self.stream
            .iter()
            .filter(|op| matches!(op, Op::Publish { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        for spec in &WORKLOADS {
            let a = Inputs::generate(spec, 7).render();
            let b = Inputs::generate(spec, 7).render();
            assert_eq!(a, b, "{}", spec.name);
        }
    }

    #[test]
    fn another_seed_changes_the_inputs() {
        for spec in &WORKLOADS {
            let a = Inputs::generate(spec, 7);
            let b = Inputs::generate(spec, 8);
            assert_ne!(a.install, b.install, "{}", spec.name);
            assert_ne!(a.stream, b.stream, "{}", spec.name);
        }
    }

    #[test]
    fn shapes_match_the_specs() {
        for spec in &WORKLOADS {
            let inp = Inputs::generate(spec, 1);
            assert_eq!(inp.install.len(), spec.initial_queries);
            assert_eq!(inp.publishes(), spec.tuples);
            let fails = inp
                .stream
                .iter()
                .filter(|op| matches!(op, Op::Fail { .. }))
                .count();
            assert_eq!(fails, spec.failures, "{}", spec.name);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_domain() {
        let v = Values::new(400, 0.9);
        let mut rng = SplitMix::new(3);
        let draws = v.draw(20_000, &mut rng);
        assert!(draws.iter().all(|&d| (0..400).contains(&d)));
        let zeros = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 399).count();
        assert!(
            zeros > 10 * tail.max(1),
            "rank 0: {zeros}, rank 399: {tail}"
        );
        let other = v.draw(20_000, &mut rng);
        assert_ne!(draws, other, "the seed decides the order");
        let count = |d: &[i64]| d.iter().filter(|&&x| x == 0).count() as i64;
        assert!(
            (count(&draws) - count(&other)).abs() <= 2,
            "strata fix the counts"
        );
    }

    #[test]
    fn uniform_values_stay_in_the_domain() {
        let draws = Values::new(100_000, 0.0).draw(1000, &mut SplitMix::new(5));
        assert!(draws.iter().all(|&d| (0..100_000).contains(&d)));
    }
}
