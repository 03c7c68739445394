//! The correctness reference: the exact notification set a run must
//! deliver, by a hash join on the join value.
//!
//! `cq_engine::Oracle` checks every (query, left tuple, right tuple) triple,
//! O(Q·|R|·|S|), which is far too slow to run on every benchmark run. This
//! reference builds, per query, a hash table of the right-side tuples keyed
//! by their join-condition value and probes it with each triggering
//! left-side tuple, so its cost is O(Q·(|R| + |S|) + output). The pair-level
//! semantics (time predicate, filters, the select list) are the relational
//! crate's own `rewrite_value`/`match_tuple`, exactly as the oracle uses.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::Arc;

use cq_relational::{Notification, QueryRef, Result, RewrittenQuery, Side, Tuple, Value};

/// The exact set of notification contents `queries` and `tuples` produce.
pub fn expected(queries: &[QueryRef], tuples: &[Arc<Tuple>]) -> Result<HashSet<Notification>> {
    let mut out = HashSet::new();
    let mut by_value: HashMap<Value, Vec<&Tuple>> = HashMap::new();
    for q in queries {
        let (left, right) = (q.relation(Side::Left), q.relation(Side::Right));
        by_value.clear();
        for s in tuples.iter().filter(|t| t.relation() == right) {
            if q.triggered_by(Side::Right, s)? {
                let v = q.condition(Side::Right).eval(s)?;
                by_value.entry(v).or_default().push(s);
            }
        }
        if by_value.is_empty() {
            continue;
        }
        for r in tuples.iter().filter(|t| t.relation() == left) {
            let Some(rq) = RewrittenQuery::rewrite_value(q, Side::Left, r)? else {
                continue;
            };
            let Some(candidates) = by_value.get(&q.condition(Side::Left).eval(r)?) else {
                continue;
            };
            for s in candidates {
                if let Some(n) = rq.match_tuple(s)? {
                    out.insert(n);
                }
            }
        }
    }
    Ok(out)
}

/// The tuples published outside every detection window `[fail, confirm]`:
/// the ones whose notifications a detector-based engine guarantees.
pub fn outside_windows(tuples: &[Arc<Tuple>], windows: &[(u64, u64)]) -> Vec<Arc<Tuple>> {
    tuples
        .iter()
        .filter(|t| {
            let p = t.pub_time().0;
            windows.iter().all(|&(a, b)| p < a || p > b)
        })
        .cloned()
        .collect()
}

/// Recall and spurious count of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Check {
    /// Share of the expected set (over guaranteed tuples) that was delivered.
    pub recall: f64,
    /// Delivered notifications that no published tuple pair explains.
    pub spurious: u64,
    /// Size of the expected set recall is computed over.
    pub expected: u64,
}

/// Checks `delivered` against `all`, the reference over every posed query
/// and inserted tuple, with recall restricted to tuples outside `windows`.
pub fn check(
    all: &HashSet<Notification>,
    queries: &[QueryRef],
    tuples: &[Arc<Tuple>],
    windows: &[(u64, u64)],
    delivered: &HashSet<Notification>,
) -> Result<Check> {
    let spurious = delivered.iter().filter(|n| !all.contains(*n)).count() as u64;
    let outside;
    let guaranteed = if windows.is_empty() {
        all
    } else {
        outside = expected(queries, &outside_windows(tuples, windows))?;
        &outside
    };
    let hit = guaranteed.iter().filter(|n| delivered.contains(*n)).count();
    let recall = if guaranteed.is_empty() {
        1.0
    } else {
        hit as f64 / guaranteed.len() as f64
    };
    Ok(Check {
        recall,
        spurious,
        expected: guaranteed.len() as u64,
    })
}

/// The reference set of one workload run, computed once and reused by
/// every algorithm whose network logged the same queries and tuples (the
/// same inputs give the same query keys and timestamps under every
/// algorithm; the signature makes sure of it).
#[derive(Default)]
pub struct Cache {
    signature: Vec<(String, u64)>,
    all: HashSet<Notification>,
}

impl Cache {
    /// The full expected set for `queries` and `tuples`.
    pub fn all(
        &mut self,
        queries: &[QueryRef],
        tuples: &[Arc<Tuple>],
    ) -> Result<&HashSet<Notification>> {
        let signature: Vec<(String, u64)> = queries
            .iter()
            .map(|q| (q.key().to_string(), q.ins_time().0))
            .chain(
                tuples
                    .iter()
                    .map(|t| (format!("{}{:?}", t.relation(), t.values()), t.pub_time().0)),
            )
            .collect();
        if signature != self.signature || self.signature.is_empty() {
            self.all = expected(queries, tuples)?;
            self.signature = signature;
        }
        Ok(&self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{self, Setup};
    use crate::gen::{Inputs, Spec, WORKLOADS};
    use cq_engine::{Algorithm, Oracle};

    fn small(spec: &Spec) -> Spec {
        Spec {
            nodes: spec.nodes.min(64),
            domain: spec.domain.min(400),
            initial_queries: spec.initial_queries.min(12),
            tuples: 60,
            ..spec.clone()
        }
    }

    #[test]
    fn hash_join_matches_the_oracle_for_all_algorithms() {
        for base in &WORKLOADS[..2] {
            let spec = Spec {
                algorithms: &Algorithm::ALL,
                ..small(base)
            };
            for seed in [1, 2] {
                let inputs = Inputs::generate(&spec, seed);
                for &alg in spec.algorithms {
                    let out = drive::run(&Setup::plain(&spec, alg, seed), &inputs);
                    let net = &out.net;
                    let mut oracle = Oracle::new();
                    oracle.ingest(net.posed_queries(), net.inserted_tuples());
                    let want = oracle.expected().unwrap();
                    let got = expected(net.posed_queries(), net.inserted_tuples()).unwrap();
                    assert_eq!(got, want, "{} {alg} seed {seed}", spec.name);
                    assert!(!want.is_empty(), "{} {alg} seed {seed}", spec.name);
                    let c = check(
                        &got,
                        net.posed_queries(),
                        net.inserted_tuples(),
                        &[],
                        &net.delivered_set(),
                    )
                    .unwrap();
                    assert_eq!((c.recall, c.spurious), (1.0, 0), "{} {alg}", spec.name);
                }
            }
        }
    }

    fn churn(algorithms: &'static [Algorithm]) -> Spec {
        Spec {
            algorithms,
            ..crate::gen::spec("churn-lossy").unwrap().clone()
        }
    }

    #[test]
    fn window_filter_matches_the_oracle_under_churn() {
        let spec = small(&churn(&[Algorithm::Sai, Algorithm::DaiT]));
        for seed in [1, 2] {
            let inputs = Inputs::generate(&spec, seed);
            for &alg in spec.algorithms {
                let out = drive::run(&Setup::plain(&spec, alg, seed), &inputs);
                let net = &out.net;
                let windows = net.detection_windows();
                assert!(!windows.is_empty(), "the schedule must fail nodes");
                let kept = outside_windows(net.inserted_tuples(), &windows);
                let mut oracle = Oracle::new();
                oracle.ingest(net.posed_queries(), &kept);
                let want = oracle.expected().unwrap();
                assert_eq!(expected(net.posed_queries(), &kept).unwrap(), want);
                let all = expected(net.posed_queries(), net.inserted_tuples()).unwrap();
                let c = check(
                    &all,
                    net.posed_queries(),
                    net.inserted_tuples(),
                    &windows,
                    &net.delivered_set(),
                )
                .unwrap();
                assert_eq!(c.expected, want.len() as u64);
                assert_eq!((c.recall, c.spurious), (1.0, 0), "{alg} seed {seed}");
            }
        }
    }

    /// SAI drops a notification whose two tuples were both published
    /// outside every detection window: R0 `[18, 92, 6, 8]` at clock 24 and
    /// R1 `[8, 4, 1, 67]` at clock 100, windows `[45, 46]`, `[70, 72]` and
    /// `[95, 96]` (instance 19 of seed 3 at 100 tuples). DAI-T delivers it.
    /// The defect is in the engine's SAI recovery from abrupt failures,
    /// which is why `churn-lossy` runs DAI-T only; run with `--ignored` to
    /// reproduce it.
    #[test]
    #[ignore = "engine defect: SAI loses notifications after abrupt failures"]
    fn sai_keeps_outside_window_notifications_under_churn() {
        let spec = Spec {
            tuples: 100,
            ..churn(&[Algorithm::DaiT, Algorithm::Sai])
        };
        let seed = crate::gen::instance_seed(3, 19);
        let inputs = Inputs::generate(&spec, seed);
        for &alg in spec.algorithms {
            let out = drive::run(&Setup::plain(&spec, alg, seed), &inputs);
            let net = &out.net;
            let all = expected(net.posed_queries(), net.inserted_tuples()).unwrap();
            let c = check(
                &all,
                net.posed_queries(),
                net.inserted_tuples(),
                &net.detection_windows(),
                &net.delivered_set(),
            )
            .unwrap();
            assert_eq!((c.recall, c.spurious), (1.0, 0), "{alg}");
        }
    }
}
