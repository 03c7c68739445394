//! Host-speed calibration for the untraced run's timings.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts in
//! phases: a fixed CPU loop has taken twice as long for a minute at a time.
//! Runs with different seeds then differ by more than any regression bound,
//! and a longer run or a median over it cannot remove a phase that outlasts
//! the run. So each network is bracketed by [`probe`], a fixed piece of
//! work owned by the benchmark, and every timing the network produced is
//! scaled by [`scale`]: the probe's reference time over its mean time just
//! before and just after the network. A reported timing therefore reads as
//! the time the call takes on a host where the probe takes
//! [`REFERENCE_S`].
//!
//! The probe uses the standard library only, so no engine change moves it,
//! and it does the kinds of work the engine's hot paths do: allocation,
//! hashing, ordered maps, sorting and string formatting. Of the probes
//! tried against repeated runs of one fixed network while the host drifted,
//! this cache-resident one tracked the engine best; a pointer chase over
//! 32 MiB barely moved when the engine slowed by a third.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The probe time timings are scaled to (a little under its median on a
/// 2-vCPU VM, where it reads 2.1–2.5 ms).
pub const REFERENCE_S: f64 = 0.002;

/// Runs the fixed calibration work once and returns its wall time (s).
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut lists: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut texts: BTreeMap<u64, String> = BTreeMap::new();
    let mut s = String::new();
    for i in 0..12_000u64 {
        let k = next() % 4096;
        lists.entry(k).or_default().push(i);
        if i % 8 == 0 {
            s.clear();
            // Writing to a String cannot fail.
            let _ = write!(s, "SELECT R0.A{}, R1.A{} WHERE {k}", k % 4, i % 4);
            texts.insert(next() % 2048, s.clone());
        }
    }
    let mut sums: Vec<u64> = lists.values().map(|l| l.iter().sum()).collect();
    sums.sort_unstable();
    let mut hits = 0usize;
    for _ in 0..12_000 {
        if let Some(l) = lists.get(&(next() % 8192)) {
            hits += l.len();
        }
    }
    black_box((hits, &sums, &texts));
    start.elapsed().as_secs_f64()
}

/// The factor that brings timings taken between two probes of
/// `before` and `after` seconds to reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
