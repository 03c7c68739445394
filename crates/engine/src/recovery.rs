//! In-protocol failure detection and anti-entropy replica repair.
//!
//! The fault layer (`engine::faults`) injects abrupt node failures, but the
//! seed engine repaired them with *oracle knowledge*: the harness called
//! [`Network::stabilize`] the instant a node died. This module replaces the
//! oracle with an in-protocol detector:
//!
//! * **Heartbeats** — every [`SuspicionConfig::heartbeat_every`] pump ticks,
//!   each alive node pings every entry of its *local* successor list (the
//!   stale, per-node view — exactly what a real Chord node has). Probes are
//!   fire-and-forget: they never open ack windows, and in-flight probes do
//!   not keep the message pump busy (see `FaultPipe::busy`).
//! * **Suspicion** — an unanswered probe moves the watch to *suspected*
//!   after [`SuspicionConfig::suspect_after`] ticks; a pong at any point
//!   clears it (a late pong from a slow-but-alive node is counted as a
//!   *false suspicion*). A suspicion that survives another
//!   [`SuspicionConfig::confirm_after`] ticks is *confirmed*: the watcher
//!   triggers ring stabilization and replica promotion. Confirming a node
//!   that was actually alive is harmless — promotion only extracts replicas
//!   whose identifiers the promoting node *really* owns.
//! * **Anti-entropy** — every [`SuspicionConfig::anti_entropy_every`] ticks,
//!   each primary compares an order-independent digest of its owned state
//!   (entry count + commutative hash sum, see
//!   [`crate::replication`]) against each of its `k` successors' replica
//!   stores and re-mirrors only the missing items. A round in which no
//!   successor was missing anything closes all open repair episodes.
//!
//! With [`SuspicionConfig::default`] (disabled) none of this exists at
//! runtime and every run is byte-identical to the pre-detection engine.
//!
//! # Cost model
//!
//! The detector costs time in proportion to what changed, not to the size
//! of the ring or the length of the run:
//!
//! * **Dense watch table.** Open watches live in one row per prober slot,
//!   each row sorted by target, so a probe's watch is opened or closed
//!   with a binary search in a row of about `r` entries (the successor-list
//!   length) and rows keep their capacity. Walking the rows in slot order
//!   visits watches in (prober, target) order, the order suspicion and
//!   confirmation events are emitted in. A heartbeat round reuses one
//!   scratch list of alive nodes and reads each successor list in place.
//! * **Deadline-gated sweep.** The table records the earliest tick any
//!   watch can move on (`next_due`); on every earlier tick the sweep is a
//!   comparison. A pong can close the watch that set `next_due`, which
//!   makes the gate early (one sweep that changes nothing), never late.
//!   Watches of probers that died are dropped on the first tick after the
//!   ring's membership epoch moves, unless the prober has rejoined.
//! * **Cached digests.** Anti-entropy keeps each primary's digest and each
//!   (primary, successor) replica digest with the ring epoch and the
//!   `ChangeMarks` generation they were computed at. An entry is stale
//!   when (1) the ring membership epoch moved (ownership ranges and
//!   successor sets are functions of membership alone), (2) the digested
//!   side's change mark moved: the primary mark for a primary digest, the
//!   successor's replica mark for a replica digest, or (3) promotion moved
//!   replicas into the promoting node's tables, which bumps both of its
//!   marks. Marks are bumped by every path that writes node state:
//!   `dispatch` (query indexing, offline stores, replica mirroring), every
//!   protocol handler run at its node, transfers on leave and rejoin, the
//!   offline-store drain on reconnect, the replica handover on leave, and
//!   failures. A miss re-hashes the node's items with one
//!   [`cq_overlay::Ring::owned_range`] interval test per item. Debug builds
//!   recompute every cached digest the uncached way at the top of each
//!   round and assert equality.
//!
//! Per tick the detector therefore costs O(1) when no watch is due and one
//! pass over the open watches when some are; per heartbeat round, O(1) per
//! probe; per anti-entropy round, one cache probe per (primary, successor)
//! pair plus re-hashing only the nodes whose state or ownership changed.

use cq_fasthash::FxHashMap;
use cq_fasthash::FxHashSet;
use cq_overlay::{Id, NodeHandle};

use crate::error::{EngineError, Result};
use crate::faults::FaultPipe;
use crate::messages::Message;
use crate::network::Network;
use crate::node::NodeState;
use crate::replication::{
    digest_of, hash_offline, hash_query, hash_rewritten, hash_tuple, hash_value_tuple, ReplicaItem,
};
use crate::trace::TraceEvent;
use crate::wire;

/// Failure-detection knobs. All durations are pump ticks (the same unit the
/// fault layer uses). The default is fully disabled: no probes, no
/// suspicion, no anti-entropy — failures are repaired by whoever calls
/// [`Network::stabilize`], exactly as before this module existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspicionConfig {
    /// Master switch. When `false` every other knob is ignored.
    pub enabled: bool,
    /// Ticks between heartbeat rounds (treated as 1 if set to 0).
    pub heartbeat_every: u64,
    /// Ticks an unanswered probe waits before the target is *suspected*.
    pub suspect_after: u64,
    /// Ticks a suspicion must survive (no pong) before it is *confirmed*
    /// and repair (stabilization + replica promotion) is triggered.
    pub confirm_after: u64,
    /// Ticks between anti-entropy digest rounds; `0` disables anti-entropy
    /// (repair episodes then close at confirmation time).
    pub anti_entropy_every: u64,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig {
            enabled: false,
            heartbeat_every: 4,
            suspect_after: 8,
            confirm_after: 8,
            anti_entropy_every: 16,
        }
    }
}

impl SuspicionConfig {
    /// An enabled profile with the default cadence — the starting point for
    /// tests and the `ef02` experiment.
    pub fn active() -> Self {
        SuspicionConfig {
            enabled: true,
            ..SuspicionConfig::default()
        }
    }

    /// Overrides the suspicion timeout (the `ef02` sweep axis). Sets only
    /// [`SuspicionConfig::suspect_after`] — pair with
    /// [`SuspicionConfig::with_confirm_after`] to scale the confirmation
    /// grace alongside it. (An earlier version silently overwrote
    /// `confirm_after` too, making it impossible to configure the two
    /// timeouts independently.)
    pub fn with_suspect_after(mut self, ticks: u64) -> Self {
        self.suspect_after = ticks;
        self
    }

    /// Overrides the confirmation grace: how long a suspicion must survive
    /// before repair is triggered.
    pub fn with_confirm_after(mut self, ticks: u64) -> Self {
        self.confirm_after = ticks;
        self
    }

    /// Overrides the anti-entropy cadence (`0` disables digest rounds).
    pub fn with_anti_entropy_every(mut self, ticks: u64) -> Self {
        self.anti_entropy_every = ticks;
        self
    }
}

/// One watcher→target probe relationship.
#[derive(Clone, Copy, Debug)]
enum WatchState {
    /// A probe is out; `sent_at` is the tick of the *first* unanswered
    /// probe (later heartbeat rounds re-ping without resetting the clock).
    Waiting {
        /// Tick of the first unanswered probe.
        sent_at: u64,
    },
    /// The suspect timer expired without a pong.
    Suspected {
        /// Tick the watch moved to suspected.
        suspected_at: u64,
    },
}

/// One open watch in a prober's row of the watch table.
#[derive(Clone, Copy, Debug)]
struct Watch {
    /// The probed node's slot.
    target: u32,
    /// Where the watch stands.
    state: WatchState,
}

impl Watch {
    /// The tick at which the watch moves on: waiting → suspected, or
    /// suspected → confirmed.
    fn deadline(&self, cfg: &SuspicionConfig) -> u64 {
        match self.state {
            WatchState::Waiting { sent_at } => sent_at.saturating_add(cfg.suspect_after),
            WatchState::Suspected { suspected_at } => {
                suspected_at.saturating_add(cfg.confirm_after)
            }
        }
    }
}

/// An anti-entropy digest, valid while the ring epoch and the generation
/// of the state it summarizes are the ones it was computed at.
#[derive(Clone, Copy, Debug)]
struct CachedDigest {
    /// [`cq_overlay::Ring::epoch`] at computation.
    epoch: u64,
    /// The [`ChangeMarks`] generation of the digested state.
    generation: u64,
    /// `(entry count, commutative hash sum)`.
    digest: (u64, u64),
}

impl CachedDigest {
    /// The digest, if it is still current.
    fn current(&self, epoch: u64, generation: u64) -> Option<(u64, u64)> {
        (self.epoch == epoch && self.generation == generation).then_some(self.digest)
    }
}

/// Per-slot change marks for the anti-entropy digest cache: a generation
/// counter for each node's primary state and one for its replica store,
/// bumped by every path that mutates them (`dispatch`, protocol handlers,
/// promotion, transfers, leaves, failures, rejoins). Held by [`Network`]
/// rather than [`Recovery`] because promotion runs while the detector is
/// detached. Empty, and every bump a no-op, unless a detector is installed.
#[derive(Debug, Default)]
pub(crate) struct ChangeMarks {
    /// Primary-state generation per slot.
    primary: Vec<u64>,
    /// Replica-store generation per slot.
    replica: Vec<u64>,
}

impl ChangeMarks {
    /// Marks for `slots` node slots, all at generation zero.
    pub(crate) fn new(slots: usize) -> Self {
        ChangeMarks {
            primary: vec![0; slots],
            replica: vec![0; slots],
        }
    }

    /// Records a change to `h`'s primary tables or offline store.
    #[inline]
    pub(crate) fn primary(&mut self, h: NodeHandle) {
        if let Some(g) = self.primary.get_mut(h.index()) {
            *g += 1;
        }
    }

    /// Records a change to `h`'s replica store.
    #[inline]
    pub(crate) fn replica(&mut self, h: NodeHandle) {
        if let Some(g) = self.replica.get_mut(h.index()) {
            *g += 1;
        }
    }
}

/// Runtime state of the failure detector. Owned by [`Network`] when
/// [`SuspicionConfig::enabled`] is set; absent otherwise.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The configuration.
    cfg: SuspicionConfig,
    /// Mirror of the pipe's current tick (the pipe itself is moved out of
    /// the network while the pump runs, so sites like `fail_node_state`
    /// read the tick here).
    pub(crate) now: u64,
    /// Probe sequence counter (shared across nodes; probes are
    /// fire-and-forget so uniqueness is all that matters).
    probe_seq: u64,
    /// Open watches, one row per prober slot, each row sorted by target:
    /// walking the rows in slot order visits watches in (prober, target)
    /// order, the order sweeps emit events in.
    watches: Vec<Vec<Watch>>,
    /// No watch falls due before this tick, so the sweep is skipped until
    /// then. A pong may remove the watch that set it, which only makes it
    /// early (one sweep that finds nothing), never late.
    next_due: u64,
    /// The ring epoch at which dead probers' watches were last dropped.
    swept_epoch: Option<u64>,
    /// Scratch list of alive nodes for heartbeat and anti-entropy rounds.
    alive: Vec<NodeHandle>,
    /// Cached digest of each primary's owned state, by slot.
    primary_digests: Vec<Option<CachedDigest>>,
    /// Cached digests of the replicas each primary's successors hold for
    /// its range: by primary slot, then `(successor slot, digest)`.
    replica_digests: Vec<Vec<(u32, CachedDigest)>>,
    /// Failed-but-not-yet-confirmed nodes: slot → (failure pump tick,
    /// failure logical clock). Metrics/window bookkeeping only — the
    /// protocol never reads this map to decide anything, or the detector
    /// would be an oracle in disguise.
    pub(crate) undetected: FxHashMap<u32, (u64, u64)>,
    /// Closed detection windows as logical-clock intervals
    /// `[fail_clock, confirm_clock]`.
    windows: Vec<(u64, u64)>,
    /// Detected failures whose replica repair has not yet been verified by
    /// a clean anti-entropy round: `(slot, failure pump tick)`.
    repair_pending: Vec<(u32, u64)>,
    /// Next tick a heartbeat round fires.
    next_heartbeat: u64,
    /// Next tick an anti-entropy round fires.
    next_anti_entropy: u64,
}

impl Recovery {
    /// Fresh detector state for `slots` node slots.
    pub(crate) fn new(cfg: SuspicionConfig, slots: usize) -> Self {
        Recovery {
            cfg,
            now: 0,
            probe_seq: 0,
            watches: vec![Vec::new(); slots],
            next_due: u64::MAX,
            swept_epoch: None,
            alive: Vec::new(),
            primary_digests: vec![None; slots],
            replica_digests: vec![Vec::new(); slots],
            undetected: FxHashMap::default(),
            windows: Vec::new(),
            repair_pending: Vec::new(),
            next_heartbeat: 1,
            next_anti_entropy: cfg.anti_entropy_every.max(1),
        }
    }

    /// Whether detection or repair work is still outstanding (failures not
    /// yet confirmed, or confirmed but not yet verified repaired).
    pub(crate) fn pending(&self) -> bool {
        !self.undetected.is_empty() || !self.repair_pending.is_empty()
    }

    /// Opens a waiting watch `prober → target` unless one is already open
    /// (a re-ping never resets the clock).
    fn watch(&mut self, prober: u32, target: u32) {
        let row = &mut self.watches[prober as usize];
        if let Err(i) = row.binary_search_by_key(&target, |w| w.target) {
            let w = Watch {
                target,
                state: WatchState::Waiting { sent_at: self.now },
            };
            self.next_due = self.next_due.min(w.deadline(&self.cfg));
            row.insert(i, w);
        }
    }

    /// Closes the watch `prober → target`, returning its state if it was
    /// open.
    fn unwatch(&mut self, prober: u32, target: u32) -> Option<WatchState> {
        let row = &mut self.watches[prober as usize];
        let i = row.binary_search_by_key(&target, |w| w.target).ok()?;
        Some(row.remove(i).state)
    }

    /// The cached digest of `s`'s replicas of `p`'s range, if current.
    fn cached_replica(
        &self,
        p: NodeHandle,
        s: NodeHandle,
        epoch: u64,
        generation: u64,
    ) -> Option<(u64, u64)> {
        let s = s.index() as u32;
        self.replica_digests[p.index()]
            .iter()
            .find(|(t, _)| *t == s)
            .and_then(|(_, c)| c.current(epoch, generation))
    }

    /// Caches the digest of `s`'s replicas of `p`'s range, dropping
    /// entries from older epochs (their successors may have changed).
    fn store_replica(&mut self, p: NodeHandle, s: NodeHandle, c: CachedDigest) {
        let s = s.index() as u32;
        let row = &mut self.replica_digests[p.index()];
        row.retain(|(t, e)| *t != s && e.epoch == c.epoch);
        row.push((s, c));
    }
}

/// Digest hashes of the primary state `st` holds under identifiers
/// satisfying `pred` (the anti-entropy reference side; the replica side is
/// [`crate::replication::ReplicaStore::hashes_where`]).
fn primary_hashes(st: &NodeState, pred: impl Fn(Id) -> bool + Copy) -> FxHashSet<u64> {
    let mut out = FxHashSet::default();
    for e in st.alqt.entries() {
        if pred(e.index_id) {
            out.insert(hash_query(e));
        }
    }
    for e in st.vlqt.entries() {
        if pred(e.index_id) {
            out.insert(hash_rewritten(e));
        }
    }
    for e in st.vltt.entries() {
        if pred(e.index_id) {
            out.insert(hash_tuple(e));
        }
    }
    for (group, value_key, e) in st.vstore.entries() {
        if pred(e.index_id) {
            out.insert(hash_value_tuple(group, value_key, e));
        }
    }
    for (id, n) in &st.offline_store {
        if pred(*id) {
            out.insert(hash_offline(*id, n));
        }
    }
    out
}

/// Primary items under `pred` whose digest hash the replica side (`have`)
/// is missing — the anti-entropy repair payload.
fn missing_primary_items(
    st: &NodeState,
    pred: impl Fn(Id) -> bool + Copy,
    have: &FxHashSet<u64>,
) -> Vec<ReplicaItem> {
    let mut out = Vec::new();
    for e in st.alqt.entries() {
        if pred(e.index_id) && !have.contains(&hash_query(e)) {
            out.push(ReplicaItem::Query(e.clone()));
        }
    }
    for e in st.vlqt.entries() {
        if pred(e.index_id) && !have.contains(&hash_rewritten(e)) {
            out.push(ReplicaItem::Rewritten(e.clone()));
        }
    }
    for e in st.vltt.entries() {
        if pred(e.index_id) && !have.contains(&hash_tuple(e)) {
            out.push(ReplicaItem::Tuple(e.clone()));
        }
    }
    for (group, value_key, e) in st.vstore.entries() {
        if pred(e.index_id) && !have.contains(&hash_value_tuple(group, value_key, e)) {
            out.push(ReplicaItem::ValueTuple {
                group: group.to_string(),
                value_key: value_key.to_string(),
                entry: e.clone(),
            });
        }
    }
    for (id, n) in &st.offline_store {
        if pred(*id) && !have.contains(&hash_offline(*id, n)) {
            out.push(ReplicaItem::Offline {
                id: *id,
                notification: n.clone(),
            });
        }
    }
    out
}

impl Network {
    /// Whether the in-protocol failure detector is installed.
    #[inline]
    pub(crate) fn recovery_active(&self) -> bool {
        self.recovery.is_some()
    }

    /// Records an abrupt failure with the detector (window/metric
    /// bookkeeping only). Called by `fail_node_state`.
    pub(crate) fn note_failure(&mut self, slot: u32) {
        let clock = self.trace_tick();
        if let Some(rec) = self.recovery.as_mut() {
            rec.undetected.insert(slot, (rec.now, clock));
        }
    }

    /// A pong arrived at `prober` from slot `from`: clear the watch, and
    /// count a false suspicion if the target had already been suspected.
    pub(crate) fn on_pong(&mut self, prober: NodeHandle, from: u32) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let node = prober.index() as u32;
        let now = rec.now;
        let was_suspected = matches!(rec.unwatch(node, from), Some(WatchState::Suspected { .. }));
        if was_suspected {
            self.metrics.recovery.false_suspects += 1;
            self.trace(|| TraceEvent::FalseSuspect {
                tick: now,
                node,
                target: from,
            });
        }
    }

    /// One detector step, run at the top of every pump tick: heartbeat
    /// round, suspicion deadline sweep, anti-entropy round — each on its
    /// own cadence. A no-op when detection is disabled.
    pub(crate) fn recovery_tick(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        if self.recovery.is_none() {
            return Ok(());
        }
        // Invariant: is_none() returned above; take-and-restore releases the
        // &mut self borrow while the round runs.
        let mut rec = self.recovery.take().expect("checked above");
        rec.now = pipe.tick;
        let result = self
            .heartbeat_round(&mut rec)
            .and_then(|()| self.sweep_deadlines(&mut rec))
            .and_then(|()| self.anti_entropy_round(&mut rec));
        self.recovery = Some(rec);
        result
    }

    /// Sends one round of probes: every alive node pings every entry of its
    /// *local* successor list (which may be stale — that is the point).
    /// Existing watches are re-pinged without resetting their clocks.
    fn heartbeat_round(&mut self, rec: &mut Recovery) -> Result<()> {
        if rec.now < rec.next_heartbeat {
            return Ok(());
        }
        rec.next_heartbeat = rec.now + rec.cfg.heartbeat_every.max(1);
        rec.alive.clear();
        rec.alive.extend(self.ring.alive_nodes());
        for i in 0..rec.alive.len() {
            let p = rec.alive[i];
            let slot = p.index() as u32;
            for j in 0..self.ring.node(p).successor_list().len() {
                let t = self.ring.node(p).successor_list()[j];
                if t == p {
                    continue;
                }
                rec.watch(slot, t.index() as u32);
                let seq = rec.probe_seq;
                rec.probe_seq += 1;
                self.metrics.recovery.heartbeats_sent += 1;
                self.push_direct(p, t, Message::Ping { from: slot, seq });
            }
        }
        Ok(())
    }

    /// Advances watch deadlines: waiting → suspected → confirmed. A
    /// confirmation removes the watch, triggers stabilization + replica
    /// promotion, and — when the target really was dead — closes the
    /// detection window and opens a repair episode.
    ///
    /// Runs on every tick but walks the table only once `next_due` has
    /// come; watches of probers that died are dropped at the first tick
    /// after the membership change (a rejoined prober keeps them).
    fn sweep_deadlines(&mut self, rec: &mut Recovery) -> Result<()> {
        let epoch = self.ring.epoch();
        if rec.swept_epoch != Some(epoch) {
            rec.swept_epoch = Some(epoch);
            for (p, row) in rec.watches.iter_mut().enumerate() {
                if !row.is_empty() && !self.ring.node(NodeHandle::from_index(p)).is_alive() {
                    row.clear();
                }
            }
        }
        let now = rec.now;
        if now < rec.next_due {
            return Ok(());
        }
        let mut next_due = u64::MAX;
        let mut confirmed: Vec<(u32, u32)> = Vec::new();
        let mut suspected: Vec<(u32, u32)> = Vec::new();
        for (p, row) in rec.watches.iter_mut().enumerate() {
            let p = p as u32;
            for w in row.iter_mut() {
                if now >= w.deadline(&rec.cfg) {
                    match w.state {
                        WatchState::Waiting { .. } => {
                            w.state = WatchState::Suspected { suspected_at: now };
                            suspected.push((p, w.target));
                        }
                        WatchState::Suspected { .. } => {
                            confirmed.push((p, w.target));
                            continue;
                        }
                    }
                }
                next_due = next_due.min(w.deadline(&rec.cfg));
            }
        }
        rec.next_due = next_due;
        for (p, t) in suspected {
            self.metrics.recovery.suspects += 1;
            self.trace(|| TraceEvent::Suspect {
                tick: now,
                node: p,
                target: t,
            });
        }
        let mut repaired = false;
        for (p, t) in confirmed {
            rec.unwatch(p, t);
            let dead = !self
                .ring
                .node(NodeHandle::from_index(t as usize))
                .is_alive();
            self.metrics.recovery.confirms += 1;
            self.trace(|| TraceEvent::Confirm {
                tick: now,
                node: p,
                target: t,
                dead,
            });
            if !dead {
                // A slow-but-alive node was declared dead. Stabilization
                // and promotion below are harmless (the ring still lists
                // it; promotion extracts nothing it owns) — the cost is
                // the spurious repair work itself, which is the honest
                // price of an aggressive timeout.
                self.metrics.recovery.false_suspects += 1;
            } else if let Some((fail_tick, fail_clock)) = rec.undetected.remove(&t) {
                // First confirmation of this actually-dead node.
                self.metrics.recovery.detections += 1;
                self.metrics.recovery.detect_ticks_total += now.saturating_sub(fail_tick);
                rec.windows.push((fail_clock, self.trace_tick()));
                if rec.cfg.anti_entropy_every > 0 && self.repl_k() > 0 {
                    rec.repair_pending.push((t, fail_tick));
                } else {
                    // No digest rounds to verify against: promotion below
                    // is the whole repair.
                    self.metrics.recovery.repairs += 1;
                    self.metrics.recovery.repair_ticks_total += now.saturating_sub(fail_tick);
                }
            }
            repaired = true;
        }
        if repaired {
            self.ring.stabilize_all(1);
            self.promote_replicas()?;
        }
        Ok(())
    }

    /// One anti-entropy round: every alive primary digests its owned state
    /// against each of its `k` successors' replica stores and re-mirrors
    /// only the missing items. A globally clean round (nothing missing
    /// anywhere) closes all open repair episodes.
    ///
    /// Digests come from the cache unless the ring epoch or the digested
    /// state's [`ChangeMarks`] generation moved since they were computed;
    /// a miss re-hashes with one owned-range interval test per item.
    /// Debug builds recompute every digest the parent's way and assert the
    /// cached value equals it.
    fn anti_entropy_round(&mut self, rec: &mut Recovery) -> Result<()> {
        let k = self.repl_k();
        if k == 0 || rec.cfg.anti_entropy_every == 0 || rec.now < rec.next_anti_entropy {
            return Ok(());
        }
        rec.next_anti_entropy = rec.now + rec.cfg.anti_entropy_every;
        #[cfg(debug_assertions)]
        self.assert_digest_cache_fresh(rec);
        let now = rec.now;
        let epoch = self.ring.epoch();
        let space = self.ring.space();
        let tracing = self.trace_on();
        // Plan immutably first (digests borrow node state), then send.
        let mut plans: Vec<(NodeHandle, NodeHandle, Vec<ReplicaItem>)> = Vec::new();
        let mut exchanges: Vec<(u32, u32, u64, u64)> = Vec::new();
        let mut exchanged = 0u64;
        rec.alive.clear();
        rec.alive.extend(self.ring.alive_nodes());
        let n = rec.alive.len();
        for i in 0..n {
            let p = rec.alive[i];
            // `Ring::successors_of(p, k)` for an alive `p`: the next alive
            // nodes in identifier order, wrapping, never `p` itself.
            let succs = k.min(n - 1);
            if succs == 0 {
                continue;
            }
            let (lo, hi) = self.ring.owned_range(p)?;
            let owned = move |id: Id| space.in_open_closed(id, lo, hi);
            let generation = self.marks.primary[p.index()];
            let cached = &mut rec.primary_digests[p.index()];
            let pdig = match cached.and_then(|c| c.current(epoch, generation)) {
                Some(d) => d,
                None => {
                    let digest = digest_of(&primary_hashes(&self.nodes[p.index()], owned));
                    *cached = Some(CachedDigest {
                        epoch,
                        generation,
                        digest,
                    });
                    digest
                }
            };
            for j in 1..=succs {
                let s = rec.alive[(i + j) % n];
                let store = &self.nodes[s.index()].replicas;
                let generation = self.marks.replica[s.index()];
                let sdig = match rec.cached_replica(p, s, epoch, generation) {
                    Some(d) => d,
                    None => {
                        let digest = store.digest_where(owned);
                        rec.store_replica(
                            p,
                            s,
                            CachedDigest {
                                epoch,
                                generation,
                                digest,
                            },
                        );
                        digest
                    }
                };
                let missing = if sdig == pdig {
                    Vec::new()
                } else {
                    let mut have = FxHashSet::default();
                    store.hashes_where(owned, &mut have);
                    missing_primary_items(&self.nodes[p.index()], owned, &have)
                };
                exchanged += 1;
                if tracing {
                    exchanges.push((
                        p.index() as u32,
                        s.index() as u32,
                        pdig.0,
                        missing.len() as u64,
                    ));
                }
                if !missing.is_empty() {
                    plans.push((p, s, missing));
                }
            }
        }
        self.metrics.recovery.digest_exchanges += exchanged;
        for (node, to, items, missing) in exchanges {
            self.trace(|| TraceEvent::DigestExchange {
                tick: now,
                node,
                to,
                items,
                missing,
            });
        }
        let clean = plans.is_empty();
        for (p, s, items) in plans {
            let (node, to, count) = (p.index() as u32, s.index() as u32, items.len() as u64);
            // Exact repair cost: the serialized size of each re-mirror's
            // `Replicate` frame under the wire codec.
            let msgs: Vec<Message> = items
                .into_iter()
                .map(|item| Message::Replicate {
                    item: Box::new(item),
                })
                .collect();
            let bytes: u64 = msgs.iter().map(wire::encoded_len).sum();
            self.metrics.recovery.repair_items += count;
            self.metrics.recovery.repair_bytes += bytes;
            self.trace(|| TraceEvent::Repair {
                tick: now,
                node,
                to,
                items: count,
                bytes,
            });
            for msg in msgs {
                self.push_direct(p, s, msg);
            }
        }
        if clean && !rec.repair_pending.is_empty() {
            for (_, fail_tick) in rec.repair_pending.drain(..) {
                self.metrics.recovery.repairs += 1;
                self.metrics.recovery.repair_ticks_total += now.saturating_sub(fail_tick);
            }
        }
        Ok(())
    }

    /// Recomputes every digest the cache would serve as current, the
    /// uncached way (one [`cq_overlay::Ring::owns`] lookup per item), and
    /// panics on the first that differs. Debug builds run this at the top
    /// of every anti-entropy round, so a mutation path that misses its
    /// change mark fails whichever test exercises it.
    #[cfg(any(test, debug_assertions))]
    fn assert_digest_cache_fresh(&self, rec: &Recovery) {
        let epoch = self.ring.epoch();
        for (slot, cached) in rec.primary_digests.iter().enumerate() {
            let generation = self.marks.primary[slot];
            let Some(digest) = cached.and_then(|c| c.current(epoch, generation)) else {
                continue;
            };
            let p = NodeHandle::from_index(slot);
            let fresh = digest_of(&primary_hashes(&self.nodes[slot], |id| {
                self.ring.owns(p, id)
            }));
            assert_eq!(digest, fresh, "stale cached primary digest of slot {slot}");
        }
        for (slot, row) in rec.replica_digests.iter().enumerate() {
            let p = NodeHandle::from_index(slot);
            for &(s, cached) in row {
                let s = s as usize;
                let Some(digest) = cached.current(epoch, self.marks.replica[s]) else {
                    continue;
                };
                let fresh = self.nodes[s]
                    .replicas
                    .digest_where(|id| self.ring.owns(p, id));
                assert_eq!(
                    digest, fresh,
                    "stale cached digest of slot {s}'s replicas for primary {slot}"
                );
            }
        }
    }

    /// Drives the pump until the detector has confirmed every outstanding
    /// failure and verified its repair — forcing empty ticks if no protocol
    /// traffic keeps the clock moving. A no-op without a detector. Errors
    /// if detection cannot converge (e.g. more consecutive failures than
    /// the successor lists cover).
    pub fn settle(&mut self) -> Result<()> {
        self.process_all()?;
        if self.recovery.is_none() {
            return Ok(());
        }
        let Some(mut pipe) = self.transport.take_pipe() else {
            return Ok(());
        };
        let mut result = Ok(());
        let mut forced = 0u64;
        loop {
            let pending = self.recovery.as_ref().is_some_and(|r| r.pending());
            if !pending && !pipe.busy() && self.transport.is_idle() {
                break;
            }
            forced += 1;
            if forced > 100_000 {
                result = Err(EngineError::Protocol {
                    detail: "failure detection did not converge within 100000 forced ticks \
                             (more consecutive failures than successor lists cover?)"
                        .to_string(),
                });
                break;
            }
            if let Err(e) = self.force_tick(&mut pipe) {
                result = Err(e);
                break;
            }
        }
        self.transport.restore_pipe(pipe);
        result
    }

    /// One forced pump tick: folds queued sends into the pipe, then ticks.
    fn force_tick(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        while let Some(p) = self.transport.next_delivery()? {
            self.transmit(pipe, p);
        }
        self.pump_tick(pipe)
    }

    /// Forces `ticks` pump ticks whether or not any work is pending, so
    /// heartbeats, deadlines and digest rounds advance on an idle network
    /// (test and benchmark hook). A no-op without a detector.
    #[doc(hidden)]
    pub fn pump_ticks(&mut self, ticks: u64) -> Result<()> {
        if self.recovery.is_none() {
            return Ok(());
        }
        let Some(mut pipe) = self.transport.take_pipe() else {
            return Ok(());
        };
        let result = (0..ticks).try_for_each(|_| self.force_tick(&mut pipe));
        self.transport.restore_pipe(pipe);
        result
    }

    /// The detection windows observed so far, as closed logical-clock
    /// intervals `[fail, confirm]`; failures not yet confirmed yield
    /// half-open windows `[fail, u64::MAX]`. Tuples published inside any
    /// window have no delivery guarantee (the paper's best-effort
    /// semantics); everything outside must match the oracle.
    pub fn detection_windows(&self) -> Vec<(u64, u64)> {
        let Some(rec) = self.recovery.as_ref() else {
            return Vec::new();
        };
        let mut out = rec.windows.clone();
        for (_, fail_clock) in rec.undetected.values() {
            out.push((*fail_clock, u64::MAX));
        }
        out.sort_unstable();
        out
    }

    /// Failure-detection counters (alias for `metrics().recovery`).
    pub fn recovery_counters(&self) -> crate::metrics::RecoveryCounters {
        self.metrics.recovery
    }

    /// Runs one anti-entropy round immediately, regardless of cadence
    /// (test hook for divergence-repair scenarios).
    #[doc(hidden)]
    pub fn anti_entropy_now(&mut self) -> Result<()> {
        if self.recovery.is_none() {
            return Ok(());
        }
        // Invariant: is_none() returned above; take-and-restore releases the
        // &mut self borrow while the round runs.
        let mut rec = self.recovery.take().expect("checked above");
        rec.next_anti_entropy = rec.now;
        let result = self.anti_entropy_round(&mut rec);
        self.recovery = Some(rec);
        if result.is_ok() {
            return self.process_all();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let cfg = SuspicionConfig::default();
        assert!(!cfg.enabled);
    }

    #[test]
    fn active_profile_enables_and_scales() {
        let cfg = SuspicionConfig::active()
            .with_suspect_after(4)
            .with_confirm_after(4);
        assert!(cfg.enabled);
        assert_eq!(cfg.suspect_after, 4);
        assert_eq!(cfg.confirm_after, 4);
    }

    #[test]
    fn builder_setters_are_independent() {
        // `with_suspect_after` must not touch the confirmation grace (it
        // once silently overwrote it, making independent tuning impossible).
        let cfg = SuspicionConfig::active().with_suspect_after(3);
        assert_eq!(cfg.suspect_after, 3);
        assert_eq!(
            cfg.confirm_after,
            SuspicionConfig::default().confirm_after,
            "with_suspect_after must leave confirm_after alone"
        );
        let cfg = SuspicionConfig::active().with_confirm_after(5);
        assert_eq!(cfg.suspect_after, SuspicionConfig::default().suspect_after);
        assert_eq!(cfg.confirm_after, 5);
        // And the pair composes in either order.
        let cfg = SuspicionConfig::active()
            .with_confirm_after(9)
            .with_suspect_after(6);
        assert_eq!((cfg.suspect_after, cfg.confirm_after), (6, 9));
    }

    use crate::{Algorithm, EngineConfig, FaultConfig};
    use cq_relational::{Catalog, DataType, RelationSchema, Value};

    /// Panics if any digest the cache would serve is stale.
    fn assert_fresh(net: &Network) {
        let rec = net.recovery.as_deref().expect("detector installed");
        net.assert_digest_cache_fresh(rec);
    }

    /// Runs one anti-entropy round and checks the cache it leaves behind.
    fn round(net: &mut Network) {
        net.anti_entropy_now().unwrap();
        assert_fresh(net);
    }

    #[test]
    fn digest_cache_survives_mutations_that_bypass_dispatch() {
        // Between two anti-entropy rounds: a voluntary leave hands replicas
        // over, a reconnecting subscriber drains its offline notifications,
        // and a detected failure promotes replicas. None of these arrive
        // through `dispatch`; each must invalidate what it changes.
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("D", DataType::Int), ("E", DataType::Int)]).unwrap())
            .unwrap();
        let fault = FaultConfig {
            replication: 2,
            ..FaultConfig::default()
        };
        let mut net = Network::new(
            EngineConfig::new(Algorithm::DaiT)
                .with_nodes(24)
                .with_seed(5)
                .with_fault(fault)
                // Only the explicit hook runs digest rounds.
                .with_suspicion(SuspicionConfig::active().with_anti_entropy_every(1_000_000)),
            c,
        );
        let (a, sub) = (net.node_at(0), net.node_at(7));
        for from in [a, sub] {
            net.pose_query_sql(from, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                .unwrap();
        }
        for i in 0..8i64 {
            net.insert_tuple(a, "R", vec![Value::Int(i), Value::Int(i % 3)])
                .unwrap();
        }
        round(&mut net);
        round(&mut net);

        // Voluntary leave: primaries and replicas move to the successor.
        net.node_leave(sub).unwrap();
        assert_fresh(&net);
        round(&mut net);
        for i in 0..8i64 {
            net.insert_tuple(a, "S", vec![Value::Int(i), Value::Int(i % 3)])
                .unwrap();
        }
        round(&mut net);
        round(&mut net);

        // Reconnect: the held notifications leave the offline store.
        net.node_rejoin(sub).unwrap();
        assert!(!net.inbox(sub).is_empty(), "offline notifications drained");
        assert_fresh(&net);
        round(&mut net);
        round(&mut net);

        // Abrupt failure, a round at the new epoch, then promotion by the
        // detector with no membership change in between.
        let victim = (0..net.alive_count())
            .map(|i| net.node_at(i))
            .filter(|&h| h != a && h != sub)
            .max_by_key(|&h| net.node_state(h).storage_load())
            .unwrap();
        assert!(net.node_state(victim).storage_load() > 0);
        net.node_fail(victim).unwrap();
        round(&mut net);
        let promoted = net.metrics().faults.replicas_promoted;
        while net.recovery_counters().detections == 0 {
            net.pump_ticks(1).unwrap();
        }
        assert!(
            net.metrics().faults.replicas_promoted > promoted,
            "the detector promoted replicas"
        );
        assert_fresh(&net);
        round(&mut net);
        round(&mut net);
        let repairs = net.recovery_counters().repair_items;
        round(&mut net);
        assert_eq!(
            net.recovery_counters().repair_items,
            repairs,
            "converged replicas need no further repair"
        );
    }

    #[test]
    fn recovery_starts_idle() {
        let rec = Recovery::new(SuspicionConfig::active(), 4);
        assert!(!rec.pending());
        assert_eq!(rec.next_heartbeat, 1);
    }
}
