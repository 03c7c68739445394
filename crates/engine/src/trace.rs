//! Structured, causal event tracing across overlay → engine → sim.
//!
//! The paper's evaluation is built entirely on per-message accounting
//! (hops, filtering load, storage load, notifications), yet a finished run
//! only exposes the final [`crate::metrics::Metrics`] snapshot. This module
//! adds the missing window: every interesting engine action — a message
//! send with its hop-by-hop route, a fault decision, an index mutation, a
//! join evaluation, a replica promotion — can be emitted as a typed
//! [`TraceEvent`] into a pluggable [`TraceSink`].
//!
//! Design constraints:
//!
//! * **Zero cost when off.** The network holds an `Option<Arc<dyn
//!   TraceSink>>` that defaults to `None`; every emission site is a single
//!   branch on that option and builds the event inside a closure, so the
//!   disabled path allocates nothing and the simulation output is
//!   byte-identical with tracing compiled in.
//! * **Pure observation.** Sinks receive `&TraceEvent` and can never touch
//!   engine state, the RNG, or the metrics — enabling a sink cannot change
//!   a run's results, only record them.
//! * **Causality.** Every event carries the simulated tick (the network's
//!   logical clock) and the emitting node slot. Message events additionally
//!   carry a `(sender, seq)` [`MsgId`], so a delivered notification can be
//!   traced back through evaluator → rewriter → publisher hop by hop.
//!
//! Three sinks ship with the engine: [`RingBufferSink`] (bounded in-memory
//! buffer, used by trace-driven tests), [`FileSink`] (streams every event
//! to a file in a [`TraceFormat`] — one JSON object per line, or one
//! `engine::wire` frame per event — and aggregates per-kind counts and
//! per-node hop histograms into a [`TraceSummary`] behind the same lock),
//! and [`TeeSink`] (fans one event stream into several sinks).

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use cq_fasthash::FxHashMap;
use cq_overlay::Id;

pub use crate::faults::MsgId;

/// One traced engine action. Every variant carries `tick` (the network's
/// logical clock when the event happened) and `node` (the slot of the node
/// the action is attributed to).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A protocol message left `node` toward `to` (resolved receiver).
    /// `path`, when captured, is the hop-by-hop overlay route starting at
    /// the sender (`path.len() - 1` hops); multisend batch members share
    /// their fan-out tree and carry no individual path.
    MsgSend {
        /// Logical clock at emission.
        tick: u64,
        /// Sending node slot.
        node: u32,
        /// `(sender, seq)` message identifier.
        id: MsgId,
        /// Resolved receiver slot.
        to: u32,
        /// The identifier the message is addressed to.
        target: Id,
        /// Message kind label ([`crate::messages::Message::kind`]).
        kind: &'static str,
        /// Hop-by-hop route, sender first (unicast sends only).
        path: Option<Vec<u32>>,
    },
    /// A protocol message was handed to its receiver's handler.
    MsgDeliver {
        /// Logical clock at delivery.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// `(sender, seq)` message identifier.
        id: MsgId,
        /// Message kind label.
        kind: &'static str,
    },
    /// The fault layer dropped one transmission copy (a loss draw, a lost
    /// ack, or a receiver that died in flight).
    FaultDrop {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
    },
    /// The fault layer duplicated a transmission (two copies sent).
    FaultDuplicate {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
    },
    /// The fault layer delayed a transmission copy by `extra` pump ticks.
    FaultDelay {
        /// Logical clock.
        tick: u64,
        /// Intended receiver slot.
        node: u32,
        /// The affected message.
        id: MsgId,
        /// Extra delay in pump ticks.
        extra: u64,
    },
    /// The reliable-delivery layer retransmitted an unacknowledged message.
    Retransmit {
        /// Logical clock.
        tick: u64,
        /// Original sender slot (retransmissions originate here).
        node: u32,
        /// The retransmitted message.
        id: MsgId,
        /// Retransmission attempt number (1-based).
        attempt: u32,
    },
    /// A receiver's dedup window suppressed a duplicate arrival.
    DedupSuppressed {
        /// Logical clock.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// The suppressed message.
        id: MsgId,
    },
    /// A node failed abruptly (fault injection or scripted churn).
    NodeFailed {
        /// Logical clock.
        tick: u64,
        /// The victim's slot.
        node: u32,
    },
    /// An entry was inserted into one of a node's index tables.
    IndexInsert {
        /// Logical clock.
        tick: u64,
        /// Owning node slot.
        node: u32,
        /// Table name: `"alqt"`, `"vlqt"`, `"vltt"` or `"vstore"`.
        table: &'static str,
        /// `false` when the insert was a dedup hit (entry already present).
        fresh: bool,
    },
    /// Entries left one of a node's index tables (a failure wiped them, or
    /// churn transferred them to a new owner).
    IndexRemove {
        /// Logical clock.
        tick: u64,
        /// The node the entries left.
        node: u32,
        /// Table name (or `"offline-store"` / `"all"` for transfers).
        table: &'static str,
        /// Number of entries removed.
        removed: u64,
        /// Why: `"fail"`, `"leave"` or `"transfer"`.
        reason: &'static str,
    },
    /// An evaluator matched rewritten queries against stored candidates.
    JoinEval {
        /// Logical clock.
        tick: u64,
        /// Evaluator node slot.
        node: u32,
        /// Candidate pairs checked (the filtering load of this evaluation).
        candidates: u64,
        /// Pairs that actually matched (notifications produced).
        matches: u64,
    },
    /// Notifications arrived at a subscriber inbox (`offline == false`) or
    /// an offline successor store (`offline == true`). In counts mode
    /// (retention off) the event is emitted at the accounting site instead,
    /// since no message is materialized.
    NotifyDelivered {
        /// Logical clock.
        tick: u64,
        /// Receiving node slot.
        node: u32,
        /// Notifications in the batch.
        count: u64,
        /// Whether they went to an offline store rather than an inbox.
        offline: bool,
    },
    /// A primary item was mirrored onto a successor (k-successor
    /// replication).
    Replicate {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor receiving the mirror.
        to: u32,
    },
    /// A node promoted replicas into its primary tables after a failure.
    Promote {
        /// Logical clock.
        tick: u64,
        /// The promoting node's slot.
        node: u32,
        /// Entries promoted.
        items: u64,
    },
    /// A named simulation phase began (emitted by the sim harness so traces
    /// can be segmented into warm-up / install / measured stream).
    Phase {
        /// Logical clock at the phase boundary.
        tick: u64,
        /// Phase name.
        name: String,
    },
    /// A watcher's probe to `target` timed out: the target is now suspected
    /// (failure detection, `engine::recovery`).
    Suspect {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The suspected node's slot.
        target: u32,
    },
    /// A suspicion aged past the confirmation timeout: the watcher declared
    /// `target` dead and triggered stabilization + replica promotion.
    Confirm {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The declared-dead node's slot.
        target: u32,
        /// Whether the target really was dead (`false` marks a false
        /// confirmation of a slow-but-alive node).
        dead: bool,
    },
    /// A suspected node answered a probe after all (or was found alive at
    /// confirmation time): the suspicion was false.
    FalseSuspect {
        /// Logical clock.
        tick: u64,
        /// The watching node's slot.
        node: u32,
        /// The wrongly suspected node's slot.
        target: u32,
    },
    /// An anti-entropy round compared a primary's per-range digest with one
    /// of its successors' replica stores.
    DigestExchange {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor whose replica store was compared.
        to: u32,
        /// Entries in the primary's range digest.
        items: u64,
        /// Entries the successor's store was missing.
        missing: u64,
    },
    /// Anti-entropy re-mirrored missing replica items onto a successor.
    Repair {
        /// Logical clock.
        tick: u64,
        /// The primary's slot.
        node: u32,
        /// The successor receiving the re-mirrored items.
        to: u32,
        /// Items re-mirrored.
        items: u64,
        /// Approximate wire bytes of the re-mirrored items.
        bytes: u64,
    },
}

impl TraceEvent {
    /// Short stable label of the event kind (the `"ev"` field in JSONL).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MsgSend { .. } => "msg-send",
            TraceEvent::MsgDeliver { .. } => "msg-deliver",
            TraceEvent::FaultDrop { .. } => "fault-drop",
            TraceEvent::FaultDuplicate { .. } => "fault-dup",
            TraceEvent::FaultDelay { .. } => "fault-delay",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::DedupSuppressed { .. } => "dedup",
            TraceEvent::NodeFailed { .. } => "node-fail",
            TraceEvent::IndexInsert { .. } => "index-insert",
            TraceEvent::IndexRemove { .. } => "index-remove",
            TraceEvent::JoinEval { .. } => "join-eval",
            TraceEvent::NotifyDelivered { .. } => "notify",
            TraceEvent::Replicate { .. } => "replicate",
            TraceEvent::Promote { .. } => "promote",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Suspect { .. } => "suspect",
            TraceEvent::Confirm { .. } => "confirm",
            TraceEvent::FalseSuspect { .. } => "false-suspect",
            TraceEvent::DigestExchange { .. } => "digest-exchange",
            TraceEvent::Repair { .. } => "repair",
        }
    }

    /// Index of this event's kind in [`TraceEvent::KINDS`] — a direct
    /// discriminant map so per-event summary accounting never does string
    /// comparisons.
    pub fn kind_index(&self) -> usize {
        match self {
            TraceEvent::MsgSend { .. } => 0,
            TraceEvent::MsgDeliver { .. } => 1,
            TraceEvent::FaultDrop { .. } => 2,
            TraceEvent::FaultDuplicate { .. } => 3,
            TraceEvent::FaultDelay { .. } => 4,
            TraceEvent::Retransmit { .. } => 5,
            TraceEvent::DedupSuppressed { .. } => 6,
            TraceEvent::NodeFailed { .. } => 7,
            TraceEvent::IndexInsert { .. } => 8,
            TraceEvent::IndexRemove { .. } => 9,
            TraceEvent::JoinEval { .. } => 10,
            TraceEvent::NotifyDelivered { .. } => 11,
            TraceEvent::Replicate { .. } => 12,
            TraceEvent::Promote { .. } => 13,
            TraceEvent::Phase { .. } => 14,
            TraceEvent::Suspect { .. } => 15,
            TraceEvent::Confirm { .. } => 16,
            TraceEvent::FalseSuspect { .. } => 17,
            TraceEvent::DigestExchange { .. } => 18,
            TraceEvent::Repair { .. } => 19,
        }
    }

    /// All kind labels, in a stable order (used by summaries).
    pub const KINDS: [&'static str; 20] = [
        "msg-send",
        "msg-deliver",
        "fault-drop",
        "fault-dup",
        "fault-delay",
        "retransmit",
        "dedup",
        "node-fail",
        "index-insert",
        "index-remove",
        "join-eval",
        "notify",
        "replicate",
        "promote",
        "phase",
        "suspect",
        "confirm",
        "false-suspect",
        "digest-exchange",
        "repair",
    ];

    /// The logical clock the event carries.
    pub fn tick(&self) -> u64 {
        match self {
            TraceEvent::MsgSend { tick, .. }
            | TraceEvent::MsgDeliver { tick, .. }
            | TraceEvent::FaultDrop { tick, .. }
            | TraceEvent::FaultDuplicate { tick, .. }
            | TraceEvent::FaultDelay { tick, .. }
            | TraceEvent::Retransmit { tick, .. }
            | TraceEvent::DedupSuppressed { tick, .. }
            | TraceEvent::NodeFailed { tick, .. }
            | TraceEvent::IndexInsert { tick, .. }
            | TraceEvent::IndexRemove { tick, .. }
            | TraceEvent::JoinEval { tick, .. }
            | TraceEvent::NotifyDelivered { tick, .. }
            | TraceEvent::Replicate { tick, .. }
            | TraceEvent::Promote { tick, .. }
            | TraceEvent::Phase { tick, .. }
            | TraceEvent::Suspect { tick, .. }
            | TraceEvent::Confirm { tick, .. }
            | TraceEvent::FalseSuspect { tick, .. }
            | TraceEvent::DigestExchange { tick, .. }
            | TraceEvent::Repair { tick, .. } => *tick,
        }
    }

    /// The node slot the event is attributed to (`u32::MAX` for [`Phase`],
    /// which is network-wide).
    ///
    /// [`Phase`]: TraceEvent::Phase
    pub fn node(&self) -> u32 {
        match self {
            TraceEvent::MsgSend { node, .. }
            | TraceEvent::MsgDeliver { node, .. }
            | TraceEvent::FaultDrop { node, .. }
            | TraceEvent::FaultDuplicate { node, .. }
            | TraceEvent::FaultDelay { node, .. }
            | TraceEvent::Retransmit { node, .. }
            | TraceEvent::DedupSuppressed { node, .. }
            | TraceEvent::NodeFailed { node, .. }
            | TraceEvent::IndexInsert { node, .. }
            | TraceEvent::IndexRemove { node, .. }
            | TraceEvent::JoinEval { node, .. }
            | TraceEvent::NotifyDelivered { node, .. }
            | TraceEvent::Replicate { node, .. }
            | TraceEvent::Promote { node, .. }
            | TraceEvent::Suspect { node, .. }
            | TraceEvent::Confirm { node, .. }
            | TraceEvent::FalseSuspect { node, .. }
            | TraceEvent::DigestExchange { node, .. }
            | TraceEvent::Repair { node, .. } => *node,
            TraceEvent::Phase { .. } => u32::MAX,
        }
    }

    /// The `(sender, seq)` message identifier, for message-level events.
    pub fn msg_id(&self) -> Option<MsgId> {
        match self {
            TraceEvent::MsgSend { id, .. }
            | TraceEvent::MsgDeliver { id, .. }
            | TraceEvent::FaultDrop { id, .. }
            | TraceEvent::FaultDuplicate { id, .. }
            | TraceEvent::FaultDelay { id, .. }
            | TraceEvent::Retransmit { id, .. }
            | TraceEvent::DedupSuppressed { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline). The
    /// format is flat and hand-rolled — the workspace vendors no serde. It
    /// is the human-readable rendering only: the binary `engine::wire`
    /// frame is the format that decodes back to events.
    ///
    /// Integers are formatted manually rather than through `write!` (the
    /// `std::fmt` machinery costs ~100 ns per call), adjacent literals are
    /// pre-merged per variant, and the line is staged in a fixed stack
    /// buffer so `out` sees one `extend_from_slice` per event rather than
    /// one per field (~40% cheaper): sink `record` runs a few hundred
    /// thousand times per traced experiment, and this function is nearly
    /// all of that cost.
    pub fn append_jsonl(&self, out: &mut Vec<u8>) -> usize {
        let mut line = Scratch::new(out);
        // One flat match: each arm emits its complete line, so serializing
        // costs a single jump-table dispatch per event. Going through the
        // kind/tick/node/id helper accessors instead would re-match the
        // variant four extra times per record, and on a mixed event stream
        // those indirect branches mispredict. The arm's kind index is
        // returned so [`FileSink`] can account the event without a second
        // dispatch.
        let kind = match self {
            TraceEvent::MsgSend {
                tick,
                node,
                id,
                to,
                target,
                kind,
                path,
            } => {
                line.head(b"{\"ev\":\"msg-send\",\"tick\":", *tick, *node);
                line.put_id(*id);
                line.lit(b",\"to\":");
                line.put_u64(*to as u64);
                line.lit(b",\"target\":");
                line.put_u64(target.0);
                line.lit(b",\"kind\":\"");
                line.put(kind.as_bytes());
                line.lit(b"\"");
                if let Some(p) = path {
                    line.lit(b",\"path\":[");
                    for (i, n) in p.iter().enumerate() {
                        if i > 0 {
                            line.lit(b",");
                        }
                        line.put_u64(*n as u64);
                    }
                    line.lit(b"]");
                }
                0
            }
            TraceEvent::MsgDeliver {
                tick,
                node,
                id,
                kind,
            } => {
                line.head(b"{\"ev\":\"msg-deliver\",\"tick\":", *tick, *node);
                line.put_id(*id);
                line.lit(b",\"kind\":\"");
                line.put(kind.as_bytes());
                line.lit(b"\"");
                1
            }
            TraceEvent::FaultDrop { tick, node, id } => {
                line.head(b"{\"ev\":\"fault-drop\",\"tick\":", *tick, *node);
                line.put_id(*id);
                2
            }
            TraceEvent::FaultDuplicate { tick, node, id } => {
                line.head(b"{\"ev\":\"fault-dup\",\"tick\":", *tick, *node);
                line.put_id(*id);
                3
            }
            TraceEvent::FaultDelay {
                tick,
                node,
                id,
                extra,
            } => {
                line.head(b"{\"ev\":\"fault-delay\",\"tick\":", *tick, *node);
                line.put_id(*id);
                line.lit(b",\"extra\":");
                line.put_u64(*extra);
                4
            }
            TraceEvent::Retransmit {
                tick,
                node,
                id,
                attempt,
            } => {
                line.head(b"{\"ev\":\"retransmit\",\"tick\":", *tick, *node);
                line.put_id(*id);
                line.lit(b",\"attempt\":");
                line.put_u64(*attempt as u64);
                5
            }
            TraceEvent::DedupSuppressed { tick, node, id } => {
                line.head(b"{\"ev\":\"dedup\",\"tick\":", *tick, *node);
                line.put_id(*id);
                6
            }
            TraceEvent::NodeFailed { tick, node } => {
                line.head(b"{\"ev\":\"node-fail\",\"tick\":", *tick, *node);
                7
            }
            TraceEvent::IndexInsert {
                tick,
                node,
                table,
                fresh,
            } => {
                line.head(b"{\"ev\":\"index-insert\",\"tick\":", *tick, *node);
                line.lit(b",\"table\":\"");
                line.put(table.as_bytes());
                // `fresh` is true for almost every insert; the default is
                // omitted to keep the common line short.
                if *fresh {
                    line.lit(b"\"");
                } else {
                    line.lit(b"\",\"fresh\":false");
                }
                8
            }
            TraceEvent::IndexRemove {
                tick,
                node,
                table,
                removed,
                reason,
            } => {
                line.head(b"{\"ev\":\"index-remove\",\"tick\":", *tick, *node);
                line.lit(b",\"table\":\"");
                line.put(table.as_bytes());
                line.lit(b"\",\"removed\":");
                line.put_u64(*removed);
                line.lit(b",\"reason\":\"");
                line.put(reason.as_bytes());
                line.lit(b"\"");
                9
            }
            TraceEvent::JoinEval {
                tick,
                node,
                candidates,
                matches,
            } => {
                line.head(b"{\"ev\":\"join-eval\",\"tick\":", *tick, *node);
                line.lit(b",\"candidates\":");
                line.put_u64(*candidates);
                line.lit(b",\"matches\":");
                line.put_u64(*matches);
                10
            }
            TraceEvent::NotifyDelivered {
                tick,
                node,
                count,
                offline,
            } => {
                line.head(b"{\"ev\":\"notify\",\"tick\":", *tick, *node);
                line.lit(b",\"count\":");
                line.put_u64(*count);
                // Inbox delivery is the overwhelmingly common case; the
                // default `offline:false` is omitted.
                if *offline {
                    line.lit(b",\"offline\":true");
                }
                11
            }
            TraceEvent::Replicate { tick, node, to } => {
                line.head(b"{\"ev\":\"replicate\",\"tick\":", *tick, *node);
                line.lit(b",\"to\":");
                line.put_u64(*to as u64);
                12
            }
            TraceEvent::Promote { tick, node, items } => {
                line.head(b"{\"ev\":\"promote\",\"tick\":", *tick, *node);
                line.lit(b",\"items\":");
                line.put_u64(*items);
                13
            }
            TraceEvent::Phase { tick, name } => {
                line.head(b"{\"ev\":\"phase\",\"tick\":", *tick, u32::MAX);
                line.lit(b",\"name\":\"");
                for c in name.chars() {
                    match c {
                        '"' => line.lit(b"\\\""),
                        '\\' => line.lit(b"\\\\"),
                        '\n' => line.lit(b"\\n"),
                        c if (c as u32) < 0x20 => {
                            use std::fmt::Write;
                            let mut esc = String::with_capacity(6);
                            let _ = write!(esc, "\\u{:04x}", c as u32);
                            line.put(esc.as_bytes());
                        }
                        c => line.put(c.encode_utf8(&mut [0u8; 4]).as_bytes()),
                    }
                }
                line.lit(b"\"");
                14
            }
            TraceEvent::Suspect { tick, node, target } => {
                line.head(b"{\"ev\":\"suspect\",\"tick\":", *tick, *node);
                line.lit(b",\"target\":");
                line.put_u64(*target as u64);
                15
            }
            TraceEvent::Confirm {
                tick,
                node,
                target,
                dead,
            } => {
                line.head(b"{\"ev\":\"confirm\",\"tick\":", *tick, *node);
                line.lit(b",\"target\":");
                line.put_u64(*target as u64);
                // Confirms of genuinely dead nodes are the common case; the
                // default `dead:true` is omitted.
                if !dead {
                    line.lit(b",\"dead\":false");
                }
                16
            }
            TraceEvent::FalseSuspect { tick, node, target } => {
                line.head(b"{\"ev\":\"false-suspect\",\"tick\":", *tick, *node);
                line.lit(b",\"target\":");
                line.put_u64(*target as u64);
                17
            }
            TraceEvent::DigestExchange {
                tick,
                node,
                to,
                items,
                missing,
            } => {
                line.head(b"{\"ev\":\"digest-exchange\",\"tick\":", *tick, *node);
                line.lit(b",\"to\":");
                line.put_u64(*to as u64);
                line.lit(b",\"items\":");
                line.put_u64(*items);
                line.lit(b",\"missing\":");
                line.put_u64(*missing);
                18
            }
            TraceEvent::Repair {
                tick,
                node,
                to,
                items,
                bytes,
            } => {
                line.head(b"{\"ev\":\"repair\",\"tick\":", *tick, *node);
                line.lit(b",\"to\":");
                line.put_u64(*to as u64);
                line.lit(b",\"items\":");
                line.put_u64(*items);
                line.lit(b",\"bytes\":");
                line.put_u64(*bytes);
                19
            }
        };
        line.lit(b"}");
        line.finish();
        kind
    }

    /// [`TraceEvent::append_jsonl`] into a `String` (convenience for tests
    /// and tooling; the sinks use the byte-level variant directly).
    pub fn to_jsonl(&self, out: &mut String) {
        let mut bytes = Vec::with_capacity(128);
        self.append_jsonl(&mut bytes);
        out.push_str(std::str::from_utf8(&bytes).expect("JSONL is ASCII or escaped UTF-8"));
    }
}

/// Stack staging buffer for [`TraceEvent::append_jsonl`]: fields accumulate
/// in a fixed array so the destination `Vec` sees one `extend_from_slice`
/// per event instead of one per field. The rare line that outgrows the
/// array (a very long route path, an adversarial phase name) spills through
/// the cold path and stays correct.
const SCRATCH_LEN: usize = 256;

struct Scratch<'a> {
    out: &'a mut Vec<u8>,
    buf: [u8; SCRATCH_LEN],
    n: usize,
}

impl<'a> Scratch<'a> {
    #[inline(always)]
    fn new(out: &'a mut Vec<u8>) -> Self {
        Scratch {
            out,
            buf: [0u8; SCRATCH_LEN],
            n: 0,
        }
    }

    #[inline(always)]
    fn put(&mut self, s: &[u8]) {
        if self.n + s.len() <= SCRATCH_LEN {
            self.buf[self.n..self.n + s.len()].copy_from_slice(s);
            self.n += s.len();
        } else {
            self.spill(s);
        }
    }

    /// `put` for compile-time-sized literals: the copy inlines to
    /// fixed-size stores instead of a length-dispatched `memcpy`.
    #[inline(always)]
    fn lit<const N: usize>(&mut self, s: &[u8; N]) {
        if self.n + N <= SCRATCH_LEN {
            self.buf[self.n..self.n + N].copy_from_slice(s);
            self.n += N;
        } else {
            self.spill(s);
        }
    }

    /// Overflow path: drain the staged bytes, then retry (or bypass the
    /// array entirely for a chunk that could never fit).
    #[cold]
    fn spill(&mut self, s: &[u8]) {
        self.out.extend_from_slice(&self.buf[..self.n]);
        self.n = 0;
        if s.len() <= SCRATCH_LEN {
            self.buf[..s.len()].copy_from_slice(s);
            self.n = s.len();
        } else {
            self.out.extend_from_slice(s);
        }
    }

    /// The shared line head: static `{"ev":...,"tick":` prefix, tick and
    /// `,"node":` value.
    #[inline(always)]
    fn head(&mut self, prefix: &[u8], tick: u64, node: u32) {
        self.put(prefix);
        self.put_u64(tick);
        self.lit(b",\"node\":");
        self.put_u64(node as u64);
    }

    /// The `,"id":[sender,seq]` field shared by message-level events.
    #[inline(always)]
    fn put_id(&mut self, id: MsgId) {
        self.lit(b",\"id\":[");
        self.put_u64(id.0 as u64);
        self.lit(b",");
        self.put_u64(id.1);
        self.lit(b"]");
    }

    /// Appends `v` in decimal without going through `std::fmt` (the
    /// `std::fmt` machinery costs ~100 ns per call); pairs of digits come
    /// from a lookup table to halve the divide chain.
    #[inline(always)]
    fn put_u64(&mut self, mut v: u64) {
        const DIGITS2: [u8; 200] = {
            let mut t = [0u8; 200];
            let mut i = 0;
            while i < 100 {
                t[i * 2] = b'0' + (i / 10) as u8;
                t[i * 2 + 1] = b'0' + (i % 10) as u8;
                i += 1;
            }
            t
        };
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        while v >= 100 {
            let d = ((v % 100) as usize) * 2;
            v /= 100;
            i -= 2;
            tmp[i] = DIGITS2[d];
            tmp[i + 1] = DIGITS2[d + 1];
        }
        if v >= 10 {
            let d = (v as usize) * 2;
            i -= 2;
            tmp[i] = DIGITS2[d];
            tmp[i + 1] = DIGITS2[d + 1];
        } else {
            i -= 1;
            tmp[i] = b'0' + v as u8;
        }
        self.put(&tmp[i..]);
    }

    #[inline(always)]
    fn finish(self) {
        self.out.extend_from_slice(&self.buf[..self.n]);
    }
}

/// A consumer of trace events. Implementations must be cheap and
/// side-effect-free with respect to the engine: they observe, never steer.
pub trait TraceSink: Send + Sync {
    /// Receives one event. Called synchronously on the simulation thread.
    fn record(&self, ev: &TraceEvent);
}

/// A bounded in-memory buffer keeping the most recent events. Used by
/// trace-driven tests and post-mortem inspection of small runs.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
}

impl RingBufferSink {
    /// A buffer holding at most `cap` events (older ones are dropped).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("trace buffer")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace buffer").len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, ev: &TraceEvent) {
        let mut buf = self.buf.lock().expect("trace buffer");
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// The on-disk encoding of a [`FileSink`]'s trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line ([`TraceEvent::append_jsonl`], `.jsonl`) —
    /// greppable, the default.
    #[default]
    Jsonl,
    /// One length-prefixed `engine::wire` frame per event
    /// ([`crate::wire::encode_trace_event`], `.trace`) — compact, and the
    /// format that decodes back to events; the sim's `trace_dump` tool
    /// renders it as the identical JSONL.
    Binary,
}

impl TraceFormat {
    /// The trace-file extension for this format.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "trace",
        }
    }

    /// Bytes buffered before the next `write(2)`. JSONL lines are sized to
    /// stay cache-resident rather than stream through a megabyte of cold
    /// lines; binary frames average tens of bytes, so a traced run emits
    /// hundreds of thousands of tiny appends, and a 1 MiB mark amortizes
    /// them to a handful of syscalls per run.
    fn high_water(self) -> usize {
        match self {
            TraceFormat::Jsonl => 1 << 18,
            TraceFormat::Binary => 1 << 20,
        }
    }
}

/// The write half of [`FileSink`]: events serialize straight into one
/// large byte buffer that is written out whenever it crosses the format's
/// high-water mark — no per-line intermediate, no `BufWriter` copy.
#[derive(Debug)]
struct TraceWriter {
    file: File,
    buf: Vec<u8>,
    format: TraceFormat,
}

impl TraceWriter {
    fn create(path: impl AsRef<Path>, format: TraceFormat) -> std::io::Result<Self> {
        Ok(TraceWriter {
            file: File::create(path)?,
            // headroom for the line or frame that crosses the mark
            buf: Vec::with_capacity(format.high_water() + 512),
            format,
        })
    }

    /// Appends one event; returns its kind index so the summary can
    /// account it without re-matching the variant.
    #[inline]
    fn append(&mut self, ev: &TraceEvent) -> usize {
        let kind = match self.format {
            TraceFormat::Jsonl => self.append_line(ev),
            TraceFormat::Binary => self.append_frame(ev),
        };
        if self.buf.len() >= self.format.high_water() {
            // An I/O error mid-trace must not kill the simulation; the
            // flush() at the end of a run surfaces persistent failures.
            let _ = self.file.write_all(&self.buf);
            self.buf.clear();
        }
        kind
    }

    #[inline]
    fn append_line(&mut self, ev: &TraceEvent) -> usize {
        let kind = ev.append_jsonl(&mut self.buf);
        self.buf.push(b'\n');
        kind
    }

    /// Out of line on purpose: with the wire encoder inlined next to
    /// `append_jsonl`, traced JSONL runs measured 5–8% more CPU.
    #[inline(never)]
    fn append_frame(&mut self, ev: &TraceEvent) -> usize {
        crate::wire::encode_trace_event(ev, &mut self.buf);
        ev.kind_index()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.file.flush()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Aggregate view of one trace: per-kind event counts and, for routed
/// sends, a per-node histogram of hop counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Events seen per kind label, in [`TraceEvent::KINDS`] order.
    pub counts: Vec<(&'static str, u64)>,
    /// For each sending node slot: `hist[h]` = number of traced unicast
    /// sends whose route consumed exactly `h` overlay hops.
    pub hop_histograms: FxHashMap<u32, Vec<u64>>,
}

impl TraceSummary {
    /// Count of one event kind (0 when absent).
    pub fn count_of(&self, kind: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// Builds a [`TraceSummary`] incrementally.
#[derive(Debug, Default)]
struct SummaryState {
    counts: [u64; TraceEvent::KINDS.len()],
    hops: FxHashMap<u32, Vec<u64>>,
}

impl SummaryState {
    /// Accounts one event whose kind index the writer already computed.
    fn note(&mut self, kind: usize, ev: &TraceEvent) {
        self.counts[kind] += 1;
        if let TraceEvent::MsgSend {
            node,
            path: Some(p),
            ..
        } = ev
        {
            let hops = p.len().saturating_sub(1);
            let hist = self.hops.entry(*node).or_default();
            if hist.len() <= hops {
                hist.resize(hops + 1, 0);
            }
            hist[hops] += 1;
        }
    }

    fn to_summary(&self) -> TraceSummary {
        TraceSummary {
            counts: TraceEvent::KINDS
                .iter()
                .zip(self.counts.iter())
                .map(|(k, n)| (*k, *n))
                .collect(),
            hop_histograms: self.hops.clone(),
        }
    }
}

/// Streams every event to a trace file in a [`TraceFormat`] and
/// accumulates a [`TraceSummary`], both behind one lock — what the sim
/// harness installs for `--trace`. A [`TeeSink`] of a file writer and a
/// summary would pay two lock round-trips and two virtual dispatches per
/// event, which is measurable at trace volumes of hundreds of thousands of
/// events per run. Buffered; flushed on [`FileSink::flush`]
/// and on drop.
#[derive(Debug)]
pub struct FileSink {
    inner: Mutex<(TraceWriter, SummaryState)>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>, format: TraceFormat) -> std::io::Result<Self> {
        Ok(FileSink {
            inner: Mutex::new((TraceWriter::create(path, format)?, SummaryState::default())),
        })
    }

    /// Flushes buffered events to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().expect("trace writer").0.flush()
    }

    /// The summary accumulated so far.
    pub fn summary(&self) -> TraceSummary {
        self.inner.lock().expect("trace writer").1.to_summary()
    }
}

impl TraceSink for FileSink {
    fn record(&self, ev: &TraceEvent) {
        let mut guard = self.inner.lock().expect("trace writer");
        let (out, summary) = &mut *guard;
        let kind = out.append(ev);
        summary.note(kind, ev);
    }
}

/// Fans one event stream into several sinks, in order.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// A tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, ev: &TraceEvent) {
        for s in &self.sinks {
            s.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::MsgSend {
                tick: 3,
                node: 5,
                id: (5, 12),
                to: 9,
                target: Id(0xDEAD_BEEF),
                kind: "join-v",
                path: Some(vec![5, 7, 9]),
            },
            TraceEvent::MsgSend {
                tick: 3,
                node: 5,
                id: (5, 13),
                to: 2,
                target: Id(7),
                kind: "al-index",
                path: None,
            },
            TraceEvent::MsgDeliver {
                tick: 3,
                node: 9,
                id: (5, 12),
                kind: "join-v",
            },
            TraceEvent::FaultDrop {
                tick: 4,
                node: 9,
                id: (5, 12),
            },
            TraceEvent::FaultDuplicate {
                tick: 4,
                node: 9,
                id: (5, 12),
            },
            TraceEvent::FaultDelay {
                tick: 4,
                node: 9,
                id: (5, 12),
                extra: 3,
            },
            TraceEvent::Retransmit {
                tick: 6,
                node: 5,
                id: (5, 12),
                attempt: 2,
            },
            TraceEvent::DedupSuppressed {
                tick: 7,
                node: 9,
                id: (5, 12),
            },
            TraceEvent::NodeFailed { tick: 8, node: 4 },
            TraceEvent::IndexInsert {
                tick: 9,
                node: 1,
                table: "vlqt",
                fresh: true,
            },
            TraceEvent::IndexRemove {
                tick: 9,
                node: 4,
                table: "alqt",
                removed: 17,
                reason: "fail",
            },
            TraceEvent::JoinEval {
                tick: 10,
                node: 2,
                candidates: 8,
                matches: 3,
            },
            TraceEvent::NotifyDelivered {
                tick: 10,
                node: 0,
                count: 3,
                offline: false,
            },
            TraceEvent::Replicate {
                tick: 11,
                node: 2,
                to: 3,
            },
            TraceEvent::Promote {
                tick: 12,
                node: 3,
                items: 5,
            },
            TraceEvent::Phase {
                tick: 0,
                name: "install \"quoted\"\\weird".to_string(),
            },
            TraceEvent::Suspect {
                tick: 13,
                node: 6,
                target: 4,
            },
            TraceEvent::Confirm {
                tick: 15,
                node: 6,
                target: 4,
                dead: true,
            },
            TraceEvent::Confirm {
                tick: 15,
                node: 6,
                target: 7,
                dead: false,
            },
            TraceEvent::FalseSuspect {
                tick: 14,
                node: 6,
                target: 7,
            },
            TraceEvent::DigestExchange {
                tick: 16,
                node: 2,
                to: 3,
                items: 40,
                missing: 2,
            },
            TraceEvent::Repair {
                tick: 16,
                node: 2,
                to: 3,
                items: 2,
                bytes: 160,
            },
        ]
    }

    #[test]
    fn wire_round_trips_every_variant() {
        for ev in samples() {
            let mut buf = Vec::new();
            crate::wire::encode_trace_event(&ev, &mut buf);
            let (back, used) = crate::wire::decode_trace_event(&buf)
                .unwrap_or_else(|e| panic!("decode failed for {ev:?}: {e}"));
            assert_eq!(used, buf.len(), "frame fully consumed for {ev:?}");
            assert_eq!(back, ev, "round-trip mismatch");
        }
    }

    /// The JSONL rendering is a file format (traces are diffed across
    /// commits), so every variant's line is pinned byte for byte, default
    /// booleans omitted.
    #[test]
    fn jsonl_lines_are_pinned() {
        let expected = [
            r#"{"ev":"msg-send","tick":3,"node":5,"id":[5,12],"to":9,"target":3735928559,"kind":"join-v","path":[5,7,9]}"#,
            r#"{"ev":"msg-send","tick":3,"node":5,"id":[5,13],"to":2,"target":7,"kind":"al-index"}"#,
            r#"{"ev":"msg-deliver","tick":3,"node":9,"id":[5,12],"kind":"join-v"}"#,
            r#"{"ev":"fault-drop","tick":4,"node":9,"id":[5,12]}"#,
            r#"{"ev":"fault-dup","tick":4,"node":9,"id":[5,12]}"#,
            r#"{"ev":"fault-delay","tick":4,"node":9,"id":[5,12],"extra":3}"#,
            r#"{"ev":"retransmit","tick":6,"node":5,"id":[5,12],"attempt":2}"#,
            r#"{"ev":"dedup","tick":7,"node":9,"id":[5,12]}"#,
            r#"{"ev":"node-fail","tick":8,"node":4}"#,
            r#"{"ev":"index-insert","tick":9,"node":1,"table":"vlqt"}"#,
            r#"{"ev":"index-remove","tick":9,"node":4,"table":"alqt","removed":17,"reason":"fail"}"#,
            r#"{"ev":"join-eval","tick":10,"node":2,"candidates":8,"matches":3}"#,
            r#"{"ev":"notify","tick":10,"node":0,"count":3}"#,
            r#"{"ev":"replicate","tick":11,"node":2,"to":3}"#,
            r#"{"ev":"promote","tick":12,"node":3,"items":5}"#,
            r#"{"ev":"phase","tick":0,"node":4294967295,"name":"install \"quoted\"\\weird"}"#,
            r#"{"ev":"suspect","tick":13,"node":6,"target":4}"#,
            r#"{"ev":"confirm","tick":15,"node":6,"target":4}"#,
            r#"{"ev":"confirm","tick":15,"node":6,"target":7,"dead":false}"#,
            r#"{"ev":"false-suspect","tick":14,"node":6,"target":7}"#,
            r#"{"ev":"digest-exchange","tick":16,"node":2,"to":3,"items":40,"missing":2}"#,
            r#"{"ev":"repair","tick":16,"node":2,"to":3,"items":2,"bytes":160}"#,
        ];
        let samples = samples();
        assert_eq!(samples.len(), expected.len());
        for (ev, want) in samples.iter().zip(expected) {
            let mut line = String::new();
            ev.to_jsonl(&mut line);
            assert_eq!(line, want);
        }
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let sink = RingBufferSink::new(2);
        for t in 0..5 {
            sink.record(&TraceEvent::NodeFailed { tick: t, node: 0 });
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tick(), 3);
        assert_eq!(evs[1].tick(), 4);
    }

    /// A [`FileSink`] over a fresh file in the temp directory, removed
    /// again when the returned guard drops.
    fn temp_file_sink(name: &str, format: TraceFormat) -> (FileSink, TempPath) {
        let path = std::env::temp_dir().join(format!(
            "cq-trace-unit-{}-{name}.{}",
            std::process::id(),
            format.extension()
        ));
        (FileSink::create(&path, format).unwrap(), TempPath(path))
    }

    struct TempPath(std::path::PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn summary_counts_and_hop_histograms() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let (sink, _path) = temp_file_sink("summary", format);
            for ev in samples() {
                sink.record(&ev);
            }
            let s = sink.summary();
            assert_eq!(s.count_of("msg-send"), 2);
            assert_eq!(s.count_of("phase"), 1);
            assert_eq!(s.total(), samples().len() as u64);
            // Only the pathful send lands in the histogram: node 5, 2 hops.
            assert_eq!(s.hop_histograms.len(), 1);
            assert_eq!(s.hop_histograms[&5], vec![0, 0, 1]);
        }
    }

    #[test]
    fn tee_fans_out() {
        let a = Arc::new(RingBufferSink::new(8));
        let (b, _path) = temp_file_sink("tee", TraceFormat::Jsonl);
        let b = Arc::new(b);
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn TraceSink>, b.clone()]);
        tee.record(&TraceEvent::NodeFailed { tick: 1, node: 2 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.summary().count_of("node-fail"), 1);
    }

    #[test]
    fn kinds_listing_is_exhaustive() {
        for ev in samples() {
            assert!(
                TraceEvent::KINDS.contains(&ev.kind()),
                "{} missing from KINDS",
                ev.kind()
            );
        }
    }
}
