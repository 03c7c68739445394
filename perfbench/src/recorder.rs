//! The benchmark's trace sink: keeps every `MsgSend` as (from, target,
//! kind) in memory during the traced run and writes it out at the end. The
//! overlay and wire replays are driven from what it holds.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;

use cq_engine::{TraceEvent, TraceSink};
use cq_overlay::Id;

/// One recorded send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Send {
    /// Sending node slot.
    pub from: u32,
    /// The identifier the message was addressed to.
    pub target: Id,
    /// Message kind label (`Message::kind`).
    pub kind: &'static str,
}

/// In-memory `MsgSend` recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    sends: Mutex<Vec<Send>>,
}

impl TraceSink for Recorder {
    fn record(&self, ev: &TraceEvent) {
        if let TraceEvent::MsgSend {
            node, target, kind, ..
        } = ev
        {
            self.sends
                .lock()
                .expect("recorder lock poisoned by a panicking run")
                .push(Send {
                    from: *node,
                    target: *target,
                    kind,
                });
        }
    }
}

impl Recorder {
    /// Takes the sends recorded so far.
    pub fn take(&self) -> Vec<Send> {
        std::mem::take(&mut *self.sends.lock().expect("recorder lock poisoned"))
    }
}

/// Sends per kind label, sorted by label.
pub fn kind_mix(sends: &[Send]) -> BTreeMap<&'static str, u64> {
    let mut mix = BTreeMap::new();
    for s in sends {
        *mix.entry(s.kind).or_insert(0) += 1;
    }
    mix
}

/// Writes `sends` as tab-separated `from target kind` lines, one per send,
/// under a `# <label>` header line.
pub fn write_tsv(path: &Path, label: &str, sends: &[Send]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {label}")?;
    for s in sends {
        writeln!(out, "{}\t{}\t{}", s.from, s.target.0, s.kind)?;
    }
    out.flush()
}
