//! The repository benchmark: publish and pose latency, throughput and
//! traffic of the continuous-join engine on four workloads, plus a traced
//! run that times each engine layer through its public API. See
//! `perfbench/README.md` for the workloads, metrics and A/B procedure.

pub mod bench;
pub mod calib;
pub mod drive;
pub mod gen;
pub mod recorder;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod timing;
