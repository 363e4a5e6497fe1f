//! The fabricsim benchmark: end-to-end host cost and simulated results of
//! three workloads, plus a traced run that breaks the host cost down by
//! layer. See `README.md` in this directory.

pub mod cpu;
pub mod record;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
