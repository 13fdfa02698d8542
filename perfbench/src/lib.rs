//! End-to-end and per-layer benchmark of the SkelCL reproduction.
//!
//! Four workloads run on a simulated four-GPU Tesla S1070
//! ([`workloads::Kind`]). A run measures cold set-up, then warm iterations
//! on two clocks: host wall time, and the simulator's virtual time. With
//! tracing on it also records spans around every public library call and
//! accounts the simulator's events by layer. See `README.md` next to this
//! crate for the metric table and how to read the output.

pub mod harness;
pub mod layers;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use harness::{run, Options, RunData};
pub use workloads::Kind;
