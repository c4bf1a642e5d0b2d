//! End-to-end and per-layer benchmark of the TMU reproduction's three
//! assemblies. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

#![forbid(unsafe_code)]

pub mod assembly;
pub mod calib;
pub mod faultloop;
pub mod replica;
pub mod run;
pub mod trace;
pub mod workloads;
