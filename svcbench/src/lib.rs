//! Seeded end-to-end and per-layer benchmark of the DOSA search service;
//! see README.md in this directory for the workloads and metrics.

pub mod check;
pub mod drive;
pub mod stats;
pub mod trace;
pub mod workload;
