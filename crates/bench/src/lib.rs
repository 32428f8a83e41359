//! `ngs-bench` — shared dataset recipes and experiment drivers.
//!
//! Every table and figure of the paper's evaluation sections maps to one
//! binary in `src/bin/` (see `DESIGN.md`'s per-experiment index); the
//! recipes for the scaled datasets live here, shared by those binaries.
//! Their time columns are stopwatch readings; timing evidence is
//! `ngs-benchmark`'s (`benchmark/`).

pub mod ch2;
pub mod ch3;
pub mod ch4;
pub mod datasets;
