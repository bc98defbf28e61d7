//! Criterion bench targets over the SIRTM stack.
//!
//! The library itself is empty; the targets live under `benches/`.
//! `micro` and `thermal` give per-layer unit costs (a router plan, a
//! platform cycle, a PicoBlaze instruction, a thermal solve). End-to-end throughput, with interleaved repeats and
//! pinned digests, is measured by the `perfbench` package (see
//! `perfbench/README.md`), which also reports the cost of one AIM scan
//! per model kind.
