//! The `iabc perf` instrument.
//!
//! [`perf`] measures the datapoints of `BENCH_hotpath.json` and checks a
//! run against a committed baseline; `iabc perf` is its command line.

pub mod perf;
