//! Analysis toolkit and experiment harness for the IABC reproduction.
//!
//! * [`convergence`] — rounds-to-ε and contraction-rate measurement;
//! * [`contraction`] — Lemma 5 bound evaluation against live executions
//!   (the Theorem 3 phase decomposition, re-enacted);
//! * [`spectral`] — the `f = 0` linear-averaging baseline `|λ₂|`;
//! * [`census`] — exhaustive sweeps of **all** labeled digraphs at small `n`;
//! * [`plot`] — Unicode sparklines / ASCII log charts of traces;
//! * [`table`] — plain-text table rendering for reports;
//! * [`sweep`] — the parallel sweep runner: fans experiment grids across
//!   cores with per-cell coordinate-derived seeds, bit-identical for any
//!   worker count;
//! * [`batched`] — batched sweep execution: groups same-spec simulation
//!   cells into one replica-batched FastMath run (the census's convergence
//!   table), byte-identical to per-cell dispatch;
//! * [`experiments`] — one runnable regeneration per paper artifact
//!   (E1–E12, extensions X1–X13; the README section "The parallel sweep
//!   runner" shows how to regenerate them).
//!
//! # Examples
//!
//! ```
//! use iabc_analysis::convergence::fit_geometric_rate;
//!
//! let ranges: Vec<f64> = (0..10).map(|t| 4.0 * 0.5f64.powi(t)).collect();
//! let rho = fit_geometric_rate(&ranges).unwrap();
//! assert!((rho - 0.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod census;
pub mod contraction;
pub mod convergence;
pub mod experiments;
pub mod matrix_repr;
pub mod plot;
pub mod spectral;
pub mod sweep;
pub mod table;
