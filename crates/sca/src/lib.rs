//! # ril-sca — power side-channel substrate
//!
//! The non-invasive adversary the paper's MRAM LUT is designed to defeat:
//! power-trace synthesis from the circuit-level LUT models ([`trace`]),
//! difference-of-means DPA and Pearson CPA key-hypothesis attacks
//! ([`dpa`]), and SNR / TVLA leakage assessment ([`metrics`]).
//!
//! ## Quickstart
//!
//! ```
//! use ril_sca::{collect_traces, cpa_attack, LutTechnology};
//!
//! // An SRAM LUT leaks its truth table through read energies …
//! let trace = collect_traces(LutTechnology::Sram, 0b0110, 500, 0.4, 1);
//! assert_eq!(cpa_attack(&trace).best_tt, 0b0110);
//!
//! // … the MRAM LUT's symmetric footprint does not cooperate.
//! let trace = collect_traces(LutTechnology::Mram, 0b0110, 500, 0.4, 1);
//! let margin = cpa_attack(&trace).margin();
//! assert!(margin < 0.2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dpa;
pub mod metrics;
pub mod trace;

pub use dpa::{cpa_attack, dpa_attack, key_recovery_rate, HypothesisResult};
pub use metrics::{assess, leakage_snr, welch_t, LeakageReport, TVLA_THRESHOLD};
pub use trace::{collect_traces, LutTechnology, PowerTrace};
