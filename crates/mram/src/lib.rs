//! # ril-mram — behavioural STT-MRAM circuit substrate
//!
//! The HSPICE replacement of this reproduction (see DESIGN.md §2): a
//! behavioural device model of STT Magnetic Tunnel Junctions ([`mtj`]),
//! complementary 2-MTJ memory cells with voltage-divider sensing
//! ([`cell`]), the paper's 2-input MRAM LUT with Scan-Enable cell and an
//! SRAM baseline ([`lut`]), a transient waveform engine for the Fig. 5
//! schedule ([`transient`]), Monte-Carlo process-variation analysis for
//! Fig. 6 ([`montecarlo`]), and Table IV energy accounting ([`energy`]).
//!
//! ## Quickstart
//!
//! ```
//! use ril_mram::lut::MramLut2;
//!
//! let mut lut = MramLut2::with_defaults();
//! lut.program(0b1000); // AND
//! assert!(lut.read(true, true, false).out);
//! // Dynamic morphing: the same hardware becomes a NOR.
//! lut.program(0b0001);
//! assert!(lut.read(false, false, false).out);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod energy;
pub mod lut;
pub mod montecarlo;
pub mod mtj;
pub mod transient;

pub use cell::{CellCircuit, ComplementaryCell};
pub use energy::{measure_mram_profile, measure_sram_profile, EnergyProfile, PAPER_TABLE_IV};
pub use lut::{MramLut2, SramLut2};
pub use montecarlo::{run_monte_carlo, MonteCarloReport, VariationModel};
pub use mtj::{Mtj, MtjParams, MtjState};
pub use transient::{LutOp, TransientSim, WaveformTrace};
