//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§4).
//!
//! | ID | What it shows | Function |
//! |----|---------------|----------|
//! | Table 1 | experiment parameters | [`figures::table1`] |
//! | Fig 3 | detection rate vs chaff rate `λc` (Δ = 7 s) | [`figures::fig3`] |
//! | Fig 4 | detection rate vs max delay `Δ` (λc = 3) | [`figures::fig4`] |
//! | Fig 5 | false-positive rate vs `λc` (Δ = 7 s) | [`figures::fig5`] |
//! | Fig 6 | false-positive rate vs `Δ` (λc = 3) | [`figures::fig6`] |
//! | Fig 7 | cost vs `λc`, correlated flows | [`figures::fig7`] |
//! | Fig 8 | cost vs `Δ`, correlated flows | [`figures::fig8`] |
//! | Fig 9 | cost vs `λc`, uncorrelated flows | [`figures::fig9`] |
//! | Fig 10 | cost vs `Δ`, uncorrelated flows | [`figures::fig10`] |
//! | §4.2 | synthetic tcplib consistency | [`figures::synthetic_all`] |
//! | §4.3 | overall comparison | [`figures::summary`] |
//!
//! The default [`Scale`] runs a reduced corpus so the whole suite
//! finishes in minutes on one core; [`Scale::Full`] restores the paper's
//! 91-trace, all-pairs setup. Everything is deterministic in the
//! configured seed.
//!
//! Beyond the paper, the harness includes the §6 future-work probes
//! ([`figures::future_loss`], [`figures::future_repack`]) and the
//! quality [`ablations`] (adjustment, redundancy, threshold ROC,
//! phase-1 scope, chaff models); the bench crate covers the runtime
//! axis of the same sweeps. Online workloads are
//! [`stepstone_scenario::ScenarioSpec`]s: [`scenario_run::run`] replays
//! one through the `stepstone-monitor` online engine, reporting
//! throughput alongside detection quality; the [`live`] module lowers
//! the experiment configuration into the `repro monitor` specs.
//!
//! # Example
//!
//! ```no_run
//! use stepstone_experiments::{figures, ExperimentConfig, Scale};
//!
//! let cfg = ExperimentConfig::new(Scale::Quick);
//! let fig = figures::fig3(&cfg);
//! println!("{}", fig.to_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod backends;
mod config;
mod dataset;
pub mod diagnostics;
pub mod figures;
pub mod live;
pub mod matrix;
pub mod robust;
mod runner;
pub mod scenario_run;
mod schemes;
pub mod serve;

pub use config::{ExperimentConfig, Scale};
pub use dataset::{attacked, Dataset, PreparedFlow};
pub use runner::{GridPoint, Runner};
pub use schemes::{Scheme, SCHEMES};
