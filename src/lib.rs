//! # faultline
//!
//! Facade crate for the *faultline* reproduction of "A Comparison of
//! Syslog and IS-IS for Network Failure Analysis" (Turner, Levchenko,
//! Savage, Snoeren — IMC 2013). Re-exports the workspace crates under
//! one roof so downstream users can depend on a single crate:
//!
//! ```
//! use faultline::prelude::*;
//!
//! let data = run(&ScenarioParams::tiny(7));
//! let analysis = Analysis::run(&data, AnalysisConfig::default());
//! assert!(analysis.table4().isis_failures > 0);
//! ```
//!
//! See the workspace README for the architecture overview and the
//! experiment index; `examples/` for runnable walkthroughs.

#![forbid(unsafe_code)]

pub use faultline_core as core;
pub use faultline_isis as isis;
pub use faultline_sim as sim;
pub use faultline_syslog as syslog;
pub use faultline_topology as topology;

/// One-stop imports for the common simulate-then-analyze flow.
pub mod prelude {
    pub use faultline_core::{AmbiguityStrategy, Analysis, AnalysisConfig};
    pub use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};
    pub use faultline_topology::generator::CenicParams;
    pub use faultline_topology::time::{Duration, Timestamp};
}
