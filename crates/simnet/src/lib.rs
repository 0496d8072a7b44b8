//! # botscope-simnet
//!
//! A deterministic, discrete-event web-traffic generator that stands in
//! for the IMC '25 study's private institutional logs (see DESIGN.md §2
//! for the substitution argument).
//!
//! The simulator models:
//!
//! * a **36-site university web estate** ([`site`]) with realistic page
//!   inventories — a people directory, `/page-data/*` JSON endpoints, news
//!   and events pages, and the `/404`, `/dev-404-page`, `/secure/*` paths
//!   restricted by the institution's base robots.txt,
//! * a **fleet of ~130 known bots** ([`fleet`], [`behavior`]) drawn from
//!   the `botscope-useragent` registry. The ~30 bots the paper reports
//!   individually are calibrated to the paper's own numbers: traffic
//!   volume from Table 3, per-directive compliance from Table 6, re-check
//!   cadence from Table 7 / Figure 10, home networks from Table 8,
//! * **anonymous traffic** ([`anon`]): browsers from residential networks
//!   and unlabelled headless scrapers,
//! * **user-agent spoofers** ([`spoof`]): minority-network impostors
//!   planted per Table 8/9, which the analysis pipeline must rediscover,
//! * the **four-phase robots.txt experiment** ([`phases`]): base → crawl
//!   delay → endpoint-only → disallow-all, two weeks each, on the
//!   high-traffic experiment site (paper §4.1, Figures 5–8).
//!
//! Everything is a pure function of a single `u64` seed: identical seeds
//! produce byte-identical record streams. The generator *plants* ground-
//! truth behaviour; `botscope-core` must *measure* it back — closing the
//! generator→analyzer validation loop that replaces comparison against
//! the unavailable raw logs.
//!
//! ```
//! use botscope_simnet::{scenario, SimConfig};
//!
//! let cfg = SimConfig { days: 2, scale: 0.05, ..SimConfig::default() };
//! let out = scenario::full_study_table(&cfg);
//! let out2 = scenario::full_study_table(&cfg);
//! assert_eq!(out.table.rows(), out2.table.rows()); // deterministic
//! assert!(!out.table.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anon;
pub mod behavior;
pub mod belief;
pub mod config;
pub mod engine;
pub mod fleet;
pub mod phases;
pub mod scenario;
pub mod server;
pub mod site;
pub mod spoof;

pub use belief::{BeliefAtlas, BeliefTimeline, BelievedPolicy, PolicyOracle, ScheduleOracle};
pub use config::SimConfig;
pub use engine::{
    child_seed, worker_threads, worker_threads_from, SimStreamOutput, SimTableOutput, StreamOptions,
};
pub use phases::{PhaseSchedule, PolicyVersion};
