//! The CM-5E simulator behind Table 4 and Figs. 7–9: a distributed array
//! with a counting CSHIFT ([`grid`]), the four interactive-field fetch
//! strategies ([`ghost`]), Multigrid-embed ([`multigrid`]), replication
//! ([`replication`]) and the CM-5E-flavoured [`cost::CostModel`] that
//! turns their `fmm_machine::Counters` into modeled time. Strategies that
//! build ghost buffers are verified for data correctness, not just
//! counted: every strategy must produce identical halo contents.

pub mod cost;
pub mod ghost;
pub mod grid;
pub mod multigrid;
pub mod replication;
