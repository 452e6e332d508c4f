//! The repository benchmark: the Figure 10 and Figure 15 grids and the
//! hint service under fleet load, timed end to end with tracing off, and
//! split per crate by a separate traced run. See `README.md`.

pub mod fleet;
pub mod grid;
pub mod output;
pub mod replay;
pub mod run;
pub mod seed;
pub mod stats;
pub mod timed;
