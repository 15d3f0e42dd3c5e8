//! `designs` — the paper's two test-case IPs at all three abstraction
//! levels.
//!
//! - [`des56`]: a reconfigurable (encrypt/decrypt) 64-bit DES
//!   cryptographic core with a latency of 17 clock cycles and its 9 PSL
//!   properties;
//! - [`colorconv`]: an 8-stage pipelined RGB→YCbCr converter with a
//!   latency of 8 clock cycles and its 12 PSL properties;
//! - [`fir`]: a 4-tap FIR filter (latency 5, 6 properties) — an extension
//!   IP beyond the paper's evaluation, demonstrating the flow's
//!   generality.
//!
//! Each IP provides:
//!
//! - a pure algorithmic core (`algo`) shared by every abstraction level,
//! - a cycle-stepping core (`core`) shared by the RTL and TLM-CA models
//!   (which is what makes them timing-equivalent by construction,
//!   Def. III.1),
//! - simulation builders for **RTL**, **TLM-CA** (one transaction per
//!   clock period) and **TLM-AT** (one write + one read per elaboration;
//!   optionally the strict Def. III.1 variant with transactions at every
//!   preserved-I/O change — DESIGN.md §5b),
//! - a PSL property suite with each property classified by its expected
//!   behaviour across abstraction levels ([`PropertyClass`]),
//! - fault-injection [`des56::DesMutation`] / [`colorconv::ConvMutation`]
//!   variants used to demonstrate that the abstracted checkers catch real
//!   TLM bugs.
//!
//! All models use a 10 ns clock ([`CLOCK_PERIOD_NS`]), matching the
//! paper's running example (`ε = 17 × 10ns = 170ns`).

pub mod colorconv;
pub mod des56;
mod factory;
pub mod fir;
mod suite;

pub use factory::{
    build, check_supported, passing_properties_at, properties_at, suite_at, AbsLevel, BuildError,
    BuiltDesign, DesignKind, Fault, Suite,
};
pub use suite::{PropertyClass, SuiteEntry};

/// The RTL clock period shared by both IPs, in nanoseconds.
pub const CLOCK_PERIOD_NS: u64 = 10;
