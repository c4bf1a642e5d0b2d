//! Cheshire-like SoC substrate for the TMU reproduction (paper Fig. 10).
//!
//! The paper integrates the TMU into Cheshire, a Linux-capable RISC-V
//! CVA6 SoC, between the AXI crossbar and an RGMII Ethernet peripheral.
//! This crate provides the behavioural equivalents of every block that
//! figure shows:
//!
//! * [`manager`] — configurable traffic-generating AXI managers (the CPU
//!   and DMA roles).
//! * [`dma`] — a descriptor-based copy engine that moves real data
//!   (verifiable end to end).
//! * [`mux`] — an N-manager AXI multiplexer with ID-width extension and
//!   fair, stability-preserving arbitration.
//! * [`demux`] — a 1-to-N address-decoding demultiplexer with same-ID
//!   ordering stalls and a DECERR default subordinate.
//! * [`memory`] — a DRAM-controller-like subordinate with configurable
//!   latencies.
//! * [`ethernet`] — an Ethernet-like streaming peripheral with per-beat
//!   pacing, frame accounting and a hardware reset input.
//! * [`link`] — a single guarded manager↔subordinate link, the
//!   IP-level fault-injection harness of Fig. 9.
//! * [`fabric`] — the generic per-port stage bank ([`fabric::PortBank`])
//!   and its TMU instance, a sharded bank of per-port TMUs behind the
//!   demux with merged fault/interrupt views and independent per-port
//!   recovery.
//! * [`regulated`] — the bank of per-manager credit regulators upstream
//!   of the mux (bandwidth budgeting and misbehaving-manager isolation)
//!   and the regulated shared-subordinate link assembly.
//! * [`probe`] — VCD waveform probing of any port's wires.
//! * [`system`] — the full assembly: two managers → mux → demux →
//!   {memory, TMU + Ethernet}, plus the reset controller and interrupt
//!   plumbing.
//!
//! # Example
//!
//! ```
//! use soc::system::{System, SystemConfig};
//!
//! let mut system = System::new(SystemConfig::default());
//! system.run(2000);
//! let stats = system.cpu_stats();
//! assert!(stats.writes_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demux;
pub mod dma;
pub mod ethernet;
pub mod fabric;
pub mod link;
pub mod manager;
pub mod memory;
pub mod mux;
pub mod probe;
pub mod regulated;
pub mod system;

pub use demux::{AddrRegion, Demux};
pub use dma::{Descriptor, DmaEngine, DmaOutcome};
pub use ethernet::{EthConfig, EthSub};
pub use fabric::MonitorFabric;
pub use link::{AxiSubordinate, DeadSub, GuardedLink};
pub use manager::{MgrStats, TrafficGen, TrafficPattern};
pub use memory::{MemConfig, MemSub};
pub use mux::Mux;
pub use probe::WaveProbe;
pub use regulated::{RegulatedFabric, RegulatedLink};
pub use system::{System, SystemConfig};
