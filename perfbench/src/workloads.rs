//! The three workloads: which assembly each drives, with which traffic,
//! and why (see `README.md` in this directory for the measured numbers).
//!
//! Every workload is closed loop: each `TrafficGen` keeps at most
//! `max_outstanding` transactions in flight, with at least `issue_gap`
//! cycles between issues, so a slower model receives less load.

use soc::manager::TrafficPattern;
use soc::memory::{MemConfig, MemSub};
use soc::system::{SystemConfig, MEM_BASE};
use soc::{GuardedLink, RegulatedLink, System};
use tmu::{BudgetConfig, TelemetryConfig, TmuConfig, TmuVariant};
use tmu_regulate::{DirBudget, RegulationMode, RegulatorConfig};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 10 `System`, busy, with two TMUs and no faults.
    SocBusy,
    /// The Fig. 9 `GuardedLink` under a rolling fault campaign.
    LinkFaults,
    /// `RegulatedLink`: a critical manager beside a throttled greedy one.
    RegulatedMixed,
}

/// Simulated cycles of one repetition, on every workload. Never derived
/// from host time, so simulated metrics depend on the seed alone.
pub const RUN_CYCLES: u64 = 1_000_000;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The seed whose simulated metrics `README.md` records beside the
/// default one, so a later claim can be checked on a seed not used while
/// writing the change.
pub const EXTRA_SEED: u64 = 1;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SocBusy,
        Workload::LinkFaults,
        Workload::RegulatedMixed,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocBusy => "soc_busy",
            Workload::LinkFaults => "link_faults",
            Workload::RegulatedMixed => "regulated_mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `soc_busy`: the paper's mixed-criticality deployment of Fig. 10 — a
/// Full-Counter TMU on the Ethernet port and a Tiny-Counter TMU on the
/// memory port, both with the system-level budgets (the IP-level
/// defaults time compliant traffic out behind the crossbar). Default
/// traffic: a CPU-role manager with a 50/50 read/write mix to memory and
/// a DMA-role manager writing 90 % Ethernet frames. Telemetry off.
#[must_use]
pub fn soc_busy_config(seed: u64) -> SystemConfig {
    let tmu = |variant| {
        TmuConfig::builder()
            .variant(variant)
            .budgets(BudgetConfig::system_level())
            .build()
            .expect("system-level TMU configuration is valid")
    };
    SystemConfig {
        tmu: tmu(TmuVariant::FullCounter),
        mem_tmu: Some(tmu(TmuVariant::TinyCounter)),
        seed,
        ..SystemConfig::default()
    }
}

/// Builds the `soc_busy` assembly.
#[must_use]
pub fn soc_busy(seed: u64) -> System {
    System::new(soc_busy_config(seed))
}

/// Prescaler step of the `link_faults` TMU: the paper's area-saving
/// Tiny-Counter configuration (the builder adds the sticky bit).
pub const LINK_PRESCALER: u64 = 8;

/// `link_faults` manager: sparse mixed read/write bursts of several
/// lengths, so most cycles carry no beat.
#[must_use]
pub fn link_faults_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![4, 8, 16],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x1000,
        addr_span: 0x4000,
        max_outstanding: 2,
        issue_gap: 24,
        total_txns: None,
        verify_data: false,
    }
}

/// `link_faults` TMU: Tiny-Counter, prescaled, sticky, IP-level budgets.
#[must_use]
pub fn link_faults_tmu() -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .prescaler(LINK_PRESCALER)
        .build()
        .expect("prescaled Tiny-Counter configuration is valid")
}

/// Builds the `link_faults` assembly (fault loop not included), with
/// telemetry on unless `telemetry` is false.
#[must_use]
pub fn link_faults(seed: u64, telemetry: bool) -> GuardedLink<MemSub> {
    let mut link = GuardedLink::new(
        link_faults_pattern(),
        link_faults_tmu(),
        MemSub::new(MemConfig::default()),
        seed,
    );
    if telemetry {
        link.enable_telemetry(TelemetryConfig::default());
    }
    link
}

/// `regulated_mixed` critical manager: short periodic bursts, mixed
/// reads and writes, unregulated.
#[must_use]
pub fn critical_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4],
        ids: vec![0, 1],
        addr_base: MEM_BASE,
        addr_span: 0x10_0000,
        max_outstanding: 2,
        issue_gap: 24,
        total_txns: None,
        verify_data: false,
    }
}

/// `regulated_mixed` greedy manager: back-to-back 16-beat bursts, mostly
/// writes, with a deep outstanding window.
#[must_use]
pub fn greedy_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.8,
        burst_lens: vec![16],
        ids: vec![0, 1, 2, 3],
        addr_base: MEM_BASE + 0x10_0000,
        addr_span: 0x10_0000,
        max_outstanding: 8,
        issue_gap: 0,
        total_txns: None,
        verify_data: false,
    }
}

/// `regulated_mixed` regulator: byte and transaction budgets in both
/// directions, back-pressure mode (the greedy manager stays alive for
/// the whole run, which isolation would not allow). The write budget
/// (twelve 16-beat bursts per 256-cycle window) keeps the memory's W
/// channel about 80 % busy while the regulator still denies grants.
#[must_use]
pub fn greedy_regulator() -> RegulatorConfig {
    RegulatorConfig::builder()
        .write_budget(DirBudget {
            bytes_per_window: 1536,
            txns_per_window: 12,
        })
        .read_budget(DirBudget {
            bytes_per_window: 512,
            txns_per_window: 4,
        })
        .window_cycles(256)
        .mode(RegulationMode::BackPressure)
        .build()
        .expect("greedy-manager regulator configuration is valid")
}

/// `regulated_mixed` trunk TMU: Full-Counter with system-level budgets
/// (the trunk sees crossbar arbitration delay like the Fig. 10 ports).
#[must_use]
pub fn regulated_trunk_tmu() -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .budgets(BudgetConfig::system_level())
        .build()
        .expect("system-level TMU configuration is valid")
}

/// The `regulated_mixed` manager list: critical (unregulated) first.
#[must_use]
pub fn regulated_managers() -> Vec<(TrafficPattern, Option<RegulatorConfig>)> {
    vec![
        (critical_pattern(), None),
        (greedy_pattern(), Some(greedy_regulator())),
    ]
}

/// Builds the `regulated_mixed` assembly.
#[must_use]
pub fn regulated_mixed(seed: u64) -> RegulatedLink<MemSub> {
    RegulatedLink::new(
        regulated_managers(),
        Some(regulated_trunk_tmu()),
        MemSub::new(MemConfig::default()),
        seed,
    )
}
