//! Sampled per-layer timing for the traced pass.
//!
//! Timing every layer call of every cycle costs about as much as the
//! work itself (an `Instant::now()` pair is tens of nanoseconds, a whole
//! cycle a few hundred), so the tracer times the calls of one cycle in
//! [`SAMPLE_PERIOD`] on average. The sampled cycles are drawn with a
//! seeded pseudo-random gap rather than a fixed stride, so periodic
//! traffic (issue gaps, pacing, telemetry sampling) cannot alias with
//! the sampling. The timer's own cost is calibrated once and subtracted
//! per timed call.

use std::time::Instant;

/// Mean number of cycles between two timed cycles.
pub const SAMPLE_PERIOD: u32 = 16;

/// The layers a replica step attributes host time to. Names follow the
/// repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `soc::manager` — `TrafficGen::drive` and `commit`.
    Manager,
    /// `soc::mux` — request arbitration, response routing, commit.
    Mux,
    /// `soc::demux` — address decode, response arbitration, ready
    /// back-propagation, commit.
    Demux,
    /// `tmu` datapath — `forward_request`, `forward_response`,
    /// `backprop_response_ready` (plain wire copies on unmonitored ports).
    TmuDatapath,
    /// `tmu` observation — guards and protocol checker (`observe`).
    TmuObserve,
    /// `tmu` clock edge — wheel, recovery FSM and reset plumbing.
    TmuCommit,
    /// `soc::memory` — `MemSub::drive`, `commit`, `reset`.
    Memory,
    /// `soc::ethernet` — `EthSub::drive`, `commit`, `reset`.
    Ethernet,
    /// `faults` — the wire-level injector's three hooks.
    Injector,
    /// `tmu-regulate` through `RegulatedFabric`.
    Regulate,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Manager,
        Layer::Mux,
        Layer::Demux,
        Layer::TmuDatapath,
        Layer::TmuObserve,
        Layer::TmuCommit,
        Layer::Memory,
        Layer::Ethernet,
        Layer::Injector,
        Layer::Regulate,
    ];

    /// The metric-name prefix of the layer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Manager => "manager",
            Layer::Mux => "mux",
            Layer::Demux => "demux",
            Layer::TmuDatapath => "tmu.datapath",
            Layer::TmuObserve => "tmu.observe",
            Layer::TmuCommit => "tmu.commit",
            Layer::Memory => "memory",
            Layer::Ethernet => "ethernet",
            Layer::Injector => "injector",
            Layer::Regulate => "regulate",
        }
    }
}

const LAYERS: usize = Layer::ALL.len();

/// Per-layer sampled timer. Disabled tracers cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    sampling: bool,
    countdown: u32,
    rng: u64,
    raw_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    sampled_cycles: u64,
}

impl Tracer {
    /// A tracer that never times anything.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            sampling: false,
            countdown: 0,
            rng: 1,
            raw_ns: [0; LAYERS],
            calls: [0; LAYERS],
            sampled_cycles: 0,
        }
    }

    /// A sampling tracer whose sampled cycles follow `seed`.
    #[must_use]
    pub fn sampling(seed: u64) -> Self {
        Tracer {
            enabled: true,
            rng: seed | 1,
            ..Tracer::disabled()
        }
    }

    /// Decides whether the cycle about to run is timed.
    #[inline]
    pub fn begin_cycle(&mut self) {
        if !self.enabled {
            return;
        }
        if self.countdown == 0 {
            self.sampling = true;
            self.sampled_cycles += 1;
            // xorshift64: gaps uniform in 0..2P-1, so one timed cycle
            // every P cycles on average.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.countdown = (self.rng % u64::from(2 * SAMPLE_PERIOD - 1)) as u32;
        } else {
            self.sampling = false;
            self.countdown -= 1;
        }
    }

    /// Runs `f`, charging its host time to `layer` on sampled cycles.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.sampling {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.raw_ns[layer as usize] += elapsed.as_nanos() as u64;
        self.calls[layer as usize] += 1;
        out
    }

    /// Self time of `layer` per simulated cycle, in nanoseconds, with
    /// `timer_ns` (see [`calibrate_timer_ns`]) removed per timed call.
    #[must_use]
    pub fn ns_per_cycle(&self, layer: Layer, timer_ns: f64) -> f64 {
        if self.sampled_cycles == 0 {
            return 0.0;
        }
        let i = layer as usize;
        let self_ns = self.raw_ns[i] as f64 - self.calls[i] as f64 * timer_ns;
        self_ns / self.sampled_cycles as f64
    }
}

/// The host cost of timing an empty call, in nanoseconds: the mean of
/// the middle half of many back-to-back `Instant` pairs, taken the same
/// way [`Tracer::time`] takes them.
#[must_use]
pub fn calibrate_timer_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let middle = &samples[samples.len() / 4..samples.len() * 3 / 4];
    middle.iter().sum::<u64>() as f64 / middle.len() as f64
}
