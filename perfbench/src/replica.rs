//! The benchmark's own copies of the three assemblies' `step`.
//!
//! Each replica owns the same components as its original, built from
//! the same configuration, and calls the same public layer functions in
//! the same pass order as `System::step`, `GuardedLink::step` and
//! `RegulatedLink::step`. Every call goes through the [`Tracer`], which
//! times it on sampled cycles, and after the combinational passes have
//! settled the replica counts wire-level activity ([`WireCounts`]). The
//! replica's simulated fingerprint must equal the original's for the
//! same seed and cycle count; the benchmark checks this on every run,
//! so the per-layer split describes the program the end-to-end metrics
//! time.
//!
//! Bookkeeping the originals keep only for their own queries (interrupt
//! edge history, waveform probes) changes no simulated state and is left
//! out.

use axi4::channel::AxiPort;
use faults::{FaultPlan, Injector};
use sim::Reset;
use soc::demux::{AddrRegion, Demux};
use soc::ethernet::EthSub;
use soc::fabric::MonitorFabric;
use soc::manager::{MgrStats, TrafficGen};
use soc::memory::{MemConfig, MemSub};
use soc::mux::Mux;
use soc::regulated::RegulatedFabric;
use soc::system::{SystemConfig, ETH_BASE, ETH_SIZE, MEM_BASE, MEM_SIZE};
use tmu::{TelemetryConfig, Tmu};
use tmu_regulate::Regulator;

use crate::assembly::Assembly;
use crate::faultloop::{FaultLoop, FaultPort};
use crate::trace::{Layer, Tracer};
use crate::workloads;

/// Wire-level activity the replica counts every cycle once the
/// combinational passes have settled.
#[derive(Debug, Clone, Default)]
pub struct WireCounts {
    /// Cycles counted.
    pub cycles: u64,
    /// Cycles a request beat on the mux trunk was valid but not ready.
    pub trunk_stall_cycles: u64,
    /// Port-cycles on TMU manager-side ports (one per monitored port per
    /// cycle).
    pub tmu_port_cycles: u64,
    /// Of those, port-cycles carrying any valid beat.
    pub tmu_active_port_cycles: u64,
    /// Cycles a request beat on a subordinate port was valid but not
    /// ready, summed over subordinates.
    pub sub_stall_cycles: u64,
    /// Sum over cycles of the transactions the TMUs track.
    pub tmu_outstanding_sum: u64,
}

fn any_valid(p: &AxiPort) -> bool {
    p.aw.valid() || p.w.valid() || p.b.valid() || p.ar.valid() || p.r.valid()
}

fn request_stalled(p: &AxiPort) -> bool {
    (p.aw.valid() && !p.aw.ready())
        || (p.w.valid() && !p.w.ready())
        || (p.ar.valid() && !p.ar.ready())
}

impl WireCounts {
    fn tmu_port(&mut self, mgr_side: &AxiPort, outstanding: usize) {
        self.tmu_port_cycles += 1;
        self.tmu_active_port_cycles += u64::from(any_valid(mgr_side));
        self.tmu_outstanding_sum += outstanding as u64;
    }
}

/// What the benchmark needs from a replica beyond [`Assembly`].
pub trait Replica: Assembly {
    /// Installs the tracer used by the following steps.
    fn set_tracer(&mut self, tracer: Tracer);
    /// The tracer and what it measured.
    fn tracer(&self) -> &Tracer;
    /// Wire activity counted so far.
    fn wires(&self) -> &WireCounts;
    /// Stops every manager from issuing, so the run can drain.
    fn stop_issuing(&mut self);
    /// Transactions the managers still hold (generated, not answered).
    fn in_flight(&self) -> usize;
}

const MEM_IDX: usize = 0;
const ETH_IDX: usize = 1;

/// Replica of `soc::System`.
#[derive(Debug)]
pub struct SystemReplica {
    cpu: TrafficGen,
    dma: TrafficGen,
    mux: Mux,
    demux: Demux,
    mem: MemSub,
    eth: EthSub,
    fabric: MonitorFabric,
    injector: Injector,
    mem_injector: Injector,
    mgr_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_ports: Vec<AxiPort>,
    eth_port: AxiPort,
    mem_port: AxiPort,
    cycle: u64,
    tracer: Tracer,
    wires: WireCounts,
}

impl SystemReplica {
    /// Assembles the replica exactly as `System::new(cfg)` does.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let mut fabric = MonitorFabric::new(2);
        fabric.attach(ETH_IDX, cfg.tmu, cfg.reset_duration);
        if let Some(mem_cfg) = cfg.mem_tmu {
            fabric.attach(MEM_IDX, mem_cfg, cfg.reset_duration);
        }
        SystemReplica {
            cpu: TrafficGen::new(cfg.cpu_pattern, cfg.seed ^ 0x1),
            dma: TrafficGen::new(cfg.dma_pattern, cfg.seed ^ 0x2),
            mux: Mux::new(2, 12),
            demux: Demux::new(vec![
                AddrRegion {
                    base: MEM_BASE,
                    size: MEM_SIZE,
                },
                AddrRegion {
                    base: ETH_BASE,
                    size: ETH_SIZE,
                },
            ]),
            mem: MemSub::new(cfg.mem),
            eth: EthSub::new(cfg.eth),
            fabric,
            injector: Injector::idle(),
            mem_injector: Injector::idle(),
            mgr_ports: vec![AxiPort::new(), AxiPort::new()],
            trunk: AxiPort::new(),
            sub_ports: vec![AxiPort::new(), AxiPort::new()],
            eth_port: AxiPort::new(),
            mem_port: AxiPort::new(),
            cycle: 0,
            tracer: Tracer::disabled(),
            wires: WireCounts::default(),
        }
    }

    fn count_wires(&mut self) {
        let w = &mut self.wires;
        w.cycles += 1;
        w.trunk_stall_cycles += u64::from(request_stalled(&self.trunk));
        w.sub_stall_cycles +=
            u64::from(request_stalled(&self.mem_port)) + u64::from(request_stalled(&self.eth_port));
        for port in [MEM_IDX, ETH_IDX] {
            if let Some(tmu) = self.fabric.tmu(port) {
                w.tmu_port(&self.sub_ports[port], tmu.outstanding());
            }
        }
    }
}

impl Assembly for SystemReplica {
    fn step(&mut self) {
        let cycle = self.cycle;
        let tr = &mut self.tracer;
        tr.begin_cycle();
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        for p in &mut self.sub_ports {
            p.begin_cycle();
        }
        self.eth_port.begin_cycle();
        self.mem_port.begin_cycle();

        tr.time(Layer::Manager, || {
            self.cpu.drive(&mut self.mgr_ports[0], cycle);
            self.dma.drive(&mut self.mgr_ports[1], cycle);
        });
        tr.time(Layer::Mux, || {
            self.mux.forward_requests(&self.mgr_ports, &mut self.trunk);
        });
        tr.time(Layer::Demux, || {
            self.demux
                .forward_requests(&self.trunk, &mut self.sub_ports);
        });
        tr.time(Layer::Injector, || {
            self.injector
                .corrupt_manager_side(&mut self.sub_ports[ETH_IDX], cycle);
            self.mem_injector
                .corrupt_manager_side(&mut self.sub_ports[MEM_IDX], cycle);
        });
        tr.time(Layer::TmuDatapath, || {
            self.fabric
                .forward_request(ETH_IDX, &self.sub_ports[ETH_IDX], &mut self.eth_port);
            self.fabric
                .forward_request(MEM_IDX, &self.sub_ports[MEM_IDX], &mut self.mem_port);
        });
        tr.time(Layer::Memory, || self.mem.drive(&mut self.mem_port));
        tr.time(Layer::Ethernet, || self.eth.drive(&mut self.eth_port));
        tr.time(Layer::Injector, || {
            self.injector
                .corrupt_subordinate_side(&mut self.eth_port, cycle);
            self.mem_injector
                .corrupt_subordinate_side(&mut self.mem_port, cycle);
        });
        tr.time(Layer::TmuDatapath, || {
            self.fabric
                .forward_response(ETH_IDX, &self.eth_port, &mut self.sub_ports[ETH_IDX]);
            self.fabric
                .forward_response(MEM_IDX, &self.mem_port, &mut self.sub_ports[MEM_IDX]);
        });
        tr.time(Layer::Demux, || {
            self.demux
                .forward_responses(&self.sub_ports, &mut self.trunk);
        });
        tr.time(Layer::Mux, || {
            self.mux
                .forward_responses(&mut self.trunk, &mut self.mgr_ports);
        });
        tr.time(Layer::Demux, || {
            self.demux
                .backprop_response_ready(&self.trunk, &mut self.sub_ports);
        });
        tr.time(Layer::TmuDatapath, || {
            self.fabric.backprop_response_ready(
                ETH_IDX,
                &self.sub_ports[ETH_IDX],
                &mut self.eth_port,
            );
            self.fabric.backprop_response_ready(
                MEM_IDX,
                &self.sub_ports[MEM_IDX],
                &mut self.mem_port,
            );
        });
        tr.time(Layer::TmuObserve, || {
            self.fabric.observe(ETH_IDX, &self.sub_ports[ETH_IDX]);
            self.fabric.observe(MEM_IDX, &self.sub_ports[MEM_IDX]);
        });
        self.count_wires();

        let tr = &mut self.tracer;
        tr.time(Layer::Manager, || {
            self.cpu.commit(&self.mgr_ports[0], cycle);
            self.dma.commit(&self.mgr_ports[1], cycle);
        });
        tr.time(Layer::Mux, || self.mux.commit(&self.trunk));
        tr.time(Layer::Demux, || self.demux.commit(&self.trunk));
        tr.time(Layer::Memory, || self.mem.commit(&self.mem_port));
        tr.time(Layer::Ethernet, || self.eth.commit(&self.eth_port));
        tr.time(Layer::Injector, || {
            self.injector.note_commit(&self.eth_port, cycle);
            self.mem_injector.note_commit(&self.mem_port, cycle);
        });
        let eth_tmu = self.fabric.tmu(ETH_IDX).expect("ethernet port monitored");
        if eth_tmu.telemetry().should_sample(cycle) {
            let cpu_done = self.cpu.stats().total_completed();
            let dma_done = self.dma.stats().total_completed();
            let decode_errors = self.demux.decode_errors();
            let metrics = self
                .fabric
                .tmu_mut(ETH_IDX)
                .expect("ethernet port monitored")
                .telemetry_mut()
                .metrics_mut();
            metrics.gauge_set("system.cpu.txns_completed", cpu_done);
            metrics.gauge_set("system.dma.txns_completed", dma_done);
            metrics.gauge_set("system.decode_errors", decode_errors);
            self.eth.publish_metrics(metrics);
        }
        let reset_ports = tr.time(Layer::TmuCommit, || self.fabric.commit(cycle));
        for port in reset_ports {
            match port {
                ETH_IDX => {
                    tr.time(Layer::Ethernet, || self.eth.reset());
                    tr.time(Layer::Injector, || self.injector.disarm());
                }
                MEM_IDX => {
                    tr.time(Layer::Memory, || self.mem.reset());
                    tr.time(Layer::Injector, || self.mem_injector.disarm());
                }
                _ => unreachable!("the system fabric spans two ports"),
            }
        }
        self.cycle += 1;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn protected(&self) -> &MgrStats {
        self.cpu.stats()
    }

    fn managers(&self) -> Vec<&MgrStats> {
        vec![self.cpu.stats(), self.dma.stats()]
    }

    fn tmus(&self) -> Vec<&Tmu> {
        [ETH_IDX, MEM_IDX]
            .into_iter()
            .filter_map(|p| self.fabric.tmu(p))
            .collect()
    }

    fn sub_beats(&self) -> Vec<u64> {
        vec![
            self.mem.beats_written(),
            self.mem.beats_read(),
            self.eth.beats_txed(),
            self.eth.beats_rxed(),
            self.eth.frames_txed(),
        ]
    }

    fn decode_errors(&self) -> u64 {
        self.demux.decode_errors()
    }
}

impl Replica for SystemReplica {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn wires(&self) -> &WireCounts {
        &self.wires
    }

    fn stop_issuing(&mut self) {
        for mgr in [&mut self.cpu, &mut self.dma] {
            mgr.reconfigure(|p| p.total_txns = Some(0));
        }
    }

    fn in_flight(&self) -> usize {
        self.cpu.outstanding() + self.dma.outstanding()
    }
}

/// Replica of `soc::GuardedLink<MemSub>`.
#[derive(Debug)]
pub struct LinkReplica {
    mgr: TrafficGen,
    tmu: Tmu,
    sub: MemSub,
    injector: Injector,
    reset: Reset,
    mgr_port: AxiPort,
    sub_port: AxiPort,
    cycle: u64,
    tracer: Tracer,
    wires: WireCounts,
}

impl LinkReplica {
    /// Assembles the replica exactly as `workloads::link_faults` does,
    /// telemetry on.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut tmu = Tmu::new(workloads::link_faults_tmu());
        tmu.enable_telemetry(TelemetryConfig::default());
        LinkReplica {
            mgr: TrafficGen::new(workloads::link_faults_pattern(), seed),
            tmu,
            sub: MemSub::new(MemConfig::default()),
            injector: Injector::idle(),
            reset: Reset::new(),
            mgr_port: AxiPort::new(),
            sub_port: AxiPort::new(),
            cycle: 0,
            tracer: Tracer::disabled(),
            wires: WireCounts::default(),
        }
    }
}

impl Assembly for LinkReplica {
    fn step(&mut self) {
        let cycle = self.cycle;
        let tr = &mut self.tracer;
        tr.begin_cycle();
        self.mgr_port.begin_cycle();
        self.sub_port.begin_cycle();

        tr.time(Layer::Manager, || self.mgr.drive(&mut self.mgr_port, cycle));
        tr.time(Layer::Injector, || {
            self.injector
                .corrupt_manager_side(&mut self.mgr_port, cycle);
        });
        tr.time(Layer::TmuDatapath, || {
            self.tmu.forward_request(&self.mgr_port, &mut self.sub_port);
        });
        tr.time(Layer::Memory, || self.sub.drive(&mut self.sub_port));
        tr.time(Layer::Injector, || {
            self.injector
                .corrupt_subordinate_side(&mut self.sub_port, cycle);
        });
        tr.time(Layer::TmuDatapath, || {
            self.tmu
                .forward_response(&self.sub_port, &mut self.mgr_port);
        });
        tr.time(Layer::TmuObserve, || self.tmu.observe(&self.mgr_port));
        let w = &mut self.wires;
        w.cycles += 1;
        w.sub_stall_cycles += u64::from(request_stalled(&self.sub_port));
        w.tmu_port(&self.mgr_port, self.tmu.outstanding());

        tr.time(Layer::Manager, || self.mgr.commit(&self.mgr_port, cycle));
        tr.time(Layer::Memory, || self.sub.commit(&self.sub_port));
        tr.time(Layer::Injector, || {
            self.injector.note_commit(&self.sub_port, cycle);
        });
        if self.tmu.telemetry().should_sample(cycle) {
            let stats = self.mgr.stats();
            let completed = stats.total_completed();
            let errored = stats.writes_errored + stats.reads_errored;
            let (w_beats, r_beats) = (stats.w_beats, stats.r_beats);
            let metrics = self.tmu.telemetry_mut().metrics_mut();
            metrics.gauge_set("link.mgr.txns_completed", completed);
            metrics.gauge_set("link.mgr.txns_errored", errored);
            metrics.gauge_set("link.mgr.w_beats", w_beats);
            metrics.gauge_set("link.mgr.r_beats", r_beats);
        }
        let reset_done = tr.time(Layer::TmuCommit, || {
            self.tmu.commit(cycle);
            if self.tmu.take_reset_request() {
                self.reset.request();
            }
            self.reset.tick();
            self.reset.is_done_pulse()
        });
        if reset_done {
            tr.time(Layer::Memory, || self.sub.reset());
            tr.time(Layer::Injector, || self.injector.disarm());
            tr.time(Layer::TmuCommit, || self.tmu.reset_done());
        }
        self.cycle += 1;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn protected(&self) -> &MgrStats {
        self.mgr.stats()
    }

    fn managers(&self) -> Vec<&MgrStats> {
        vec![self.mgr.stats()]
    }

    fn tmus(&self) -> Vec<&Tmu> {
        vec![&self.tmu]
    }

    fn sub_beats(&self) -> Vec<u64> {
        vec![self.sub.beats_written(), self.sub.beats_read()]
    }
}

impl FaultPort for LinkReplica {
    fn inject(&mut self, plan: FaultPlan) {
        self.injector.arm(plan);
    }

    fn disarm(&mut self) {
        self.injector.disarm();
    }

    fn injector(&self) -> &Injector {
        &self.injector
    }

    fn tmu(&self) -> &Tmu {
        &self.tmu
    }
}

impl Replica for LinkReplica {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn wires(&self) -> &WireCounts {
        &self.wires
    }

    fn stop_issuing(&mut self) {
        self.mgr.reconfigure(|p| p.total_txns = Some(0));
    }

    fn in_flight(&self) -> usize {
        self.mgr.outstanding()
    }
}

impl<A: Replica + FaultPort> Replica for FaultLoop<A> {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner_mut().set_tracer(tracer);
    }

    fn tracer(&self) -> &Tracer {
        self.inner().tracer()
    }

    fn wires(&self) -> &WireCounts {
        self.inner().wires()
    }

    fn stop_issuing(&mut self) {
        self.stop_arming();
        self.inner_mut().stop_issuing();
    }

    fn in_flight(&self) -> usize {
        // A fault still pending or recovering keeps the run open.
        self.inner().in_flight() + usize::from(!self.is_quiet())
    }
}

/// Replica of `soc::RegulatedLink<MemSub>` with a trunk TMU (the
/// `regulated_mixed` workload arms no behavioural fault, so the
/// original's exhaustion hook never fires and is left out).
#[derive(Debug)]
pub struct RegulatedReplica {
    mgrs: Vec<TrafficGen>,
    fabric: RegulatedFabric,
    mux: Mux,
    tmu: Tmu,
    reset: Reset,
    sub: MemSub,
    mgr_ports: Vec<AxiPort>,
    reg_ports: Vec<AxiPort>,
    trunk: AxiPort,
    sub_port: AxiPort,
    cycle: u64,
    tracer: Tracer,
    wires: WireCounts,
}

impl RegulatedReplica {
    /// Assembles the replica exactly as `workloads::regulated_mixed`
    /// does.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let managers = workloads::regulated_managers();
        let n = managers.len();
        let mut fabric = RegulatedFabric::new(n);
        let mut mgrs = Vec::with_capacity(n);
        for (i, (pattern, reg_cfg)) in managers.into_iter().enumerate() {
            mgrs.push(TrafficGen::new(pattern, seed ^ (i as u64 + 1)));
            if let Some(cfg) = reg_cfg {
                fabric.attach(i, cfg);
            }
        }
        let mut mux = Mux::new(n, 12);
        if let Some(priorities) = fabric.priorities() {
            mux.set_priorities(priorities);
        }
        RegulatedReplica {
            mgrs,
            fabric,
            mux,
            tmu: Tmu::new(workloads::regulated_trunk_tmu()),
            reset: Reset::with_duration(8),
            sub: MemSub::new(MemConfig::default()),
            mgr_ports: (0..n).map(|_| AxiPort::new()).collect(),
            reg_ports: (0..n).map(|_| AxiPort::new()).collect(),
            trunk: AxiPort::new(),
            sub_port: AxiPort::new(),
            cycle: 0,
            tracer: Tracer::disabled(),
            wires: WireCounts::default(),
        }
    }
}

impl Assembly for RegulatedReplica {
    fn step(&mut self) {
        let cycle = self.cycle;
        let n = self.mgrs.len();
        let tr = &mut self.tracer;
        tr.begin_cycle();
        for p in &mut self.mgr_ports {
            p.begin_cycle();
        }
        for p in &mut self.reg_ports {
            p.begin_cycle();
        }
        self.trunk.begin_cycle();
        self.sub_port.begin_cycle();

        tr.time(Layer::Manager, || {
            for i in 0..n {
                self.mgrs[i].drive(&mut self.mgr_ports[i], cycle);
            }
        });
        tr.time(Layer::Regulate, || {
            for i in 0..n {
                self.fabric
                    .forward_request(i, &self.mgr_ports[i], &mut self.reg_ports[i]);
            }
        });
        tr.time(Layer::Mux, || {
            self.mux.forward_requests(&self.reg_ports, &mut self.trunk);
        });
        tr.time(Layer::TmuDatapath, || {
            self.tmu.forward_request(&self.trunk, &mut self.sub_port);
        });
        tr.time(Layer::Memory, || self.sub.drive(&mut self.sub_port));
        tr.time(Layer::TmuDatapath, || {
            self.tmu.forward_response(&self.sub_port, &mut self.trunk);
        });
        tr.time(Layer::Mux, || {
            self.mux
                .forward_responses(&mut self.trunk, &mut self.reg_ports);
        });
        tr.time(Layer::TmuDatapath, || {
            self.tmu
                .backprop_response_ready(&self.trunk, &mut self.sub_port);
        });
        tr.time(Layer::Regulate, || {
            for i in 0..n {
                self.fabric
                    .forward_response(i, &self.reg_ports[i], &mut self.mgr_ports[i]);
            }
        });
        tr.time(Layer::Regulate, || {
            for i in 0..n {
                self.fabric.observe(i, &self.mgr_ports[i]);
            }
        });
        tr.time(Layer::TmuObserve, || self.tmu.observe(&self.trunk));
        let w = &mut self.wires;
        w.cycles += 1;
        w.trunk_stall_cycles += u64::from(request_stalled(&self.trunk));
        w.sub_stall_cycles += u64::from(request_stalled(&self.sub_port));
        w.tmu_port(&self.trunk, self.tmu.outstanding());

        tr.time(Layer::Manager, || {
            for i in 0..n {
                self.mgrs[i].commit(&self.mgr_ports[i], cycle);
            }
        });
        tr.time(Layer::Mux, || self.mux.commit(&self.trunk));
        tr.time(Layer::Memory, || self.sub.commit(&self.sub_port));
        tr.time(Layer::Regulate, || self.fabric.commit(cycle));
        let reset_done = tr.time(Layer::TmuCommit, || {
            self.tmu.commit(cycle);
            if self.tmu.take_reset_request() {
                self.reset.request();
            }
            self.reset.tick();
            self.reset.is_done_pulse()
        });
        if reset_done {
            tr.time(Layer::Memory, || self.sub.reset());
            tr.time(Layer::TmuCommit, || self.tmu.reset_done());
        }
        self.cycle += 1;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn protected(&self) -> &MgrStats {
        self.mgrs[0].stats()
    }

    fn managers(&self) -> Vec<&MgrStats> {
        self.mgrs.iter().map(TrafficGen::stats).collect()
    }

    fn tmus(&self) -> Vec<&Tmu> {
        vec![&self.tmu]
    }

    fn sub_beats(&self) -> Vec<u64> {
        vec![self.sub.beats_written(), self.sub.beats_read()]
    }

    fn regulators(&self) -> Vec<&Regulator> {
        (0..self.fabric.ports())
            .filter_map(|i| self.fabric.regulator(i))
            .collect()
    }
}

impl Replica for RegulatedReplica {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn wires(&self) -> &WireCounts {
        &self.wires
    }

    fn stop_issuing(&mut self) {
        for mgr in &mut self.mgrs {
            mgr.reconfigure(|p| p.total_txns = Some(0));
        }
    }

    fn in_flight(&self) -> usize {
        self.mgrs.iter().map(TrafficGen::outstanding).sum()
    }
}
