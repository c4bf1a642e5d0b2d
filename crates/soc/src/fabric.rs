//! Port banks: one optional per-cycle unit per port.
//!
//! The paper's TMU is a drop-in unit spliced into one subordinate port;
//! AXI-REALM's regulator (`tmu-regulate`) is a drop-in unit spliced into
//! one manager port. Both follow the same per-cycle pass contract,
//! captured by [`PortStage`]. A [`PortBank`] owns one optional stage per
//! port and falls back to plain wire forwarding on empty ports, so the
//! datapath is identical with and without a unit attached. It is the
//! only place in this crate that spells out that empty-port rule.
//!
//! [`MonitorFabric`] is the bank of per-port TMUs behind the demux —
//! scaling the paper's single monitored subordinate to many endpoints by
//! instantiating one (cheap) TMU per link and merging their
//! fault/interrupt views, the deployment model argued for by AXI-REALM's
//! per-manager units and IMS's reusable monitors. Each slot recovers
//! independently: a fault on one port severs, aborts, and resets only
//! that port's subordinate while the others keep moving traffic. The
//! merged views ([`MonitorFabric::irq_pending`],
//! [`MonitorFabric::faults_detected`], [`MonitorFabric::next_deadline`])
//! give the CPU / event-driven harness a single aggregation point.

use axi4::channel::AxiPort;
use sim::Reset;
use tmu::{Tmu, TmuConfig};
use tmu_telemetry::TelemetryConfig;

/// A unit spliced into one port that follows the per-cycle pass order
/// of [`Tmu`]: both forwarding passes, the optional late response-ready
/// back-propagation, the observe tap and the clock commit.
pub trait PortStage {
    /// Pass 1: forward manager-driven wires towards the subordinate.
    fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort);
    /// Pass 2: forward subordinate-driven wires back to the manager.
    fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort);
    /// Late-settling B/R `ready` back-propagation, for harnesses where
    /// the manager side's response readys settle after pass 2.
    fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort);
    /// Pass 3: tap the settled manager-side wires.
    fn observe(&mut self, mgr: &AxiPort);
    /// Clock commit for `cycle`. Returns `true` when the port's
    /// subordinate finished a reset this cycle; the bank's owner must
    /// then reinitialize that subordinate model.
    fn commit(&mut self, cycle: u64) -> bool;
    /// Switches the stage's telemetry on.
    fn enable_telemetry(&mut self, config: TelemetryConfig);
}

/// A bank of optional per-port [`PortStage`]s with wire pass-through on
/// empty ports and a merged commit. See the [module docs](self).
#[derive(Debug)]
pub struct PortBank<S> {
    slots: Vec<Option<S>>,
}

impl<S: PortStage> PortBank<S> {
    /// A bank covering `ports` ports, all initially empty (pass-through).
    #[must_use]
    pub fn new(ports: usize) -> Self {
        PortBank {
            slots: (0..ports).map(|_| None).collect(),
        }
    }

    /// Number of ports the bank spans (occupied or not).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Places `stage` on `port`, replacing any previous one.
    pub(crate) fn insert(&mut self, port: usize, stage: S) {
        self.slots[port] = Some(stage);
    }

    /// The stage on `port`, if one is attached.
    #[must_use]
    pub(crate) fn stage(&self, port: usize) -> Option<&S> {
        self.slots.get(port)?.as_ref()
    }

    /// Mutable access to the stage on `port`, if one is attached.
    pub(crate) fn stage_mut(&mut self, port: usize) -> Option<&mut S> {
        self.slots.get_mut(port)?.as_mut()
    }

    /// Every attached stage, in port order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &S> {
        self.slots.iter().flatten()
    }

    /// Pass 1 for `port`: through the stage when one is attached, as a
    /// plain wire copy otherwise.
    pub fn forward_request(&mut self, port: usize, mgr: &AxiPort, sub: &mut AxiPort) {
        match &mut self.slots[port] {
            Some(stage) => stage.forward_request(mgr, sub),
            None => sub.forward_request_from(mgr),
        }
    }

    /// Pass 2 for `port`: through the stage when one is attached, as a
    /// plain wire copy otherwise.
    pub fn forward_response(&mut self, port: usize, sub: &AxiPort, mgr: &mut AxiPort) {
        match &mut self.slots[port] {
            Some(stage) => stage.forward_response(sub, mgr),
            None => mgr.forward_response_from(sub),
        }
    }

    /// Late-settling B/R `ready` back-propagation for `port` (see
    /// [`PortStage::backprop_response_ready`]).
    pub fn backprop_response_ready(&mut self, port: usize, mgr: &AxiPort, sub: &mut AxiPort) {
        match &mut self.slots[port] {
            Some(stage) => stage.backprop_response_ready(mgr, sub),
            None => {
                sub.b.forward_ready_from(&mgr.b);
                sub.r.forward_ready_from(&mgr.r);
            }
        }
    }

    /// Pass 3 for `port`: the stage (if any) taps the settled
    /// manager-side wires.
    pub fn observe(&mut self, port: usize, mgr: &AxiPort) {
        if let Some(stage) = &mut self.slots[port] {
            stage.observe(mgr);
        }
    }

    /// Clock commit for every attached stage, independently. Returns the
    /// ports whose subordinate finished a reset this cycle — the caller
    /// must reinitialize those subordinate models.
    pub fn commit(&mut self, cycle: u64) -> Vec<usize> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(port, slot)| slot.as_mut()?.commit(cycle).then_some(port))
            .collect()
    }

    /// Switches telemetry on for every attached stage.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        for stage in self.slots.iter_mut().flatten() {
            stage.enable_telemetry(config);
        }
    }
}

/// One monitored port: the TMU and its subordinate's dedicated reset
/// line, which closes the TMU's recovery loop.
#[derive(Debug)]
pub struct Monitor {
    tmu: Tmu,
    reset: Reset,
}

impl PortStage for Monitor {
    fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        self.tmu.forward_request(mgr, sub);
    }

    fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        self.tmu.forward_response(sub, mgr);
    }

    fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        self.tmu.backprop_response_ready(mgr, sub);
    }

    fn observe(&mut self, mgr: &AxiPort) {
        self.tmu.observe(mgr);
    }

    fn commit(&mut self, cycle: u64) -> bool {
        self.tmu.commit(cycle);
        if self.tmu.take_reset_request() {
            self.reset.request();
        }
        self.reset.tick();
        let done = self.reset.is_done_pulse();
        if done {
            self.tmu.reset_done();
        }
        done
    }

    fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.tmu.enable_telemetry(config);
    }
}

/// A bank of per-port TMUs with a merged fault/interrupt view. See the
/// [module docs](self).
pub type MonitorFabric = PortBank<Monitor>;

impl MonitorFabric {
    /// Attaches a TMU to `port`, replacing any previous monitor there.
    /// `reset_duration` is the assertion length of the subordinate's
    /// dedicated reset line.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn attach(&mut self, port: usize, cfg: TmuConfig, reset_duration: u64) {
        self.insert(
            port,
            Monitor {
                tmu: Tmu::new(cfg),
                reset: Reset::with_duration(reset_duration),
            },
        );
    }

    /// Whether `port` has a monitor attached.
    #[must_use]
    pub fn is_monitored(&self, port: usize) -> bool {
        self.stage(port).is_some()
    }

    /// The TMU on `port`, if one is attached.
    #[must_use]
    pub fn tmu(&self, port: usize) -> Option<&Tmu> {
        self.stage(port).map(|m| &m.tmu)
    }

    /// Mutable access to the TMU on `port` (register writes, IRQ
    /// clearing), if one is attached.
    pub fn tmu_mut(&mut self, port: usize) -> Option<&mut Tmu> {
        self.stage_mut(port).map(|m| &mut m.tmu)
    }

    /// Reset requests `port`'s subordinate has received (0 when
    /// unmonitored — an unmonitored port has no reset line).
    #[must_use]
    pub fn reset_requests(&self, port: usize) -> u64 {
        self.stage(port).map_or(0, |m| m.reset.requests())
    }

    /// Merged level interrupt: the OR of every monitored port's IRQ
    /// line, like a shared interrupt-controller input.
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.stages().any(|m| m.tmu.irq_pending())
    }

    /// Total fault events detected across all monitored ports.
    #[must_use]
    pub fn faults_detected(&self) -> u64 {
        self.stages().map(|m| m.tmu.faults_detected()).sum()
    }

    /// The earliest future cycle at which any monitored port's timeout
    /// can fire (fast-forward bound across the whole fabric).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.slots
            .iter_mut()
            .flatten()
            .filter_map(|m| m.tmu.next_deadline())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::beat::AwBeat;
    use axi4::{Addr, AxiId, BurstKind, BurstLen, BurstSize};
    use tmu::TmuState;

    fn tiny_cfg(budget: u64) -> TmuConfig {
        TmuConfig::builder()
            .budgets(tmu::BudgetConfig {
                tiny_total_override: Some(budget),
                ..tmu::BudgetConfig::default()
            })
            .build()
            .expect("valid fabric test configuration")
    }

    fn aw(id: u16) -> AwBeat {
        AwBeat::new(
            AxiId(id),
            Addr(0x100),
            BurstLen::from_beats(1).expect("one-beat burst is valid"),
            BurstSize::from_bytes(8).expect("8-byte beats are valid"),
            BurstKind::Incr,
        )
    }

    /// Drives the combinational passes for one port whose subordinate
    /// never responds (not even with `ready`). The manager offers an AW
    /// with `id` while `offer_aw` holds and always accepts responses (so
    /// SLVERR aborts can be delivered). Returns whether the AW fired.
    /// The caller commits the fabric once per cycle after driving every
    /// port.
    fn drive_stalled_port(
        fabric: &mut MonitorFabric,
        port: usize,
        mgr: &mut AxiPort,
        sub: &mut AxiPort,
        id: u16,
        offer_aw: bool,
    ) -> bool {
        mgr.begin_cycle();
        sub.begin_cycle();
        mgr.b.set_ready(true);
        mgr.r.set_ready(true);
        if offer_aw {
            mgr.aw.drive(aw(id));
        }
        fabric.forward_request(port, mgr, sub);
        fabric.forward_response(port, sub, mgr);
        fabric.observe(port, mgr);
        mgr.aw.fires()
    }

    #[test]
    fn unmonitored_ports_pass_through() {
        let mut fabric = MonitorFabric::new(2);
        assert!(!fabric.is_monitored(0));
        let mut mgr = AxiPort::new();
        let mut sub = AxiPort::new();
        mgr.begin_cycle();
        sub.begin_cycle();
        mgr.aw.drive(aw(3));
        fabric.forward_request(0, &mgr, &mut sub);
        assert!(sub.aw.valid(), "pass-through must copy the AW");
        assert!(fabric.commit(0).is_empty());
        assert!(!fabric.irq_pending());
        assert_eq!(fabric.faults_detected(), 0);
    }

    #[test]
    fn slots_fault_and_recover_independently() {
        let mut fabric = MonitorFabric::new(2);
        fabric.attach(0, tiny_cfg(16), 4);
        fabric.attach(1, tiny_cfg(1_000_000), 4);
        let mut ports: Vec<(AxiPort, AxiPort)> =
            (0..2).map(|_| (AxiPort::new(), AxiPort::new())).collect();

        // Port 0's subordinate stalls its AW past the 16-cycle budget;
        // port 1 sees the same traffic under a huge budget. Each manager
        // offers its AW until it is accepted (which only the abort path
        // ever does here) so recovery can complete without refaulting.
        let mut faulted_at = None;
        let mut aw_done = [false; 2];
        for cycle in 0..200 {
            for (port, (mgr, sub)) in ports.iter_mut().enumerate() {
                let fired =
                    drive_stalled_port(&mut fabric, port, mgr, sub, port as u16, !aw_done[port]);
                aw_done[port] |= fired;
            }
            fabric.commit(cycle);
            if faulted_at.is_none() && fabric.faults_detected() > 0 {
                faulted_at = Some(cycle);
            }
        }
        assert!(faulted_at.is_some(), "port 0 must time out");
        assert_eq!(fabric.faults_detected(), 1, "only port 0 faults");
        let healthy = fabric.tmu(1).expect("attached");
        assert_eq!(healthy.state(), TmuState::Monitoring);
        assert_eq!(healthy.faults_detected(), 0);
        // Port 0 walked its recovery alone: reset requested and
        // delivered, monitoring resumed.
        assert_eq!(fabric.reset_requests(0), 1);
        assert_eq!(fabric.reset_requests(1), 0);
        assert_eq!(
            fabric.tmu(0).expect("attached").state(),
            TmuState::Monitoring,
            "port 0 must resume after its private reset"
        );
        assert_eq!(fabric.tmu(0).expect("attached").resets_requested(), 1);
    }

    #[test]
    fn merged_views_aggregate_across_slots() {
        let mut fabric = MonitorFabric::new(3);
        fabric.attach(0, tiny_cfg(50), 4);
        fabric.attach(2, tiny_cfg(90), 4);
        let mut ports: Vec<(AxiPort, AxiPort)> =
            (0..3).map(|_| (AxiPort::new(), AxiPort::new())).collect();
        for cycle in 0..5 {
            for port in [0, 2] {
                let (mgr, sub) = &mut ports[port];
                drive_stalled_port(&mut fabric, port, mgr, sub, 1, true);
            }
            fabric.commit(cycle);
        }
        // Both slots armed a deadline; the merged bound is the earlier.
        let merged = fabric.next_deadline().expect("deadlines armed");
        let d0 = fabric
            .tmu_mut(0)
            .expect("attached")
            .next_deadline()
            .expect("armed");
        assert_eq!(merged, d0, "port 0's tighter budget bounds the fabric");
        assert_eq!(fabric.ports(), 3);
        assert!(!fabric.is_monitored(1));
    }
}
