//! Combinational datapath passes: request/response forwarding with
//! saturation-stall gating in normal operation, full severing with
//! `SLVERR` abort driving and residual-drain absorption after a fault,
//! and the parallel wire tap feeding the guards and protocol checker.

use axi4::beat::{BBeat, RBeat};
use axi4::channel::AxiPort;
use tmu_telemetry::{Channel, TraceEvent};

use super::{Tmu, TmuState};

impl Tmu {
    /// Pass 1: forward manager-driven wires to the subordinate, with
    /// saturation backpressure in normal operation and full severing
    /// after a fault.
    pub fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        if !self.regs.enabled() {
            sub.forward_request_from(mgr);
            return;
        }
        match self.state {
            TmuState::Monitoring => {
                self.stall_aw = self.write_guard.decide_stall(mgr.aw.beat());
                self.stall_ar = self.read_guard.decide_stall(mgr.ar.beat());
                if !self.stall_aw {
                    sub.aw.forward_driver_from(&mgr.aw);
                }
                // While residual beats of aborted writes are draining,
                // every W beat on the wires belongs to a dead burst: the
                // TMU absorbs them instead of forwarding.
                if self.w_drain_beats == 0 {
                    sub.w.forward_driver_from(&mgr.w);
                }
                if !self.stall_ar {
                    sub.ar.forward_driver_from(&mgr.ar);
                }
                sub.b.forward_ready_from(&mgr.b);
                sub.r.forward_ready_from(&mgr.r);
            }
            TmuState::Aborting | TmuState::WaitReset => {
                // Severed: the subordinate port stays idle.
            }
        }
    }

    /// Pass 2: forward subordinate-driven wires to the manager, or drive
    /// `SLVERR` abort responses while aborting.
    pub fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        if !self.regs.enabled() {
            mgr.forward_response_from(sub);
            return;
        }
        match self.state {
            TmuState::Monitoring => {
                mgr.b.forward_driver_from(&sub.b);
                mgr.r.forward_driver_from(&sub.r);
                if !self.stall_aw {
                    mgr.aw.forward_ready_from(&sub.aw);
                }
                if self.w_drain_beats > 0 {
                    mgr.w.set_ready(true); // absorb residual dead beats
                } else {
                    mgr.w.forward_ready_from(&sub.w);
                }
                if !self.stall_ar {
                    mgr.ar.forward_ready_from(&sub.ar);
                }
            }
            TmuState::Aborting | TmuState::WaitReset => {
                if self.state == TmuState::Aborting {
                    if let Some(abort) = self.abort_b.front() {
                        mgr.b.drive(BBeat::abort(abort.id));
                    }
                    if let Some(abort) = self.abort_r.front() {
                        mgr.r
                            .drive(RBeat::abort(abort.id, abort.beats_remaining == 1));
                    }
                }
                // A held address beat is accepted by the TMU itself so
                // the manager can proceed into the aborted phases.
                if self.accept_aw && mgr.aw.valid() {
                    mgr.aw.set_ready(true);
                }
                if self.accept_ar && mgr.ar.valid() {
                    mgr.ar.set_ready(true);
                }
                // Residual write data of aborted bursts is absorbed.
                if self.w_drain_beats > 0 {
                    mgr.w.set_ready(true);
                }
                // Otherwise request channels stay unready: new traffic
                // stalls until the subordinate is reset.
            }
        }
    }

    /// Optional pass between 2 and 3, for harnesses where the manager
    /// side's B/R `ready` wires settle late (e.g. below an interconnect
    /// mux): re-propagates them to the subordinate port. Standalone
    /// harnesses whose manager drives `ready` before
    /// [`Tmu::forward_request`] don't need it.
    pub fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        let forwarding = !self.regs.enabled() || self.state == TmuState::Monitoring;
        if forwarding {
            sub.b.forward_ready_from(&mgr.b);
            sub.r.forward_ready_from(&mgr.r);
        }
    }

    /// Pass 3: tap the settled manager-side wires for this `cycle`.
    pub fn observe(&mut self, mgr: &AxiPort) {
        if !self.regs.enabled() {
            return;
        }
        self.drain_w_fired = self.w_drain_beats > 0 && mgr.w.fires();
        self.accept_aw_fired = self.accept_aw && mgr.aw.fires();
        self.accept_ar_fired = self.accept_ar && mgr.ar.fires();
        match self.state {
            TmuState::Monitoring => {
                if self.telemetry.enabled() {
                    self.record_handshakes(mgr);
                }
                if self.w_drain_beats > 0 {
                    // Drained beats belong to aborted bursts; hide them
                    // from the guards and the protocol checker.
                    let mut masked = mgr.clone();
                    masked.w.suppress_valid();
                    self.write_guard.observe(&masked);
                    self.read_guard.observe(&masked);
                    self.check_protocol(&masked);
                } else {
                    self.write_guard.observe(mgr);
                    self.read_guard.observe(mgr);
                    self.check_protocol(mgr);
                }
            }
            TmuState::Aborting => {
                self.abort_b_fired = mgr.b.fires();
                self.abort_r_fired = mgr.r.fires();
            }
            TmuState::WaitReset => {}
        }
    }

    /// Runs the protocol checker over `port` when it is configured and
    /// enabled, queueing any violations for the next commit.
    fn check_protocol(&mut self, port: &AxiPort) {
        if self.cfg.check_protocol() && self.regs.prot_check_enabled() {
            let violations = self.checker.observe(port, self.cycles);
            if !violations.is_empty() {
                self.pending_violations.extend(violations);
            }
        }
    }

    /// Taps the five channels' settled handshakes into the telemetry
    /// event stream. W beats being drained belong to aborted bursts and
    /// are hidden, mirroring what the guards see.
    fn record_handshakes(&mut self, mgr: &AxiPort) {
        let cycle = self.cycles;
        if let Some(aw) = mgr.aw.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Aw,
                    id: aw.id.0,
                },
            );
        }
        if self.w_drain_beats == 0 && mgr.w.fires() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::W,
                    id: 0,
                },
            );
        }
        if let Some(b) = mgr.b.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::B,
                    id: b.id.0,
                },
            );
        }
        if let Some(ar) = mgr.ar.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::Ar,
                    id: ar.id.0,
                },
            );
        }
        if let Some(r) = mgr.r.fired_beat() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Handshake {
                    channel: Channel::R,
                    id: r.id.0,
                },
            );
        }
    }
}
