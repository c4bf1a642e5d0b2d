//! The clocked commit path and the fault/recovery state machine:
//! collects guard timeouts and checker violations into error records,
//! severs the link and builds the abort obligations on a fault, walks
//! Monitoring → Aborting → WaitReset, and handshakes with the external
//! reset unit before resuming.

use tmu_telemetry::{FaultClass, RecoveryStage, TraceEvent};

use super::{Tmu, TmuState};
use crate::log::{ErrorRecord, FaultKind};

impl Tmu {
    /// Pass 4: clock commit for `cycle`.
    pub fn commit(&mut self, cycle: u64) {
        self.cycles = cycle + 1;
        if !self.regs.enabled() {
            return;
        }
        if std::mem::take(&mut self.drain_w_fired) {
            self.w_drain_beats -= 1;
        }
        if std::mem::take(&mut self.accept_aw_fired) {
            self.accept_aw = false;
        }
        if std::mem::take(&mut self.accept_ar_fired) {
            self.accept_ar = false;
        }
        match self.state {
            TmuState::Monitoring => self.commit_monitoring(cycle),
            TmuState::Aborting => self.commit_aborting(),
            TmuState::WaitReset => {}
        }
        // A completed reset only re-opens monitoring once the held
        // address beats have been accepted (they belong to aborted
        // transactions and must not be re-tracked).
        if self.state == TmuState::WaitReset
            && self.reset_completed
            && !self.accept_aw
            && !self.accept_ar
        {
            self.state = TmuState::Monitoring;
            self.reset_completed = false;
            self.telemetry.record(
                self.cycles,
                "tmu",
                TraceEvent::Recovery {
                    stage: RecoveryStage::Resumed,
                },
            );
        }
        if self.telemetry.should_sample(cycle) {
            self.publish_gauges();
            self.telemetry.take_sample(cycle);
        }
    }

    fn commit_monitoring(&mut self, cycle: u64) {
        self.write_guard.set_pending_drain(self.w_drain_beats);
        let write_faults = self
            .write_guard
            .commit(cycle, &mut self.perf_log, &mut self.telemetry);
        let read_faults = self
            .read_guard
            .commit(cycle, &mut self.perf_log, &mut self.telemetry);
        // Fault-free cycle: nothing to log, sever or abort.
        if write_faults.is_empty()
            && read_faults.is_empty()
            && self.pending_violations.is_empty()
            && self.pending_isolation.is_none()
        {
            return;
        }

        let mut records: Vec<ErrorRecord> = Vec::new();
        for fault in write_faults.into_iter().chain(read_faults) {
            records.push(ErrorRecord {
                cycle,
                kind: fault.kind,
                phase: fault.phase,
                id: Some(fault.id),
                addr: Some(fault.addr),
                inflight_cycles: fault.inflight_cycles,
            });
        }
        for violation in self.pending_violations.drain(..) {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Fault {
                    class: FaultClass::Protocol,
                    dir: None,
                    id: violation.id.map_or(0, |i| i.0),
                    phase: None,
                },
            );
            records.push(ErrorRecord {
                cycle,
                kind: FaultKind::Protocol(violation.rule),
                phase: None,
                id: violation.id,
                addr: None,
                inflight_cycles: 0,
            });
        }

        if let Some(reason) = self.pending_isolation.take() {
            self.telemetry.record(
                cycle,
                "tmu",
                TraceEvent::Fault {
                    class: FaultClass::External,
                    dir: None,
                    id: 0,
                    phase: None,
                },
            );
            records.push(ErrorRecord {
                cycle,
                kind: FaultKind::External(reason),
                phase: None,
                id: None,
                addr: None,
                inflight_cycles: 0,
            });
        }

        for record in records {
            self.err_log.push(record);
            self.regs.hw_note_error();
        }

        self.faults_detected += 1;
        self.regs.hw_note_fault();
        if self.regs.irq_enabled() {
            self.regs.hw_raise_irq();
        }
        // Sever and abort: collect every outstanding transaction's
        // obligations (SLVERR responses, residual W drain, held-address
        // accepts).
        let write_set = self.write_guard.drain_for_abort();
        let read_set = self.read_guard.drain_for_abort();
        self.abort_b = write_set.responses.into();
        self.abort_r = read_set.responses.into();
        self.w_drain_beats += write_set.drain_w_beats;
        self.accept_aw = write_set.accept_pending_addr;
        self.accept_ar = read_set.accept_pending_addr;
        self.checker.flush();
        self.state = TmuState::Aborting;
        self.stall_aw = false;
        self.stall_ar = false;
        // Severing also closes every open telemetry span as aborted.
        self.telemetry.record(
            cycle,
            "tmu",
            TraceEvent::Recovery {
                stage: RecoveryStage::Severed,
            },
        );
    }

    fn commit_aborting(&mut self) {
        if self.abort_b_fired {
            self.abort_b.pop_front();
        }
        if self.abort_r_fired {
            if let Some(front) = self.abort_r.front_mut() {
                front.beats_remaining -= 1;
                if front.beats_remaining == 0 {
                    self.abort_r.pop_front();
                }
            }
        }
        self.abort_b_fired = false;
        self.abort_r_fired = false;
        if self.abort_b.is_empty() && self.abort_r.is_empty() {
            self.reset_request = true;
            self.resets_requested += 1;
            self.regs.hw_note_reset();
            self.state = TmuState::WaitReset;
            self.telemetry.record(
                self.cycles,
                "tmu",
                TraceEvent::Recovery {
                    stage: RecoveryStage::AbortsDelivered,
                },
            );
            self.telemetry.record(
                self.cycles,
                "tmu",
                TraceEvent::Recovery {
                    stage: RecoveryStage::ResetRequested,
                },
            );
        }
    }

    /// Consumes the single-cycle reset-request pulse towards the
    /// external reset unit.
    pub fn take_reset_request(&mut self) -> bool {
        std::mem::take(&mut self.reset_request)
    }

    /// Notification from the external reset unit that the subordinate has
    /// been reinitialized: monitoring resumes (deferred while a held
    /// address beat of an aborted transaction is still being accepted).
    pub fn reset_done(&mut self) {
        if self.state == TmuState::WaitReset {
            if self.accept_aw || self.accept_ar {
                self.reset_completed = true;
            } else {
                self.state = TmuState::Monitoring;
                self.telemetry.record(
                    self.cycles,
                    "tmu",
                    TraceEvent::Recovery {
                        stage: RecoveryStage::Resumed,
                    },
                );
            }
        }
    }
}
