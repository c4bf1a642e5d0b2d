//! The per-manager regulator: a cycle-accurate two-phase component that
//! sits between one manager and the interconnect, gates its AW/AR
//! handshakes when the credit bucket runs dry, and — in isolation mode —
//! severs a persistently overrunning manager through an embedded tracker
//! TMU, reusing its `SLVERR` abort and drain machinery wholesale.
//!
//! # Per-cycle protocol
//!
//! The harness calls, in the same order as for a [`Tmu`]:
//!
//! 1. [`Regulator::forward_request`] after the manager drives;
//! 2. [`Regulator::forward_response`] after the downstream side drives;
//! 3. [`Regulator::backprop_response_ready`] (optional, mux harnesses);
//! 4. [`Regulator::observe`] on the settled manager-side wires;
//! 5. [`Regulator::commit`] at the clock edge.

use axi4::channel::AxiPort;
use tmu::{BudgetConfig, Tmu, TmuConfig, TmuState, TmuVariant};
use tmu_telemetry::{Dir, TelemetryConfig, TelemetryHub, TraceEvent};

use crate::budget::{BudgetUnit, CycleSpend};
use crate::config::{RegulationMode, RegulatorConfig};

/// The policy name logged (as `FaultKind::External`) when the regulator
/// commands an isolation.
pub const ISOLATION_REASON: &str = "bandwidth-overrun";

/// A granted address handshake captured by the observe pass for the
/// commit pass to charge.
#[derive(Debug, Clone, Copy)]
struct Grant {
    id: u16,
    bytes: u64,
    beats: u64,
}

/// Credit-based traffic regulator for one manager port. See the
/// [module docs](self) for the wiring protocol and the crate docs for
/// the credit model.
#[derive(Debug, Clone)]
pub struct Regulator {
    cfg: RegulatorConfig,
    budget: BudgetUnit,
    /// Embedded tracker TMU: follows every transaction the regulator
    /// lets through so that an isolation verdict can sever the port and
    /// abort the backlog without duplicating the recovery machinery.
    /// Its timeout budget is effectively infinite; it never faults on
    /// its own.
    tracker: Tmu,
    telemetry: TelemetryHub,
    // ---- per-cycle wire state, recomputed by every drive pass ----
    deny_aw: bool,
    deny_ar: bool,
    denied_aw_id: u16,
    denied_ar_id: u16,
    saw_aw_grant: Option<Grant>,
    saw_ar_grant: Option<Grant>,
    saw_w_downstream: bool,
    /// Committed state: W beats of bursts whose AW already fired towards
    /// the subordinate but whose data has not yet followed. While
    /// severed, exactly this many beats are still forwarded downstream
    /// (the tracker's drain count also covers never-forwarded bursts).
    q_w_owed: u64,
    /// Committed state: cycle the currently denied AW started waiting.
    q_aw_wait_since: Option<u64>,
    /// Committed state: cycle the currently denied AR started waiting.
    q_ar_wait_since: Option<u64>,
    /// Committed state: the isolation verdict, latched until
    /// [`Regulator::release`].
    q_isolated: bool,
    /// Committed state: address handshakes granted since construction.
    q_grants: u64,
    /// Committed state: denial episodes (a denied handshake newly
    /// starting to wait) since construction.
    q_denies: u64,
    /// Committed state: isolations commanded since construction.
    q_isolations: u64,
}

impl Regulator {
    /// Builds a regulator (full credit bucket, tracker idle) from its
    /// validated configuration.
    ///
    /// # Panics
    ///
    /// Panics only if the tracker TMU rejects a sizing that
    /// [`RegulatorConfig`] validation has already accepted — unreachable
    /// for any configuration a builder can produce.
    #[must_use]
    pub fn new(cfg: RegulatorConfig) -> Self {
        let tracker_cfg = TmuConfig::builder()
            .variant(TmuVariant::TinyCounter)
            .check_protocol(false)
            .max_uniq_ids(cfg.max_uniq_ids())
            .txn_per_id(cfg.txn_per_id())
            .budgets(BudgetConfig {
                // The tracker exists for its transaction table and abort
                // path, not for timeout detection: give it a practically
                // infinite budget so it never faults on its own.
                tiny_total_override: Some(1 << 40),
                ..BudgetConfig::default()
            })
            .build()
            .expect("regulator config validation bounds the tracker sizing");
        Regulator {
            budget: BudgetUnit::new(&cfg),
            tracker: Tmu::new(tracker_cfg),
            telemetry: TelemetryHub::default(),
            cfg,
            deny_aw: false,
            deny_ar: false,
            denied_aw_id: 0,
            denied_ar_id: 0,
            saw_aw_grant: None,
            saw_ar_grant: None,
            saw_w_downstream: false,
            q_w_owed: 0,
            q_aw_wait_since: None,
            q_ar_wait_since: None,
            q_isolated: false,
            q_grants: 0,
            q_denies: 0,
            q_isolations: 0,
        }
    }

    fn severed(&self) -> bool {
        self.tracker.state() != TmuState::Monitoring
    }

    /// The manager-side wires with credit-denied address channels masked
    /// out, as both the forwarding and the observe pass must present
    /// them to the tracker.
    fn masked(&self, mgr: &AxiPort) -> AxiPort {
        let mut masked = mgr.clone();
        if self.deny_aw {
            masked.aw.suppress_valid();
        }
        if self.deny_ar {
            masked.ar.suppress_valid();
        }
        masked
    }

    /// Pass 1: forward manager-driven wires downstream, suppressing
    /// credit-denied address handshakes; while severed, keep the
    /// downstream side response-ready and forward only the residual W
    /// beats the subordinate is still owed.
    #[inline]
    pub fn forward_request(&mut self, mgr: &AxiPort, out: &mut AxiPort) {
        if !self.cfg.enabled() {
            out.forward_request_from(mgr);
            return;
        }
        self.forward_request_enabled(mgr, out);
    }

    fn forward_request_enabled(&mut self, mgr: &AxiPort, out: &mut AxiPort) {
        if self.severed() {
            self.deny_aw = false;
            self.deny_ar = false;
            // The tracker leaves `out` idle; stray responses still in
            // flight from the shared subordinate must not back up the
            // interconnect, so absorb them here (the manager is answered
            // by the tracker's SLVERR aborts instead).
            out.b.set_ready(true);
            out.r.set_ready(true);
            if self.q_w_owed > 0 {
                out.w.forward_driver_from(&mgr.w);
            }
            return;
        }
        self.deny_aw = mgr.aw.valid() && !self.budget.may_grant(Dir::Write);
        self.deny_ar = mgr.ar.valid() && !self.budget.may_grant(Dir::Read);
        self.denied_aw_id = mgr.aw.beat().map_or(0, |b| b.id.0);
        self.denied_ar_id = mgr.ar.beat().map_or(0, |b| b.id.0);
        if self.deny_aw || self.deny_ar {
            let masked = self.masked(mgr);
            self.tracker.forward_request(&masked, out);
        } else {
            self.tracker.forward_request(mgr, out);
        }
    }

    /// Pass 2: forward downstream-driven wires back to the manager (or
    /// the tracker's abort responses while severed), and pull the
    /// address `ready` low on a credit denial.
    #[inline]
    pub fn forward_response(&mut self, out: &AxiPort, mgr: &mut AxiPort) {
        if !self.cfg.enabled() {
            mgr.forward_response_from(out);
            return;
        }
        self.forward_response_enabled(out, mgr);
    }

    fn forward_response_enabled(&mut self, out: &AxiPort, mgr: &mut AxiPort) {
        self.tracker.forward_response(out, mgr);
        if self.severed() {
            if self.q_w_owed > 0 {
                // Owed beats must genuinely transfer downstream: gate
                // the manager on the real downstream ready instead of
                // the tracker's unconditional drain absorb.
                mgr.w.set_ready(out.w.ready());
            }
        } else {
            if self.deny_aw {
                mgr.aw.set_ready(false);
            }
            if self.deny_ar {
                mgr.ar.set_ready(false);
            }
        }
    }

    /// Optional pass between 2 and 3 for harnesses where the manager
    /// side's B/R `ready` settles late (below an interconnect mux).
    #[inline]
    pub fn backprop_response_ready(&mut self, mgr: &AxiPort, out: &mut AxiPort) {
        if !self.cfg.enabled() {
            out.b.forward_ready_from(&mgr.b);
            out.r.forward_ready_from(&mgr.r);
            return;
        }
        // While severed the tracker's pass is a no-op, which preserves
        // the absorbing readys driven in pass 1.
        self.tracker.backprop_response_ready(mgr, out);
    }

    /// Pass 3: tap the settled manager-side wires — records granted
    /// handshakes and owed-beat movement for the commit pass and feeds
    /// the tracker the same masked view pass 1 forwarded.
    #[inline]
    pub fn observe(&mut self, mgr: &AxiPort) {
        if !self.cfg.enabled() {
            return;
        }
        self.observe_enabled(mgr);
    }

    fn observe_enabled(&mut self, mgr: &AxiPort) {
        self.saw_aw_grant = None;
        self.saw_ar_grant = None;
        self.saw_w_downstream = false;
        if self.severed() {
            self.saw_w_downstream = self.q_w_owed > 0 && mgr.w.fires();
            self.tracker.observe(mgr);
            return;
        }
        if !self.deny_aw {
            if let Some(aw) = mgr.aw.fired_beat() {
                self.saw_aw_grant = Some(Grant {
                    id: aw.id.0,
                    bytes: aw.total_bytes(),
                    beats: u64::from(aw.len.beats()),
                });
            }
        }
        if !self.deny_ar {
            if let Some(ar) = mgr.ar.fired_beat() {
                self.saw_ar_grant = Some(Grant {
                    id: ar.id.0,
                    bytes: ar.total_bytes(),
                    beats: u64::from(ar.len.beats()),
                });
            }
        }
        self.saw_w_downstream = self.tracker.drain_beats_pending() == 0 && mgr.w.fires();
        if self.deny_aw || self.deny_ar {
            let masked = self.masked(mgr);
            self.tracker.observe(&masked);
        } else {
            self.tracker.observe(mgr);
        }
    }

    /// Pass 4: clock commit for `cycle` — charges the budget with the
    /// cycle's grants, latches denial episodes, rolls the window,
    /// escalates to isolation when the overrun streak crosses the
    /// configured threshold, and commits the tracker.
    #[inline]
    pub fn commit(&mut self, cycle: u64) {
        if self.cfg.enabled() {
            self.commit_enabled(cycle);
        }
    }

    /// The enabled-path body of [`Self::commit`], split out so the
    /// disabled pass-through stays a cross-crate-inlinable branch.
    fn commit_enabled(&mut self, cycle: u64) {
        let mut spend = CycleSpend::default();
        if let Some(grant) = self.saw_aw_grant.take() {
            spend.write_bytes = grant.bytes;
            spend.write_txns = 1;
            self.q_grants += 1;
            self.q_w_owed += grant.beats;
            self.telemetry.record(
                cycle,
                "regulate",
                TraceEvent::CreditGrant {
                    dir: Dir::Write,
                    id: grant.id,
                    bytes: grant.bytes,
                },
            );
            let waited = self
                .q_aw_wait_since
                .take()
                .map_or(0, |since| cycle.saturating_sub(since));
            self.telemetry
                .metrics_mut()
                .observe("regulate.grant_wait.write", waited);
        }
        if let Some(grant) = self.saw_ar_grant.take() {
            spend.read_bytes = grant.bytes;
            spend.read_txns = 1;
            self.q_grants += 1;
            self.telemetry.record(
                cycle,
                "regulate",
                TraceEvent::CreditGrant {
                    dir: Dir::Read,
                    id: grant.id,
                    bytes: grant.bytes,
                },
            );
            let waited = self
                .q_ar_wait_since
                .take()
                .map_or(0, |since| cycle.saturating_sub(since));
            self.telemetry
                .metrics_mut()
                .observe("regulate.grant_wait.read", waited);
        }
        if std::mem::take(&mut self.saw_w_downstream) {
            self.q_w_owed = self.q_w_owed.saturating_sub(1);
        }
        if self.deny_aw {
            spend.denied = true;
            if self.q_aw_wait_since.is_none() {
                self.q_aw_wait_since = Some(cycle);
                self.q_denies += 1;
                self.telemetry.record(
                    cycle,
                    "regulate",
                    TraceEvent::CreditDeny {
                        dir: Dir::Write,
                        id: self.denied_aw_id,
                    },
                );
            }
        }
        if self.deny_ar {
            spend.denied = true;
            if self.q_ar_wait_since.is_none() {
                self.q_ar_wait_since = Some(cycle);
                self.q_denies += 1;
                self.telemetry.record(
                    cycle,
                    "regulate",
                    TraceEvent::CreditDeny {
                        dir: Dir::Read,
                        id: self.denied_ar_id,
                    },
                );
            }
        }
        if let Some(roll) = self.budget.commit(&spend, cycle) {
            self.telemetry.record(
                cycle,
                "regulate",
                TraceEvent::CreditReplenish {
                    window: roll.window,
                    overrun: roll.overrun,
                },
            );
            if let RegulationMode::Isolate { overrun_windows } = self.cfg.mode() {
                if !self.q_isolated && roll.streak >= overrun_windows {
                    self.q_isolated = true;
                    self.q_isolations += 1;
                    self.tracker.trigger_isolation(ISOLATION_REASON);
                    self.telemetry.record(
                        cycle,
                        "regulate",
                        TraceEvent::Isolated {
                            streak: roll.streak,
                        },
                    );
                }
            }
        }
        self.tracker.commit(cycle);
        // A commanded isolation must not reset the subordinate — the
        // manager is the faulty party, and the port stays severed until
        // software re-admits it. Swallow the tracker's reset request.
        let _ = self.tracker.take_reset_request();
        if self.telemetry.should_sample(cycle) {
            self.publish_gauges(cycle);
            self.telemetry.take_sample(cycle);
        }
    }

    /// Software re-admission of an isolated manager: refills the bucket,
    /// clears the overrun history, and lets the tracker resume
    /// monitoring. Returns `false` (and does nothing) while the port is
    /// not isolated, the tracker is still delivering aborts, or owed W
    /// beats are still draining downstream.
    pub fn release(&mut self) -> bool {
        if !self.q_isolated || self.tracker.state() != TmuState::WaitReset || self.q_w_owed > 0 {
            return false;
        }
        self.tracker.reset_done();
        self.budget.reset();
        self.q_isolated = false;
        self.q_aw_wait_since = None;
        self.q_ar_wait_since = None;
        true
    }

    /// Publishes the credit-level gauges; with telemetry enabled they
    /// travel as [`TraceEvent::Gauge`] events, otherwise they are set
    /// directly so snapshots stay live.
    fn publish_gauges(&mut self, cycle: u64) {
        let gauges: [(&'static str, u64); 6] = [
            (
                "regulate.credit.write.bytes",
                self.budget.bytes_left(Dir::Write),
            ),
            (
                "regulate.credit.write.txns",
                self.budget.txns_left(Dir::Write),
            ),
            (
                "regulate.credit.read.bytes",
                self.budget.bytes_left(Dir::Read),
            ),
            (
                "regulate.credit.read.txns",
                self.budget.txns_left(Dir::Read),
            ),
            ("regulate.overrun_streak", u64::from(self.budget.streak())),
            ("regulate.isolated", u64::from(self.q_isolated)),
        ];
        if self.telemetry.enabled() {
            for (name, value) in gauges {
                self.telemetry
                    .record(cycle, "regulate", TraceEvent::Gauge { name, value });
            }
        } else {
            let metrics = self.telemetry.metrics_mut();
            for (name, value) in gauges {
                metrics.gauge_set(name, value);
            }
        }
    }

    /// The elaboration-time configuration.
    #[must_use]
    pub fn config(&self) -> &RegulatorConfig {
        &self.cfg
    }

    /// The live credit bucket (levels, streak, window count).
    #[must_use]
    pub fn budget(&self) -> &BudgetUnit {
        &self.budget
    }

    /// Diagnostic access to the embedded tracker TMU.
    #[must_use]
    pub fn tracker(&self) -> &Tmu {
        &self.tracker
    }

    /// True while the manager is severed awaiting [`Regulator::release`].
    #[must_use]
    pub fn is_isolated(&self) -> bool {
        self.q_isolated
    }

    /// Address handshakes granted since construction.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.q_grants
    }

    /// Denial episodes (a handshake newly starting to wait) since
    /// construction.
    #[must_use]
    pub fn denies(&self) -> u64 {
        self.q_denies
    }

    /// Isolations commanded since construction.
    #[must_use]
    pub fn isolations(&self) -> u64 {
        self.q_isolations
    }

    /// Transactions the tracker currently holds open for this manager.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.tracker.outstanding()
    }

    /// Switches the regulator's telemetry on (credit events, gauges and
    /// grant-wait histograms).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry.enable(config);
    }

    /// The regulator's telemetry hub.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// Mutable telemetry access.
    #[must_use]
    pub fn telemetry_mut(&mut self) -> &mut TelemetryHub {
        &mut self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DirBudget;
    use axi4::beat::{AwBeat, BBeat, WBeat};
    use axi4::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};

    fn aw() -> AwBeat {
        AwBeat::new(
            AxiId(1),
            Addr(0x100),
            BurstLen::SINGLE,
            BurstSize::default(), // 8 bytes/beat
            BurstKind::Incr,
        )
    }

    /// One harness cycle: the manager closure drives `mgr`, a perfectly
    /// ready subordinate stub answers on `out`, queued B responses are
    /// driven, and all four regulator passes run.
    fn step(
        reg: &mut Regulator,
        mgr: &mut AxiPort,
        out: &mut AxiPort,
        b_queue: &mut Vec<BBeat>,
        cycle: u64,
        drive: impl FnOnce(&mut AxiPort),
    ) {
        mgr.begin_cycle();
        out.begin_cycle();
        drive(mgr);
        mgr.b.set_ready(true);
        mgr.r.set_ready(true);
        reg.forward_request(mgr, out);
        out.aw.set_ready(true);
        out.w.set_ready(true);
        out.ar.set_ready(true);
        if let Some(b) = b_queue.first() {
            out.b.drive(*b);
        }
        reg.forward_response(out, mgr);
        reg.observe(mgr);
        if out.b.fires() {
            b_queue.remove(0);
        }
        if out.w.fired_beat().is_some_and(|w| w.last) {
            b_queue.push(BBeat::new(AxiId(1), Resp::Okay));
        }
        reg.commit(cycle);
    }

    fn tight_cfg(mode: RegulationMode) -> RegulatorConfig {
        RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: 8,
                txns_per_window: 1,
            })
            .read_budget(DirBudget::unlimited())
            .window_cycles(4)
            .mode(mode)
            .build()
            .expect("tight test configuration is valid")
    }

    #[test]
    fn disabled_regulator_is_wire_exact() {
        let cfg = RegulatorConfig::builder()
            .enabled(false)
            .build()
            .expect("disabled configuration is valid");
        let mut reg = Regulator::new(cfg);
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        mgr.aw.drive(aw());
        mgr.w.drive(WBeat::new(7, true));
        mgr.b.set_ready(true);
        reg.forward_request(&mgr, &mut out);
        assert!(out.aw.valid() && out.w.valid() && out.b.ready());
        out.aw.set_ready(true);
        out.b.drive(BBeat::new(AxiId(1), Resp::Okay));
        reg.forward_response(&out, &mut mgr);
        assert!(mgr.aw.fires() && mgr.b.fires());
        reg.observe(&mgr);
        reg.commit(0);
        assert_eq!((reg.grants(), reg.denies()), (0, 0));
    }

    #[test]
    fn denies_when_credits_exhausted_and_replenishes() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::BackPressure));
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        let mut b_queue = Vec::new();
        // Cycle 0: first AW is granted (full bucket).
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 0, |m| {
            m.aw.drive(aw());
        });
        assert_eq!(reg.grants(), 1);
        // Cycle 1: bucket empty — next AW held by deny while the granted
        // burst's W beat still flows through.
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 1, |m| {
            m.aw.drive(aw());
            m.w.drive(WBeat::new(0xAB, true));
        });
        // Cycle 2: still denied.
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 2, |m| {
            m.aw.drive(aw());
        });
        assert_eq!(reg.grants(), 1, "denied AW must not be granted");
        assert_eq!(reg.denies(), 1, "one denial episode, not one per cycle");
        // Cycle 3 closes the window; cycle 4 grants from the fresh bucket.
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 3, |m| {
            m.aw.drive(aw());
        });
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 4, |m| {
            m.aw.drive(aw());
        });
        assert_eq!(reg.grants(), 2);
        assert!(!reg.is_isolated(), "back-pressure mode never isolates");
        let wait = reg
            .telemetry()
            .metrics()
            .histogram("regulate.grant_wait.write")
            .expect("grant-wait histogram exists after a grant");
        assert!(wait.percentile(100.0).expect("histogram is nonempty") >= 3);
    }

    #[test]
    fn isolates_after_consecutive_overrun_windows_and_releases() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 2 }));
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        let mut b_queue = Vec::new();
        let mut w_owed = 0_u64;
        // A greedy manager: AW every cycle, W as soon as owed.
        for cycle in 0..8 {
            let send_w = w_owed > 0;
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
                if send_w {
                    m.w.drive(WBeat::new(cycle, true));
                }
            });
            if mgr.aw.fires() {
                w_owed += 1;
            }
            if mgr.w.fires() {
                w_owed -= 1;
            }
        }
        // Windows 0 and 1 both overran: the commit of cycle 7 severed.
        assert!(reg.is_isolated());
        assert_eq!(reg.isolations(), 1);
        let fault = reg.tracker().last_fault().expect("isolation logs a fault");
        assert!(
            matches!(fault.kind, tmu::FaultKind::External(ISOLATION_REASON)),
            "fault must be the commanded isolation, got {:?}",
            fault.kind
        );
        // Severed: no grants, manager's AW held low-ready.
        for cycle in 8..12 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
            });
            assert!(!mgr.aw.fires(), "an isolated manager must stay severed");
        }
        assert_eq!(reg.grants(), 2);
        // Aborts are done (nothing was outstanding) → release re-admits.
        assert!(reg.release());
        assert!(!reg.is_isolated());
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 12, |m| {
            m.aw.drive(aw());
        });
        assert_eq!(reg.grants(), 3, "released manager is granted again");
    }

    #[test]
    fn isolation_aborts_outstanding_writes_with_slverr() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 1 }));
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        // Grant an AW whose W beat we withhold, so the write is still
        // open when the overrun window closes.
        let mut b_queue = Vec::new();
        for cycle in 0..4 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
            });
        }
        assert!(reg.is_isolated());
        assert_eq!(
            reg.tracker().state(),
            TmuState::Aborting,
            "the open write must put the tracker into its abort phase"
        );
        // The withheld W beat is owed downstream and must drain there;
        // afterwards the tracker answers the write with SLVERR.
        let mut saw_slverr = false;
        for cycle in 4..12 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.w.drive(WBeat::new(9, true));
            });
            if let Some(b) = mgr.b.fired_beat() {
                assert_eq!(b.resp, Resp::SlvErr);
                saw_slverr = true;
            }
        }
        assert!(saw_slverr, "outstanding write must be SLVERR-aborted");
        assert!(reg.release(), "owed beats drained; release must succeed");
    }
}
