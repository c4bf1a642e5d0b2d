//! The `link_faults` fault campaign: arms the ten fault classes in
//! turn on a guarded link, each after the previous recovery completed,
//! and scores every armed fault.
//!
//! The loop only uses the link's public calls (`inject`, the injector
//! and TMU views), so the same code drives the real `GuardedLink` and
//! the benchmark's replica of it.

use faults::{FaultClass, FaultPlan, Injector, Trigger};
use soc::manager::MgrStats;
use soc::memory::MemSub;
use soc::GuardedLink;
use tmu::{Tmu, TmuState};

use crate::assembly::Assembly;

/// Cycles an armed fault may wait for traffic to activate it, and an
/// activated fault may wait for its detection, before it is scored as
/// not activated or missed. Far above the analytic detection bound of
/// the prescaled budgets used here.
pub const FAULT_PATIENCE: u64 = 50_000;

/// What the fault loop needs beyond [`Assembly`].
pub trait FaultPort: Assembly {
    /// Arms `plan` on the link's injector.
    fn inject(&mut self, plan: FaultPlan);
    /// Disarms the injector.
    fn disarm(&mut self);
    /// The link's injector.
    fn injector(&self) -> &Injector;
    /// The link's TMU.
    fn tmu(&self) -> &Tmu;
}

impl FaultPort for GuardedLink<MemSub> {
    fn inject(&mut self, plan: FaultPlan) {
        GuardedLink::inject(self, plan);
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

/// Scores of the campaign so far. Part of the simulated fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults armed.
    pub armed: u64,
    /// Armed faults detected exactly once.
    pub detected: u64,
    /// Activated faults never detected within [`FAULT_PATIENCE`].
    pub missed: u64,
    /// Extra flags raised for a fault already detected.
    pub flagged_twice: u64,
    /// Flags raised while no activated fault was pending.
    pub spurious: u64,
    /// Armed faults the traffic never activated (not a failure).
    pub not_activated: u64,
    /// Detected faults whose recovery completed (TMU back to monitoring,
    /// injector disarmed by the subordinate reset).
    pub recovered: u64,
    /// Detection latency of every detected fault: cycles from the
    /// injector's activation to the TMU's fault record.
    pub latencies: Vec<u64>,
}

impl FaultStats {
    /// Failed operations: missed, double-flagged and spurious flags.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.missed + self.flagged_twice + self.spurious
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle {
        arm_at: u64,
    },
    Armed {
        armed_at: u64,
    },
    /// Waiting for the link to resume; `detected` tells whether the
    /// fault that led here was detected.
    Recovering {
        detected: bool,
    },
}

/// A guarded link under the rolling fault campaign.
#[derive(Debug)]
pub struct FaultLoop<A> {
    inner: A,
    rng: u64,
    next_class: usize,
    phase: Phase,
    faults_seen: u64,
    draining: bool,
    stats: FaultStats,
}

/// The trigger that fits `class`: mid-burst stalls strike after a few
/// beats, everything else on the cycle it is armed.
fn trigger(class: FaultClass, cycle: u64) -> Trigger {
    match class {
        FaultClass::MidBurstStall => Trigger::AfterWBeats(2),
        FaultClass::RMidBurstStall => Trigger::AfterRBeats(2),
        _ => Trigger::AtCycle(cycle),
    }
}

impl<A: FaultPort> FaultLoop<A> {
    /// Wraps `inner`; gaps between faults follow `seed`.
    #[must_use]
    pub fn new(inner: A, seed: u64) -> Self {
        let mut lp = FaultLoop {
            inner,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            next_class: 0,
            phase: Phase::Idle { arm_at: 0 },
            faults_seen: 0,
            draining: false,
            stats: FaultStats::default(),
        };
        lp.phase = Phase::Idle { arm_at: lp.gap() };
        lp
    }

    /// Healthy cycles before the next fault: 256..1024, seeded.
    fn gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        256 + self.rng % 768
    }

    /// The wrapped link.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the wrapped link.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Stops arming new faults; a pending one is disarmed if it has not
    /// activated yet, and otherwise runs to detection and recovery.
    pub fn stop_arming(&mut self) {
        self.draining = true;
        if let Phase::Armed { .. } = self.phase {
            if self.inner.injector().activation_cycle().is_none() {
                self.inner.disarm();
                self.stats.not_activated += 1;
                self.phase = Phase::Idle { arm_at: u64::MAX };
            }
        }
    }

    /// True while no fault is armed or recovering.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        matches!(self.phase, Phase::Idle { .. })
    }

    fn after_step(&mut self) {
        let cycle = self.inner.cycle();
        let faults = self.inner.tmu().faults_detected();
        let new_flags = faults - self.faults_seen;
        self.faults_seen = faults;
        match self.phase {
            Phase::Idle { .. } => self.stats.spurious += new_flags,
            Phase::Armed { armed_at } => {
                let activated = self.inner.injector().activation_cycle();
                if new_flags > 0 {
                    match (activated, self.inner.tmu().last_fault()) {
                        (Some(at), Some(record)) => {
                            self.stats.detected += 1;
                            self.stats.flagged_twice += new_flags - 1;
                            self.stats.latencies.push(record.cycle.saturating_sub(at));
                        }
                        _ => {
                            // The flag is not this fault's; the reset it
                            // causes disarms the fault before it activated.
                            self.stats.spurious += new_flags;
                            if activated.is_none() {
                                self.stats.not_activated += 1;
                            }
                        }
                    }
                    self.phase = Phase::Recovering {
                        detected: activated.is_some(),
                    };
                } else if self.inner.injector().plan().is_none() {
                    // Disarmed by a reset the fault did not cause.
                    self.stats.not_activated += 1;
                    self.phase = Phase::Recovering { detected: false };
                } else {
                    let since = activated.unwrap_or(armed_at);
                    if cycle.saturating_sub(since) > FAULT_PATIENCE {
                        if activated.is_some() {
                            self.stats.missed += 1;
                        } else {
                            self.stats.not_activated += 1;
                        }
                        self.inner.disarm();
                        self.phase = Phase::Recovering { detected: false };
                    }
                }
            }
            Phase::Recovering { detected } => {
                self.stats.flagged_twice += new_flags;
                if self.inner.tmu().state() == TmuState::Monitoring
                    && self.inner.injector().plan().is_none()
                {
                    self.stats.recovered += u64::from(detected);
                    let arm_at = if self.draining {
                        u64::MAX
                    } else {
                        cycle + self.gap()
                    };
                    self.phase = Phase::Idle { arm_at };
                }
            }
        }
    }

    fn before_step(&mut self) {
        let cycle = self.inner.cycle();
        if let Phase::Idle { arm_at } = self.phase {
            if cycle >= arm_at && !self.draining {
                let class = FaultClass::ALL[self.next_class % FaultClass::ALL.len()];
                self.next_class += 1;
                self.inner
                    .inject(FaultPlan::new(class, trigger(class, cycle)));
                self.stats.armed += 1;
                self.phase = Phase::Armed { armed_at: cycle };
            }
        }
    }
}

impl<A: FaultPort> Assembly for FaultLoop<A> {
    fn step(&mut self) {
        self.before_step();
        self.inner.step();
        self.after_step();
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn protected(&self) -> &MgrStats {
        self.inner.protected()
    }

    fn managers(&self) -> Vec<&MgrStats> {
        self.inner.managers()
    }

    fn tmus(&self) -> Vec<&Tmu> {
        self.inner.tmus()
    }

    fn sub_beats(&self) -> Vec<u64> {
        self.inner.sub_beats()
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.stats)
    }
}
