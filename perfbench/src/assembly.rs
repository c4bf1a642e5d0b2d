//! What the benchmark needs from an assembly, real or replica, and the
//! simulated fingerprint two runs are compared by.

use soc::manager::MgrStats;
use soc::memory::MemSub;
use soc::{GuardedLink, RegulatedLink, System};
use tmu::log::ErrorRecord;
use tmu::Tmu;
use tmu_regulate::Regulator;

use crate::faultloop::FaultStats;

/// A steppable assembly plus the read-only views the benchmark checks.
pub trait Assembly {
    /// Simulates one clock cycle.
    fn step(&mut self);
    /// Cycles simulated so far.
    fn cycle(&self) -> u64;
    /// The manager whose round-trip latency the workload reports.
    fn protected(&self) -> &MgrStats;
    /// Every manager, the protected one first.
    fn managers(&self) -> Vec<&MgrStats>;
    /// Every TMU guarding a link (regulator trackers excluded).
    fn tmus(&self) -> Vec<&Tmu>;
    /// Beat counters of every subordinate.
    fn sub_beats(&self) -> Vec<u64>;
    /// Every attached traffic regulator.
    fn regulators(&self) -> Vec<&Regulator> {
        Vec::new()
    }
    /// DECERR transactions answered by the crossbar.
    fn decode_errors(&self) -> u64 {
        0
    }
    /// Outcomes of the fault-injection loop, where one drives the run.
    fn fault_stats(&self) -> Option<&FaultStats> {
        None
    }
}

/// Simulated state two runs of one seed must agree on exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    cycle: u64,
    /// Per manager: issued, completed and errored writes and reads,
    /// W/R beats, and count and sum of both latency histograms.
    managers: Vec<[u64; 12]>,
    sub_beats: Vec<u64>,
    /// Per TMU: faults, resets, log overflow and the logged records.
    tmus: Vec<(u64, u64, u64, Vec<ErrorRecord>)>,
    /// Per regulator: grants, denies, isolations.
    regulators: Vec<[u64; 3]>,
    /// Telemetry events recorded per TMU.
    telemetry_seq: Vec<u64>,
    decode_errors: u64,
    faults: Option<FaultStats>,
}

impl Fingerprint {
    /// Takes the fingerprint of `a` as it stands.
    #[must_use]
    pub fn of(a: &impl Assembly) -> Self {
        Fingerprint {
            cycle: a.cycle(),
            managers: a
                .managers()
                .iter()
                .map(|s| {
                    [
                        s.writes_issued,
                        s.writes_completed,
                        s.writes_errored,
                        s.reads_issued,
                        s.reads_completed,
                        s.reads_errored,
                        s.w_beats,
                        s.r_beats,
                        s.write_latency.count(),
                        s.write_latency.sum(),
                        s.read_latency.count(),
                        s.read_latency.sum(),
                    ]
                })
                .collect(),
            sub_beats: a.sub_beats(),
            tmus: a
                .tmus()
                .iter()
                .map(|t| {
                    (
                        t.faults_detected(),
                        t.resets_requested(),
                        t.error_log().overflowed(),
                        t.error_log().iter().cloned().collect(),
                    )
                })
                .collect(),
            regulators: a
                .regulators()
                .iter()
                .map(|r| [r.grants(), r.denies(), r.isolations()])
                .collect(),
            telemetry_seq: a.tmus().iter().map(|t| t.telemetry().seq()).collect(),
            decode_errors: a.decode_errors(),
            faults: a.fault_stats().cloned(),
        }
    }

    /// The fault-campaign scores, where a campaign drove the run.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultStats> {
        self.faults.as_ref()
    }
}

impl Assembly for System {
    fn step(&mut self) {
        System::step(self);
    }

    fn cycle(&self) -> u64 {
        System::cycle(self)
    }

    fn protected(&self) -> &MgrStats {
        self.cpu_stats()
    }

    fn managers(&self) -> Vec<&MgrStats> {
        vec![self.cpu_stats(), self.dma_stats()]
    }

    fn tmus(&self) -> Vec<&Tmu> {
        std::iter::once(self.tmu()).chain(self.mem_tmu()).collect()
    }

    fn sub_beats(&self) -> Vec<u64> {
        vec![
            self.mem().beats_written(),
            self.mem().beats_read(),
            self.eth().beats_txed(),
            self.eth().beats_rxed(),
            self.eth().frames_txed(),
        ]
    }

    fn decode_errors(&self) -> u64 {
        System::decode_errors(self)
    }
}

impl Assembly for GuardedLink<MemSub> {
    fn step(&mut self) {
        GuardedLink::step(self);
    }

    fn cycle(&self) -> u64 {
        GuardedLink::cycle(self)
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

impl Assembly for RegulatedLink<MemSub> {
    fn step(&mut self) {
        RegulatedLink::step(self);
    }

    fn cycle(&self) -> u64 {
        RegulatedLink::cycle(self)
    }

    fn protected(&self) -> &MgrStats {
        self.stats(0)
    }

    fn managers(&self) -> Vec<&MgrStats> {
        (0..self.fabric().ports()).map(|i| self.stats(i)).collect()
    }

    fn tmus(&self) -> Vec<&Tmu> {
        self.tmu().into_iter().collect()
    }

    fn sub_beats(&self) -> Vec<u64> {
        vec![self.sub().beats_written(), self.sub().beats_read()]
    }

    fn regulators(&self) -> Vec<&Regulator> {
        (0..self.fabric().ports())
            .filter_map(|i| self.regulator(i))
            .collect()
    }
}
