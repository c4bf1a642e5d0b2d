//! The replica equivalence gate: each replica of an assembly's `step`
//! must reproduce the real assembly's simulated fingerprint exactly, for
//! the default and the extra seed, with and without sampled timing.

use perfbench::assembly::{Assembly, Fingerprint};
use perfbench::faultloop::FaultLoop;
use perfbench::replica::{LinkReplica, RegulatedReplica, Replica, SystemReplica};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, DEFAULT_SEED, EXTRA_SEED};

fn run(mut a: impl Assembly, cycles: u64) -> Fingerprint {
    for _ in 0..cycles {
        a.step();
    }
    Fingerprint::of(&a)
}

fn traced<R: Replica>(mut r: R, seed: u64) -> R {
    r.set_tracer(Tracer::sampling(seed));
    r
}

#[test]
fn system_replica_matches_system() {
    // Past cycle 93 992, where seed 0xC0FFEE first trips the Ethernet
    // TMU's R-stability check, so the recovery path is compared too.
    let cycles = 120_000;
    for seed in [DEFAULT_SEED, EXTRA_SEED] {
        let real = run(workloads::soc_busy(seed), cycles);
        let cfg = || workloads::soc_busy_config(seed);
        assert_eq!(run(SystemReplica::new(cfg()), cycles), real, "seed {seed}");
        let replica = traced(SystemReplica::new(cfg()), seed);
        assert_eq!(run(replica, cycles), real, "traced, seed {seed}");
    }
}

#[test]
fn link_replica_matches_guarded_link_under_fault_campaign() {
    let cycles = 60_000;
    for seed in [DEFAULT_SEED, EXTRA_SEED] {
        let real = run(
            FaultLoop::new(workloads::link_faults(seed, true), seed),
            cycles,
        );
        let faults = real.faults().expect("the campaign ran");
        assert!(faults.detected > 20, "faults exercised: {faults:?}");
        let replica = FaultLoop::new(LinkReplica::new(seed), seed);
        assert_eq!(run(replica, cycles), real, "seed {seed}");
        let replica = traced(FaultLoop::new(LinkReplica::new(seed), seed), seed);
        assert_eq!(run(replica, cycles), real, "traced, seed {seed}");
    }
}

#[test]
fn regulated_replica_matches_regulated_link() {
    let cycles = 60_000;
    for seed in [DEFAULT_SEED, EXTRA_SEED] {
        let real = run(workloads::regulated_mixed(seed), cycles);
        assert_eq!(
            run(RegulatedReplica::new(seed), cycles),
            real,
            "seed {seed}"
        );
        let replica = traced(RegulatedReplica::new(seed), seed);
        assert_eq!(run(replica, cycles), real, "traced, seed {seed}");
    }
}

#[test]
fn fingerprint_tells_seeds_apart() {
    let cycles = 20_000;
    assert_ne!(
        run(workloads::regulated_mixed(DEFAULT_SEED), cycles),
        run(workloads::regulated_mixed(EXTRA_SEED), cycles),
    );
}
