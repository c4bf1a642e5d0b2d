//! Property tests: the TMU's quiet-cycle gates are exact.
//!
//! Under the deadline wheel, a guard whose wires carry no `valid` beat
//! skips its observe and commit work unless a stalled address beat or a
//! due deadline needs it, and the protocol checker skips its rule sweep
//! unless a stability shadow is held. The per-cycle reference engine is
//! never gated. Two guarded links, one per engine, are driven in
//! lockstep under *sparse* traffic (long issue gaps, one or two
//! outstanding), so most cycles are quiet, with an injected fault whose
//! activation and timeout deadline land inside those quiet stretches.
//! Every observable must match cycle by cycle: fault count, recovery
//! state, interrupt line and every tracked transaction's phase and
//! materialized counter; and at the end the error and performance logs.

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::{BudgetConfig, CounterEngine, TelemetryConfig, TmuConfig, TmuVariant};
use proptest::prelude::*;

fn budgets(base: u64) -> BudgetConfig {
    BudgetConfig {
        addr_handshake: base,
        data_entry: base,
        first_data: base,
        per_beat: base,
        resp_wait: base,
        resp_ready: base,
        queue_wait_per_txn: 0,
        queue_wait_per_beat: 0,
        tiny_total_override: Some(base * 4),
    }
}

fn cfg(
    variant: TmuVariant,
    engine: CounterEngine,
    step: u64,
    sticky: bool,
    base_budget: u64,
) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .prescaler(step)
        .sticky(sticky)
        .budgets(budgets(base_budget))
        .engine(engine)
        .build()
        .expect("valid differential configuration")
}

/// Sparse traffic: at most `outstanding` transactions in flight, at
/// least `gap` cycles between issues.
fn sparse_pattern(outstanding: usize, gap: u64) -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4, 16],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x4000,
        addr_span: 0x1000,
        max_outstanding: outstanding,
        issue_gap: gap,
        total_txns: None,
        verify_data: false,
    }
}

/// The fault plan under test. Mid-burst stalls trigger on a beat count,
/// every other class at an absolute cycle, which sparse traffic almost
/// always places between transactions.
fn plan(class: FaultClass, at_cycle: u64, glitch: Option<u64>) -> FaultPlan {
    let trigger = match class {
        FaultClass::MidBurstStall => Trigger::AfterWBeats(2),
        FaultClass::RMidBurstStall => Trigger::AfterRBeats(2),
        _ => Trigger::AtCycle(at_cycle),
    };
    match glitch {
        Some(cycles) => FaultPlan::transient(class, trigger, cycles),
        None => FaultPlan::new(class, trigger),
    }
}

/// Steps both links `cycles` cycles, comparing every observable each
/// cycle and the logs at the end.
fn assert_lockstep(
    reference: &mut GuardedLink<MemSub>,
    gated: &mut GuardedLink<MemSub>,
    cycles: u64,
) {
    for _ in 0..cycles {
        reference.step();
        gated.step();
        let at = reference.cycle();
        prop_assert_eq!(
            reference.tmu.faults_detected(),
            gated.tmu.faults_detected(),
            "fault count diverged at cycle {}",
            at
        );
        prop_assert_eq!(
            reference.tmu.state(),
            gated.tmu.state(),
            "recovery state diverged at cycle {}",
            at
        );
        prop_assert_eq!(
            reference.tmu.irq_pending(),
            gated.tmu.irq_pending(),
            "interrupt diverged at cycle {}",
            at
        );
        prop_assert_eq!(
            reference.tmu.write_guard().debug_entries(),
            gated.tmu.write_guard().debug_entries(),
            "write-side trackers diverged at cycle {}",
            at
        );
        prop_assert_eq!(
            reference.tmu.read_guard().debug_entries(),
            gated.tmu.read_guard().debug_entries(),
            "read-side trackers diverged at cycle {}",
            at
        );
    }
    prop_assert_eq!(reference.tmu.error_log(), gated.tmu.error_log());
    prop_assert_eq!(reference.tmu.perf_log(), gated.tmu.perf_log());
    prop_assert_eq!(
        reference.tmu.resets_requested(),
        gated.tmu.resets_requested()
    );
    prop_assert_eq!(reference.irq_first_at(), gated.irq_first_at());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse traffic with one injected fault, persistent or a transient
    /// glitch: the gated wheel link and the ungated per-cycle link log
    /// the same records at the same cycles, hold the same trackers and
    /// counters on every cycle, and raise the interrupt together.
    #[test]
    fn sparse_traffic_with_quiet_faults_is_engine_invariant(
        seed in 0u64..1_000_000,
        step in 1u64..=64,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        outstanding in 1usize..=2,
        gap in 16u64..=256,
        class_sel in 0usize..FaultClass::ALL.len(),
        at_cycle in 100u64..2_000,
        persistent in any::<bool>(),
        glitch_cycles in 1u64..1_200,
        base_budget in 32u64..600,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        let class = FaultClass::ALL[class_sel];
        // A glitch may outlast the budget (a timeout) or end just short
        // of it (a deadline that must not fire).
        let glitch = (!persistent).then_some(glitch_cycles);
        let mem = MemConfig {
            b_latency: 3,
            r_warmup: 5,
            r_beat_gap: 1,
            max_inflight: 8,
        };
        let mut reference = GuardedLink::new(
            sparse_pattern(outstanding, gap),
            cfg(variant, CounterEngine::PerCycle, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        let mut gated = GuardedLink::new(
            sparse_pattern(outstanding, gap),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        if telemetry {
            gated.enable_telemetry(TelemetryConfig::default());
        }
        reference.inject(plan(class, at_cycle, glitch));
        gated.inject(plan(class, at_cycle, glitch));
        // Past the activation, the longest Tiny-Counter budget (four
        // phases' worth, prescaled) and the recovery that follows.
        let horizon = at_cycle + base_budget * 8 + step * 4 + 3_000;
        assert_lockstep(&mut reference, &mut gated, horizon);
        if glitch.is_none() {
            prop_assert!(
                reference.tmu.faults_detected() > 0,
                "persistent {:?} must be detected",
                class
            );
        }
    }

    /// Fault-free sparse traffic: long quiet stretches between short
    /// bursts, both engines retire the same transactions with the same
    /// per-phase latencies and flag nothing.
    #[test]
    fn fault_free_sparse_traffic_is_engine_invariant(
        seed in 0u64..1_000_000,
        step in 1u64..=64,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        outstanding in 1usize..=2,
        gap in 16u64..=256,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        let mut reference = GuardedLink::new(
            sparse_pattern(outstanding, gap),
            cfg(variant, CounterEngine::PerCycle, step, sticky, 2_000),
            MemSub::default(),
            seed,
        );
        let mut gated = GuardedLink::new(
            sparse_pattern(outstanding, gap),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, 2_000),
            MemSub::default(),
            seed,
        );
        if telemetry {
            gated.enable_telemetry(TelemetryConfig::default());
        }
        assert_lockstep(&mut reference, &mut gated, 4_000);
        prop_assert_eq!(reference.tmu.faults_detected(), 0, "compliant traffic must stay clean");
        prop_assert!(reference.tmu.perf_log().writes() + reference.tmu.perf_log().reads() > 0);
    }
}
