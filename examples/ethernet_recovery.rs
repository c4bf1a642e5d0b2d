//! The paper's system-level story (Figs. 10 & 11) as a narrated
//! scenario: a Cheshire-like SoC whose Ethernet IP develops a fault
//! mid-operation; the TMU detects it, isolates the IP, aborts the
//! outstanding transactions with `SLVERR`, interrupts the CPU, requests
//! a hardware reset, and traffic resumes. The TMU's lifecycle trace is
//! the fault and recovery records of its telemetry ring, rendered with
//! their `Display`; the example checks that they tell the whole story,
//! in order.
//!
//! ```text
//! cargo run --example ethernet_recovery
//! ```

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::system::{System, SystemConfig};
use axi_tmu::tmu::telemetry::TelemetryRecord;
use axi_tmu::tmu::{BudgetConfig, TelemetryConfig, TmuConfig};
use axi_tmu::tmu::{TmuState, TmuVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig {
        // System-level budgets: the base allowances must also cover
        // crossbar arbitration from CPU traffic sharing the trunk.
        tmu: TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .budgets(BudgetConfig::system_level())
            .build()?,
        ..SystemConfig::default()
    };
    let mut system = System::new(cfg);
    system.enable_telemetry(TelemetryConfig::default());

    println!("[phase 1] healthy operation");
    system.run(1000);
    println!(
        "  cycle {:>5}: {} frames transmitted, {} CPU txns completed, 0 faults",
        system.cycle(),
        system.eth().frames_txed(),
        system.cpu_stats().total_completed()
    );
    assert_eq!(system.tmu().faults_detected(), 0);

    println!("[phase 2] the Ethernet IP stops accepting write data at cycle 1200");
    let fault_seq = system.tmu().telemetry().seq();
    system.inject(FaultPlan::new(
        FaultClass::WReadyDrop,
        Trigger::AtCycle(1200),
    ));
    let detected = system.run_until(20_000, |s| s.tmu().faults_detected() > 0);
    assert!(detected);
    let fault = system.tmu().last_fault().expect("fault logged").clone();
    println!("  cycle {:>5}: TMU detected: {fault}", system.cycle());
    println!(
        "  cycle {:>5}: interrupt asserted at cycle {:?}, state = {:?}",
        system.cycle(),
        system.irq().first_asserted_at,
        system.tmu().state()
    );

    println!("[phase 3] isolation, SLVERR aborts, hardware reset");
    let recovered = system.run_until(20_000, |s| {
        s.eth_resets() > 0 && s.tmu().state() == TmuState::Monitoring
    });
    assert!(recovered);
    println!(
        "  cycle {:>5}: Ethernet reset {} time(s); aborted DMA writes: {}",
        system.cycle(),
        system.eth_resets(),
        system.dma_stats().writes_errored
    );
    // Read the lifecycle now, before phase 4's traffic can evict it from
    // the bounded ring: every record since the fault must still be held.
    let telemetry = system.tmu().telemetry();
    assert!(
        telemetry.events_dropped() <= fault_seq,
        "ring evicted {} records, past the fault's seq {fault_seq}",
        telemetry.events_dropped()
    );
    let lifecycle: Vec<TelemetryRecord> = telemetry
        .events()
        .iter()
        .filter(|r| r.seq >= fault_seq)
        .filter(|r| r.event.is_lifecycle())
        .copied()
        .collect();
    let story: Vec<String> = lifecycle.iter().map(|r| r.event.to_string()).collect();
    let expected = [
        "fault: timeout",
        "recovery: severed",
        "recovery: aborts-delivered",
        "recovery: reset-requested",
        "recovery: resumed",
    ];
    assert_eq!(story.len(), expected.len(), "{story:?}");
    for (line, stage) in story.iter().zip(expected) {
        assert!(line.starts_with(stage), "expected {stage}: {story:?}");
    }

    println!("[phase 4] software clears the interrupt; traffic resumes");
    system.tmu_mut().clear_irq();
    let frames_before = system.eth().frames_txed();
    system.run(4000);
    println!(
        "  cycle {:>5}: {} new frames since recovery, faults still {}",
        system.cycle(),
        system.eth().frames_txed() - frames_before,
        system.tmu().faults_detected()
    );
    assert!(
        system.eth().frames_txed() > frames_before,
        "traffic must resume"
    );
    assert!(!system.tmu().irq_pending());
    println!("\nRecovery complete: the fault was contained to the Ethernet link while");
    println!(
        "CPU/memory traffic kept flowing ({} txns total).",
        system.cpu_stats().total_completed()
    );
    println!("\nTMU lifecycle trace:");
    for record in &lifecycle {
        println!("  {record}");
    }
    Ok(())
}
