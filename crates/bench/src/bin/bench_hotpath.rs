//! Hot-path engine benchmark: measures the deadline-wheel engine and the
//! event-driven fast-forward against the per-cycle reference on the
//! saturated total-stall scenario, the telemetry overhead (on the stall
//! and on real traffic), the cost of a quiet TMU and the regulator
//! pass-through. Prints a table and writes the measured numbers to
//! `BENCH_hotpath.json` at the repository root.

use std::time::Instant;

use tmu::{CounterEngine, TmuVariant};
use tmu_bench::hotpath::{
    passthrough_link, quiet_link, run_overload_isolation, run_saturated_stall,
    run_saturated_stall_fastforward, run_saturated_stall_with_telemetry, telemetry_traffic_link,
    PassthroughLink, StallRun, HOTPATH_BUDGET, HOTPATH_OUTSTANDING, QUIET_CYCLES, REGULATE_CYCLES,
    TELEMETRY_TRAFFIC_CYCLES,
};
use tmu_bench::table::Table;

/// Repetitions per timed measurement; the minimum is reported to shave
/// scheduler noise.
const REPS: u32 = 3;

fn time_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("at least one repetition"))
}

struct StallMeasurement {
    variant: TmuVariant,
    per_cycle_s: f64,
    wheel_s: f64,
    fastforward_s: f64,
    run: StallRun,
    fast: StallRun,
}

fn measure_stall(variant: TmuVariant) -> StallMeasurement {
    let (per_cycle_s, reference) =
        time_min(|| run_saturated_stall(variant, CounterEngine::PerCycle, HOTPATH_BUDGET));
    let (wheel_s, wheel) =
        time_min(|| run_saturated_stall(variant, CounterEngine::DeadlineWheel, HOTPATH_BUDGET));
    let (fastforward_s, fast) =
        time_min(|| run_saturated_stall_fastforward(variant, HOTPATH_BUDGET));
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (wheel.first_fault_cycle, wheel.inflight_cycles),
        "{variant:?}: engines diverged"
    );
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (fast.first_fault_cycle, fast.inflight_cycles),
        "{variant:?}: fast-forward diverged"
    );
    StallMeasurement {
        variant,
        per_cycle_s,
        wheel_s,
        fastforward_s,
        run: reference,
        fast,
    }
}

/// Cycles per slice when two links are timed against each other.
const CHUNK: u64 = 2_000;

/// Advances two runs `cycles` cycles each in alternating `CHUNK`-cycle
/// slices and returns the seconds each spent. The lead swaps every
/// slice and every repetition `rep`, so periodic background load cannot
/// alias onto one side and host throughput swings tax both alike.
fn interleave(rep: u32, cycles: u64, mut a: impl FnMut(u64), mut b: impl FnMut(u64)) -> (f64, f64) {
    let (mut a_s, mut b_s) = (0.0, 0.0);
    for chunk in 0..cycles / CHUNK {
        let a_leads = (rep + chunk as u32).is_multiple_of(2);
        for lead_a in [a_leads, !a_leads] {
            let start = Instant::now();
            if lead_a {
                a(CHUNK);
                a_s += start.elapsed().as_secs_f64();
            } else {
                b(CHUNK);
                b_s += start.elapsed().as_secs_f64();
            }
        }
    }
    (a_s, b_s)
}

fn json_f(value: f64) -> String {
    format!("{value:.6}")
}

fn main() {
    println!(
        "hot-path engine benchmark: {HOTPATH_OUTSTANDING} outstanding writes, \
         budget {HOTPATH_BUDGET} cycles, min of {REPS} reps\n"
    );

    let stalls: Vec<StallMeasurement> = [TmuVariant::TinyCounter, TmuVariant::FullCounter]
        .into_iter()
        .map(measure_stall)
        .collect();

    let mut table = Table::new(
        "saturated total-stall scenario",
        &[
            "variant",
            "per-cycle (ms)",
            "wheel (ms)",
            "wheel speedup",
            "fast-fwd (ms)",
            "fast-fwd speedup",
        ],
    );
    for m in &stalls {
        table.row_owned(vec![
            format!("{:?}", m.variant),
            format!("{:.3}", m.per_cycle_s * 1e3),
            format!("{:.3}", m.wheel_s * 1e3),
            format!("{:.2}x", m.per_cycle_s / m.wheel_s),
            format!("{:.3}", m.fastforward_s * 1e3),
            format!("{:.2}x", m.per_cycle_s / m.fastforward_s),
        ]);
    }
    println!("{}", table.render());
    for m in &stalls {
        println!(
            "{:?}: fault at cycle {}, {} harness steps stepped vs {} fast-forwarded",
            m.variant, m.run.first_fault_cycle, m.run.steps_executed, m.fast.steps_executed
        );
    }

    // Telemetry overhead on the wheel engine: a disabled hub must cost
    // one branch per record call, so the telemetry-disabled run must sit
    // within noise of the plain wheel run (target ratio ~1.0; on a
    // constrained 1-CPU host individual runs scatter roughly +/-10%).
    let tel_variant = TmuVariant::FullCounter;
    let (tel_off_s, tel_off) =
        time_min(|| run_saturated_stall_with_telemetry(tel_variant, HOTPATH_BUDGET, false));
    let (tel_on_s, tel_on) =
        time_min(|| run_saturated_stall_with_telemetry(tel_variant, HOTPATH_BUDGET, true));
    assert_eq!(
        (tel_off.first_fault_cycle, tel_off.inflight_cycles),
        (tel_on.first_fault_cycle, tel_on.inflight_cycles),
        "telemetry changed the benchmark outcome"
    );
    let wheel_baseline_s = stalls
        .iter()
        .find(|m| m.variant == tel_variant)
        .expect("FullCounter measured above")
        .wheel_s;
    let disabled_ratio = tel_off_s / wheel_baseline_s;
    let enabled_ratio = tel_on_s / tel_off_s;
    println!(
        "\ntelemetry overhead ({tel_variant:?}, wheel engine): baseline {:.3} ms, \
         disabled {:.3} ms ({disabled_ratio:.3}x), enabled {:.3} ms ({enabled_ratio:.2}x)",
        wheel_baseline_s * 1e3,
        tel_off_s * 1e3,
        tel_on_s * 1e3,
    );

    // Telemetry on real traffic: the stall above retires no transaction,
    // so it never exercises span retention. Here thousands of spans
    // retire past the retention bound; an eviction that shifts the
    // retained spans on every retirement measured 1.8-2.0x, amortized
    // eviction 1.2-1.4x. The two links advance in alternating chunks,
    // like the regulator pass-through below, so host throughput swings
    // tax both sides alike.
    const TRAFFIC_ENABLED_BOUND: f64 = 1.6;
    let mut traffic_off_total = 0.0f64;
    let mut traffic_on_total = 0.0f64;
    let mut traffic_txns = 0;
    let mut spans_retired = 0;
    for rep in 0..REPS {
        let mut off = telemetry_traffic_link(false);
        let mut on = telemetry_traffic_link(true);
        let (off_s, on_s) =
            interleave(rep, TELEMETRY_TRAFFIC_CYCLES, |n| off.run(n), |n| on.run(n));
        traffic_off_total += off_s;
        traffic_on_total += on_s;
        traffic_txns = on.mgr.stats().total_completed();
        assert_eq!(
            off.mgr.stats().total_completed(),
            traffic_txns,
            "telemetry changed the traffic outcome"
        );
        assert_eq!(
            (off.tmu.faults_detected(), on.tmu.faults_detected()),
            (0, 0),
            "compliant traffic must not be flagged"
        );
        let spans = on.tmu.telemetry().spans().expect("spans are on by default");
        spans_retired = spans.spans().len() as u64 + spans.dropped_spans();
    }
    let traffic_off_s = traffic_off_total / f64::from(REPS);
    let traffic_on_s = traffic_on_total / f64::from(REPS);
    let traffic_ratio = traffic_on_total / traffic_off_total;
    println!(
        "telemetry on traffic ({TELEMETRY_TRAFFIC_CYCLES} cycles, {traffic_txns} txns, \
         {spans_retired} spans retired, mean of {REPS}): disabled {:.3} ms, enabled {:.3} ms \
         ({traffic_ratio:.2}x, bound {TRAFFIC_ENABLED_BOUND}x)",
        traffic_off_s * 1e3,
        traffic_on_s * 1e3,
    );
    assert!(
        traffic_ratio <= TRAFFIC_ENABLED_BOUND,
        "enabled telemetry costs {traffic_ratio:.2}x on traffic (bound {TRAFFIC_ENABLED_BOUND}x)"
    );

    // A quiet link: the manager has stopped issuing, so no channel
    // carries `valid` and no deadline is armed. An enabled TMU then
    // costs its quiet-cycle gates on top of the wire copies a disabled
    // one makes. No gate: the numbers are recorded only.
    let mut quiet_on_ns = Vec::new();
    let mut quiet_off_ns = Vec::new();
    for rep in 0..REPS {
        let mut on = quiet_link(true);
        let mut off = quiet_link(false);
        let (on_s, off_s) = interleave(rep, QUIET_CYCLES, |n| on.run(n), |n| off.run(n));
        assert_eq!(
            (on.tmu.faults_detected(), on.tmu.outstanding()),
            (0, 0),
            "a quiet link stays clean and empty"
        );
        quiet_on_ns.push(on_s * 1e9 / QUIET_CYCLES as f64);
        quiet_off_ns.push(off_s * 1e9 / QUIET_CYCLES as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        (lo, hi)
    };
    let quiet_ratios: Vec<f64> = quiet_on_ns
        .iter()
        .zip(&quiet_off_ns)
        .map(|(on, off)| on / off)
        .collect();
    let (quiet_on_mean, quiet_off_mean) = (mean(&quiet_on_ns), mean(&quiet_off_ns));
    let quiet_ratio = quiet_on_mean / quiet_off_mean;
    let (on_lo, on_hi) = spread(&quiet_on_ns);
    let (off_lo, off_hi) = spread(&quiet_off_ns);
    let (ratio_lo, ratio_hi) = spread(&quiet_ratios);
    println!(
        "quiet link ({QUIET_CYCLES} cycles, mean of {REPS}): monitoring on {quiet_on_mean:.1} ns/cycle \
         [{on_lo:.1}, {on_hi:.1}], off {quiet_off_mean:.1} ns/cycle [{off_lo:.1}, {off_hi:.1}] \
         ({quiet_ratio:.2}x [{ratio_lo:.2}, {ratio_hi:.2}])"
    );

    // Traffic regulation: the disabled regulator must be a free
    // pass-through (wire copies plus one branch per channel), so the
    // regulated run must sit within noise of the bare fabric (the
    // acceptance bound is a 1.05x ratio). The overload_isolation
    // scenario times the full sever-and-ride-through story.
    // A pass-through run is only tens of milliseconds — far below the
    // timescale of the host's throughput swings, which scatter any
    // back-to-back ratio by around +/-8%. The two links are therefore
    // advanced in alternating sub-millisecond chunks, so every slow
    // host regime taxes both sides almost equally, and the ratio is
    // taken between the summed chunk times.
    const REG_BENCH_CYCLES: u64 = 5 * REGULATE_CYCLES;
    const REG_REPS: u32 = 3;
    let mut bare_total = 0.0f64;
    let mut passthrough_total = 0.0f64;
    for rep in 0..REG_REPS {
        let mut bare = passthrough_link(false);
        let mut passthrough = passthrough_link(true);
        let (bare_s, passthrough_s) = interleave(
            rep,
            REG_BENCH_CYCLES,
            |n| bare.run(n),
            |n| passthrough.run(n),
        );
        bare_total += bare_s;
        passthrough_total += passthrough_s;
        let checksum =
            |l: &PassthroughLink| l.stats(0).total_completed() + l.stats(1).total_completed();
        assert_eq!(
            checksum(&bare),
            checksum(&passthrough),
            "a disabled regulator perturbed the traffic"
        );
    }
    let bare_s = bare_total / f64::from(REG_REPS);
    let passthrough_s = passthrough_total / f64::from(REG_REPS);
    let passthrough_ratio = passthrough_total / bare_total;
    let (overload_s, overload) = time_min(run_overload_isolation);
    assert_eq!(
        overload.trunk_faults, 0,
        "wire-legal greed must not register as a protocol fault"
    );
    println!(
        "\nregulator pass-through ({REG_BENCH_CYCLES} cycles, 2 managers, mean of {REG_REPS}): \
         bare {:.3} ms, disabled-regulator {:.3} ms ({passthrough_ratio:.3}x)",
        bare_s * 1e3,
        passthrough_s * 1e3,
    );
    println!(
        "overload_isolation: {:.3} ms; offender severed at cycle {}, \
         victim completed {} txns, offender {} txns, trunk faults {}",
        overload_s * 1e3,
        overload.isolated_at,
        overload.victim_completed,
        overload.offender_completed,
        overload.trunk_faults
    );

    // The vendored serde derive is a no-op stand-in, so the JSON summary
    // is assembled by hand.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scenario\": {{\"outstanding\": {HOTPATH_OUTSTANDING}, \"budget_cycles\": {HOTPATH_BUDGET}, \"reps\": {REPS}}},\n"
    ));
    json.push_str("  \"total_stall\": [\n");
    for (i, m) in stalls.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"variant\": \"{:?}\", \"per_cycle_s\": {}, \"wheel_s\": {}, \"wheel_speedup\": {}, \"fastforward_s\": {}, \"fastforward_speedup\": {}, \"first_fault_cycle\": {}, \"steps_stepped\": {}, \"steps_fastforward\": {}}}{}\n",
            m.variant,
            json_f(m.per_cycle_s),
            json_f(m.wheel_s),
            json_f(m.per_cycle_s / m.wheel_s),
            json_f(m.fastforward_s),
            json_f(m.per_cycle_s / m.fastforward_s),
            m.run.first_fault_cycle,
            m.run.steps_executed,
            m.fast.steps_executed,
            if i + 1 < stalls.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"telemetry\": {{\"variant\": \"{tel_variant:?}\", \"wheel_baseline_s\": {}, \"disabled_s\": {}, \"enabled_s\": {}, \"disabled_overhead_ratio\": {}, \"enabled_overhead_ratio\": {}}},\n",
        json_f(wheel_baseline_s),
        json_f(tel_off_s),
        json_f(tel_on_s),
        json_f(disabled_ratio),
        json_f(enabled_ratio)
    ));
    json.push_str(&format!(
        "  \"telemetry_traffic\": {{\"cycles\": {TELEMETRY_TRAFFIC_CYCLES}, \"reps\": {REPS}, \"txns_completed\": {traffic_txns}, \"spans_retired\": {spans_retired}, \"disabled_s\": {}, \"enabled_s\": {}, \"enabled_overhead_ratio\": {}, \"enabled_overhead_bound\": {TRAFFIC_ENABLED_BOUND}}},\n",
        json_f(traffic_off_s),
        json_f(traffic_on_s),
        json_f(traffic_ratio)
    ));
    json.push_str(&format!(
        "  \"quiet_link\": {{\"cycles\": {QUIET_CYCLES}, \"reps\": {REPS}, \"monitoring_on_ns_per_cycle\": {}, \"monitoring_on_min\": {}, \"monitoring_on_max\": {}, \"monitoring_off_ns_per_cycle\": {}, \"monitoring_off_min\": {}, \"monitoring_off_max\": {}, \"on_off_ratio\": {}, \"on_off_ratio_min\": {}, \"on_off_ratio_max\": {}}},\n",
        json_f(quiet_on_mean),
        json_f(on_lo),
        json_f(on_hi),
        json_f(quiet_off_mean),
        json_f(off_lo),
        json_f(off_hi),
        json_f(quiet_ratio),
        json_f(ratio_lo),
        json_f(ratio_hi)
    ));
    json.push_str(&format!(
        "  \"regulator\": {{\"passthrough_cycles\": {REG_BENCH_CYCLES}, \"passthrough_reps\": {REG_REPS}, \"overload_cycles\": {REGULATE_CYCLES}, \"bare_s\": {}, \"passthrough_s\": {}, \"passthrough_overhead_ratio\": {}, \"overload_isolation_s\": {}, \"isolated_at_cycle\": {}, \"victim_completed\": {}, \"offender_completed\": {}, \"trunk_faults\": {}}}\n",
        json_f(bare_s),
        json_f(passthrough_s),
        json_f(passthrough_ratio),
        json_f(overload_s),
        overload.isolated_at,
        overload.victim_completed,
        overload.offender_completed,
        overload.trunk_faults
    ));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}");
}
