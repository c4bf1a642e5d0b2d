//! One benchmark run: set-up, reference simulation, timed repetitions,
//! the replica equivalence gate, the drain check and the report.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sim::Histogram;
use tmu::Tmu;

use crate::assembly::{Assembly, Fingerprint};
use crate::calib;
use crate::faultloop::FaultLoop;
use crate::replica::{LinkReplica, RegulatedReplica, Replica, SystemReplica};
use crate::trace::{calibrate_timer_ns, Layer, Tracer};
use crate::workloads::{self, Workload};

/// Set-up samples taken before each timed repetition; `setup_s` is the
/// median of all of them.
pub const SETUP_PER_REP: usize = 4;

/// Constructions in one set-up sample. Each is timed on its own and
/// dropped after its clock stops, before the next is built, so the
/// allocator reuses its memory instead of faulting in fresh pages; the
/// sample is their mean.
pub const SETUP_BATCH: usize = 1024;

/// Cycles a drained replica may take to answer every transaction it
/// issued before the leftovers count as unanswered.
pub const DRAIN_LIMIT: u64 = 200_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's traffic and fault schedule.
    pub seed: u64,
    /// Host seconds the timed repetitions should fill.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// A metric as printed in the result line.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Transactions issued.
    pub attempted: u64,
    /// Failed operations (see `README.md`).
    pub failed: u64,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the result line.
    pub text: String,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `v` (upper median for even lengths); 0 when empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// Nearest-rank percentile `p` (0..100) of sorted samples.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples beyond it, and its value; `None` with fewer than 20 samples.
#[must_use]
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= 20 && n - rank >= 10
        })
        .map(|p| (p, percentile(sorted, p)))
}

/// Peak resident set of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the untimed reference simulation of the real assembly yields.
struct Reference {
    fingerprint: Fingerprint,
    completed: u64,
    latencies: Vec<u64>,
}

/// Appends the samples recorded into `h` since the last poll. A manager
/// retires at most one write and one read per cycle, so polling after
/// every cycle recovers each latency exactly from the histogram's sum.
fn poll(h: &Histogram, seen: &mut (u64, u64), out: &mut Vec<u64>) {
    let (count, sum) = (h.count(), h.sum());
    let new = count - seen.0;
    if let Some(each) = (sum - seen.1).checked_div(new) {
        out.extend(std::iter::repeat_n(each, new as usize));
    }
    *seen = (count, sum);
}

fn completed(a: &impl Assembly) -> u64 {
    a.managers().iter().map(|s| s.total_completed()).sum()
}

fn reference_run<A: Assembly>(a: &mut A, cycles: u64) -> Reference {
    let mut latencies = Vec::new();
    let (mut w, mut r) = ((0, 0), (0, 0));
    for _ in 0..cycles {
        a.step();
        let s = a.protected();
        poll(&s.write_latency, &mut w, &mut latencies);
        poll(&s.read_latency, &mut r, &mut latencies);
    }
    latencies.sort_unstable();
    Reference {
        fingerprint: Fingerprint::of(a),
        completed: completed(a),
        latencies,
    }
}

fn run_cycles(a: &mut impl Assembly, cycles: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..cycles {
        a.step();
    }
    start.elapsed()
}

/// Runs `f` between two runs of the calibration kernel; returns its
/// result and the factor that turns wall seconds measured meanwhile into
/// reference seconds.
fn calibrated<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = calib::kernel_s();
    let out = f();
    let after = calib::kernel_s();
    (out, calib::to_ref_s(1.0, (before + after) / 2.0))
}

/// One timed repetition: wall seconds and reference seconds.
#[derive(Debug, Clone, Copy)]
struct Rep {
    wall_s: f64,
    ref_s: f64,
}

/// Timed repetitions and the set-up samples taken between them, both in
/// reference seconds where noted.
#[derive(Debug, Default)]
struct Timed {
    reps: Vec<Rep>,
    /// Construction times in reference seconds.
    setup_ref_s: Vec<f64>,
    /// Construction times in wall seconds.
    setup_wall_s: Vec<f64>,
}

/// Runs fresh assemblies from `make` for `cycles` each, at least
/// `min_reps` times and until `budget` wall seconds are spent. Before
/// each repetition it takes [`SETUP_PER_REP`] set-up samples of
/// [`SETUP_BATCH`] constructions each; the calibration kernel runs
/// between repetitions, and each repetition is scaled by the mean of the
/// kernel times on either side. Checks every repetition against the
/// reference fingerprint.
fn timed_reps<A: Assembly>(
    make: &impl Fn() -> A,
    cycles: u64,
    budget: f64,
    min_reps: usize,
    expect: Option<&Fingerprint>,
    report: &mut Report,
) -> Timed {
    let mut out = Timed::default();
    let mut kernel_before = calib::kernel_s();
    while out.reps.len() < min_reps || out.reps.iter().map(|r| r.wall_s).sum::<f64>() < budget {
        // Set-up samples: wall seconds per construction, and the same in
        // reference seconds by the allocation kernel run right after.
        let setup: Vec<(f64, f64)> = (0..SETUP_PER_REP)
            .map(|_| {
                let mut took = 0.0;
                for _ in 0..SETUP_BATCH {
                    let start = Instant::now();
                    let a = make();
                    took += start.elapsed().as_secs_f64();
                    drop(std::hint::black_box(a));
                }
                let kernel = calib::alloc_kernel_s();
                let per = took / SETUP_BATCH as f64;
                (per, per * calib::ALLOC_KERNEL_REF_S / kernel)
            })
            .collect();
        let mut a = make();
        let wall = run_cycles(&mut a, cycles).as_secs_f64();
        let kernel_after = calib::kernel_s();
        let factor = calib::to_ref_s(1.0, (kernel_before + kernel_after) / 2.0);
        kernel_before = kernel_after;
        out.reps.push(Rep {
            wall_s: wall,
            ref_s: wall * factor,
        });
        out.setup_wall_s.extend(setup.iter().map(|s| s.0));
        out.setup_ref_s.extend(setup.iter().map(|s| s.1));
        if let Some(fp) = expect {
            let same = Fingerprint::of(&a) == *fp;
            report.check(same, || {
                format!(
                    "repetition {} diverged from the reference run",
                    out.reps.len()
                )
            });
        }
    }
    out
}

fn consistent(tmus: &[&Tmu]) -> bool {
    tmus.iter()
        .all(|t| catch_unwind(AssertUnwindSafe(|| t.assert_consistent())).is_ok())
}

fn all_tmus(a: &impl Assembly) -> Vec<&Tmu> {
    let mut tmus = a.tmus();
    tmus.extend(a.regulators().into_iter().map(|r| r.tracker()));
    tmus
}

/// Drains `p` (no new issues, pending faults run out) and settles the
/// failure accounting and the one-response-per-transaction check.
fn drain_and_account(p: &mut impl Replica, workload: Workload, report: &mut Report) {
    p.stop_issuing();
    let mut waited = 0;
    while p.in_flight() > 0 && waited < DRAIN_LIMIT {
        p.step();
        waited += 1;
    }
    let mut issued_total = 0;
    let mut unanswered = 0;
    let mut errored = 0;
    for (i, s) in p.managers().iter().enumerate() {
        let issued = s.writes_issued + s.reads_issued;
        let done = s.total_completed();
        issued_total += issued;
        errored += s.writes_errored + s.reads_errored;
        unanswered += issued.saturating_sub(done);
        report.check(done <= issued, || {
            format!("manager {i}: {done} responses for {issued} issued transactions")
        });
    }
    report.check(p.in_flight() == 0, || {
        format!(
            "{} transactions still in flight after the drain",
            p.in_flight()
        )
    });
    report.check(consistent(&all_tmus(p)), || {
        "Tmu::assert_consistent failed on the replica".into()
    });
    let flags: u64 = p.tmus().iter().map(|t| t.faults_detected()).sum();
    let failed_ops = match p.fault_stats() {
        Some(f) => {
            report.check(f.recovered == f.detected, || {
                format!("{} faults detected, {} recovered", f.detected, f.recovered)
            });
            f.failures()
        }
        None => flags + errored,
    };
    report.attempted = issued_total;
    report.failed = failed_ops + unanswered;
    let _ = writeln!(
        report.text,
        "  drain: {waited} cycles; issued {issued_total}, unanswered {unanswered}, \
         flags {flags}, errored responses {errored}"
    );
    let _ = writeln!(
        report.text,
        "  failed_frac              {:>14.6} ratio  ({} of {} issued)",
        report.failed as f64 / issued_total.max(1) as f64,
        report.failed,
        issued_total
    );
    if let Some(f) = p.fault_stats() {
        let _ = writeln!(
            report.text,
            "  faults: armed {}, detected once {}, missed {}, flagged twice {}, \
             spurious {}, not activated {}, recovered {}",
            f.armed,
            f.detected,
            f.missed,
            f.flagged_twice,
            f.spurious,
            f.not_activated,
            f.recovered
        );
    }
    if workload == Workload::SocBusy && flags > 0 {
        let _ = writeln!(
            report.text,
            "  note: soc_busy flags come from the known EthSub R-stability defect \
             (see README.md); the TMU flags them correctly"
        );
    }
    for t in p.tmus() {
        for rec in t.error_log().iter().take(3) {
            let _ = writeln!(report.text, "    fault record: {rec}");
        }
    }
}

fn sim_metrics(reference: &Reference, cycles: u64, report: &mut Report) -> (u64, u64) {
    let lat = &reference.latencies;
    let p50 = percentile(lat, 50.0);
    let p99 = percentile(lat, 99.0);
    report.check(!lat.is_empty(), || {
        "the protected manager completed nothing".into()
    });
    let _ = writeln!(
        report.text,
        "  sim_txns_per_kcycle      {:>14.4} txn/kcycle  ({} completions in {cycles} cycles)",
        reference.completed as f64 * 1000.0 / cycles as f64,
        reference.completed
    );
    let _ = writeln!(
        report.text,
        "  sim_latency_p50_cycles   {p50:>14} cycles  (protected manager, n={})",
        lat.len()
    );
    let _ = writeln!(
        report.text,
        "  sim_latency_p99_cycles   {p99:>14} cycles  (n={}, {} beyond)",
        lat.len(),
        lat.len() - ((0.99 * lat.len() as f64).ceil() as usize).min(lat.len())
    );
    if let Some((p, v)) = tail(lat) {
        let _ = writeln!(report.text, "  sim_latency tail          p{p} = {v} cycles");
    }
    (p50, p99)
}

/// Detection-latency p50 and tail (percentile, value) of the campaign.
fn detection(reference: &Reference, report: &mut Report) -> Option<(u64, f64, u64)> {
    let faults = reference.fingerprint.faults()?;
    let mut lat = faults.latencies.clone();
    lat.sort_unstable();
    let p50 = percentile(&lat, 50.0);
    let (p, tail_v) = tail(&lat).unwrap_or((100.0, lat.last().copied().unwrap_or(0)));
    let _ = writeln!(
        report.text,
        "  detect_latency_p50_cycles {p50:>13} cycles  (n={})",
        lat.len()
    );
    let _ = writeln!(
        report.text,
        "  detect_latency_tail_cycles {tail_v:>12} cycles  (p{p}, n={})",
        lat.len()
    );
    Some((p50, p, tail_v))
}

/// The constructors of one workload's assemblies.
struct Spec<M, T, P> {
    make: M,
    make_telemetry_off: Option<T>,
    make_replica: P,
}

/// Runs `opts` and returns its report.
#[must_use]
pub fn run(opts: Options) -> Report {
    let seed = opts.seed;
    match opts.workload {
        Workload::SocBusy => run_spec(
            opts,
            Spec {
                make: || workloads::soc_busy(seed),
                make_telemetry_off: None::<fn() -> soc::System>,
                make_replica: || SystemReplica::new(workloads::soc_busy_config(seed)),
            },
        ),
        Workload::LinkFaults => run_spec(
            opts,
            Spec {
                make: || FaultLoop::new(workloads::link_faults(seed, true), seed),
                make_telemetry_off: Some(|| {
                    FaultLoop::new(workloads::link_faults(seed, false), seed)
                }),
                make_replica: || FaultLoop::new(LinkReplica::new(seed), seed),
            },
        ),
        Workload::RegulatedMixed => run_spec(
            opts,
            Spec {
                make: || workloads::regulated_mixed(seed),
                make_telemetry_off: None::<fn() -> soc::RegulatedLink<soc::memory::MemSub>>,
                make_replica: || RegulatedReplica::new(seed),
            },
        ),
    }
}

fn run_spec<A, M, T, P, R>(opts: Options, spec: Spec<M, T, P>) -> Report
where
    A: Assembly,
    M: Fn() -> A,
    T: Fn() -> A,
    P: Fn() -> R,
    R: Replica,
{
    let cycles = workloads::RUN_CYCLES;
    let mut report = Report::default();
    let _ = writeln!(
        report.text,
        "workload {}  seed {}  {} cycles per run  trace {}",
        opts.workload.name(),
        opts.seed,
        cycles,
        u8::from(opts.trace)
    );

    // Reference run: untimed, polls the protected manager's latencies,
    // and doubles as warm-up.
    let mut real = (spec.make)();
    let reference = reference_run(&mut real, cycles);
    // Peak memory before the calibration kernel's own table can raise it.
    let rss = peak_rss_mib();
    report.check(consistent(&all_tmus(&real)), || {
        "Tmu::assert_consistent failed on the real assembly".into()
    });

    let (p50, p99) = sim_metrics(&reference, cycles, &mut report);
    let detect = detection(&reference, &mut report);
    let fp = Some(&reference.fingerprint);

    if opts.trace {
        run_traced(opts, &spec, &real, &reference, detect, &mut report);
    } else {
        // Set-up (construction, plus telemetry enable where the workload
        // uses it) is sampled between the repetitions, so it sees the
        // same host conditions.
        let timed = timed_reps(&spec.make, cycles, opts.seconds, 3, fp, &mut report);
        let reps = &timed.reps;
        let rate = |count: u64, secs: fn(&Rep) -> f64| {
            median(
                &reps
                    .iter()
                    .map(|r| count as f64 / secs(r))
                    .collect::<Vec<_>>(),
            )
        };
        let cps = rate(cycles, |r| r.ref_s);
        let tps = rate(reference.completed, |r| r.ref_s);
        let setup_s = median(&timed.setup_ref_s);
        let _ = writeln!(
            report.text,
            "  sim_cycles_per_s         {cps:>14.1} cycles/s  (reference seconds; median of {} reps; \
             wall clock {:.1})",
            reps.len(),
            rate(cycles, |r| r.wall_s)
        );
        let per_rep: Vec<String> = reps
            .iter()
            .map(|r| {
                format!(
                    "{:.0}/{:.0}",
                    cycles as f64 / r.ref_s / 1e3,
                    cycles as f64 / r.wall_s / 1e3
                )
            })
            .collect();
        let _ = writeln!(
            report.text,
            "    per-rep kcycles/s, reference/wall: {}",
            per_rep.join(" ")
        );
        let _ = writeln!(
            report.text,
            "  txns_per_s               {tps:>14.1} txn/s  (wall clock {:.1})",
            rate(reference.completed, |r| r.wall_s)
        );
        let _ = writeln!(
            report.text,
            "  setup_s                  {setup_s:>14.9} s  (median of {}; wall clock {:.9})",
            timed.setup_ref_s.len(),
            median(&timed.setup_wall_s)
        );

        // Replica equivalence gate (untraced) and drain.
        let mut replica = (spec.make_replica)();
        for _ in 0..cycles {
            replica.step();
        }
        gate(&replica, &reference, &mut report);
        drain_and_account(&mut replica, opts.workload, &mut report);

        let _ = writeln!(report.text, "  peak_rss_mb              {rss:>14.3} MiB");
        report.metric("sim_cycles_per_s", cps, "cycles/s");
        report.metric("txns_per_s", tps, "txn/s");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", rss, "MiB");
        report.metric(
            "sim_txns_per_kcycle",
            reference.completed as f64 * 1000.0 / cycles as f64,
            "txn/kcycle",
        );
        report.metric("sim_latency_p50_cycles", p50 as f64, "cycles");
        report.metric("sim_latency_p99_cycles", p99 as f64, "cycles");
    }

    report.correct = report.problems.is_empty();
    for p in &report.problems {
        let _ = writeln!(report.text, "  CHECK FAILED: {p}");
    }
    report
}

fn gate(replica: &impl Replica, reference: &Reference, report: &mut Report) {
    let same = Fingerprint::of(replica) == reference.fingerprint;
    report.check(same, || {
        format!(
            "replica fingerprint differs from the real assembly's:\n    real    {:?}\n    replica {:?}",
            reference.fingerprint,
            Fingerprint::of(replica)
        )
    });
    let _ = writeln!(
        report.text,
        "  replica equivalence gate: {}",
        if same {
            "fingerprints equal"
        } else {
            "MISMATCH"
        }
    );
}

fn run_traced<A, M, T, P, R>(
    opts: Options,
    spec: &Spec<M, T, P>,
    real: &A,
    reference: &Reference,
    detect: Option<(u64, f64, u64)>,
    report: &mut Report,
) where
    A: Assembly,
    M: Fn() -> A,
    T: Fn() -> A,
    P: Fn() -> R,
    R: Replica,
{
    let cycles = workloads::RUN_CYCLES;
    let fp = Some(&reference.fingerprint);
    let timer_ns = calibrate_timer_ns();

    // Untraced, telemetry-off (where the workload has telemetry) and
    // traced repetitions alternate, so all three see the same host
    // conditions; the traced ones run the replica.
    let mut untraced = Vec::new();
    let mut telemetry_off = Vec::new();
    let mut traced_ns = Vec::new();
    let mut layer_ns: Vec<Vec<f64>> = vec![Vec::new(); Layer::ALL.len()];
    let mut last = None;
    let mut spent = 0.0;
    let mut rep = 0u64;
    while rep < 2 || spent < opts.seconds {
        let t = timed_reps(&spec.make, cycles, 0.0, 1, fp, report).reps[0];
        untraced.push(t.ref_s);
        spent += t.wall_s;
        if let Some(make_off) = &spec.make_telemetry_off {
            let t = timed_reps(make_off, cycles, 0.0, 1, None, report).reps[0];
            telemetry_off.push(t.ref_s);
            spent += t.wall_s;
        }
        let mut replica = (spec.make_replica)();
        replica.set_tracer(Tracer::sampling(opts.seed ^ rep.wrapping_mul(0x2545_F491)));
        let (took, factor) = calibrated(|| run_cycles(&mut replica, cycles).as_secs_f64());
        spent += took;
        rep += 1;
        traced_ns.push(took * factor * 1e9 / cycles as f64);
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            layer_ns[i].push(replica.tracer().ns_per_cycle(layer, timer_ns) * factor);
        }
        last = Some(replica);
    }
    let untraced_ns = median(&untraced) * 1e9 / cycles as f64;

    // Telemetry cost on real traffic: the same workload with telemetry
    // off, and the cost of exporting what telemetry collected.
    let (telemetry_ratio, export_s) = if telemetry_off.is_empty() {
        (0.0, 0.0)
    } else {
        let exports: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for t in real.tmus() {
                    std::hint::black_box(t.chrome_trace_json());
                    std::hint::black_box(t.metrics_jsonl());
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        (median(&untraced) / median(&telemetry_off), median(&exports))
    };

    let mut replica = last.expect("at least one traced repetition ran");
    gate(&replica, reference, report);

    let w = replica.wires().clone();
    let tmu_count = replica.tmus().len();
    let regs = replica.regulators();
    let grants: u64 = regs.iter().map(|r| r.grants()).sum();
    let denies: u64 = regs.iter().map(|r| r.denies()).sum();
    let managers = replica.managers();
    let txns_issued: u64 = managers
        .iter()
        .map(|s| s.writes_issued + s.reads_issued)
        .sum();
    let w_beats: u64 = managers.iter().map(|s| s.w_beats).sum();
    let r_beats: u64 = managers.iter().map(|s| s.r_beats).sum();
    let tmus = replica.tmus();
    let faults: u64 = tmus.iter().map(|t| t.faults_detected()).sum();
    let resets: u64 = tmus.iter().map(|t| t.resets_requested()).sum();
    let events: u64 = tmus.iter().map(|t| t.telemetry().seq()).sum();
    let dropped: u64 = tmus.iter().map(|t| t.telemetry().events_dropped()).sum();
    let sub = replica.sub_beats();
    let decode_errors = replica.decode_errors();
    let faults_armed = replica.fault_stats().map_or(0, |f| f.armed);

    let mut layer_total = 0.0;
    let _ = writeln!(
        report.text,
        "  per-layer self time (sampled 1 cycle in {} on average, timer {timer_ns:.1} ns \
         removed per call, median of {rep} traced reps):",
        crate::trace::SAMPLE_PERIOD
    );
    for (i, layer) in Layer::ALL.into_iter().enumerate() {
        let v = median(&layer_ns[i]);
        layer_total += v;
        let _ = writeln!(report.text, "    {:<14} {v:>9.1} ns/cycle", layer.name());
        report.metric(&format!("{}.ns_per_cycle", layer.name()), v, "ns/cycle");
    }
    let traced = median(&traced_ns);
    let unattributed = untraced_ns - layer_total;
    let _ = writeln!(
        report.text,
        "    untraced {untraced_ns:.1} ns/cycle, traced {traced:.1} ns/cycle, \
         unattributed {unattributed:.1} ns/cycle"
    );

    // `sub_beats` lists memory W and R beats first, then (on `soc_busy`)
    // Ethernet TX and RX beats.
    let beats =
        |range: std::ops::Range<usize>| -> u64 { sub.get(range).map_or(0, |s| s.iter().sum()) };
    let (memory_beats, ethernet_beats) = match opts.workload {
        Workload::SocBusy => (beats(0..2), beats(2..4)),
        _ => (beats(0..2), 0),
    };
    let cycles_counted = w.cycles.max(1) as f64;
    let counts: Vec<(&str, f64, &'static str)> = vec![
        ("manager.txns_issued", txns_issued as f64, "count"),
        ("manager.w_beats", w_beats as f64, "count"),
        ("manager.r_beats", r_beats as f64, "count"),
        (
            "mux.trunk_stall_cycles",
            w.trunk_stall_cycles as f64,
            "cycles",
        ),
        ("demux.decode_errors", decode_errors as f64, "count"),
        ("tmu.faults_detected", faults as f64, "count"),
        ("tmu.resets_requested", resets as f64, "count"),
        (
            "tmu.outstanding_mean",
            w.tmu_outstanding_sum as f64 / cycles_counted,
            "txn",
        ),
        (
            "tmu.active_cycle_frac",
            w.tmu_active_port_cycles as f64 / w.tmu_port_cycles.max(1) as f64,
            "ratio",
        ),
        (
            "tmu.detect_latency_p50_cycles",
            detect.map_or(0.0, |d| d.0 as f64),
            "cycles",
        ),
        (
            "tmu.detect_latency_tail_cycles",
            detect.map_or(0.0, |d| d.2 as f64),
            "cycles",
        ),
        ("memory.beats", memory_beats as f64, "count"),
        ("ethernet.beats", ethernet_beats as f64, "count"),
        ("sub.stall_cycles", w.sub_stall_cycles as f64, "cycles"),
        ("injector.faults_armed", faults_armed as f64, "count"),
        ("regulate.grants", grants as f64, "count"),
        ("regulate.denies", denies as f64, "count"),
        ("telemetry.events", events as f64, "count"),
        ("telemetry.events_dropped", dropped as f64, "count"),
        ("telemetry.export_s", export_s, "s"),
        ("telemetry.overhead_ratio", telemetry_ratio, "ratio"),
        ("trace.timer_ns", timer_ns, "ns"),
        ("trace.overhead_ratio", traced / untraced_ns, "ratio"),
        ("trace.unattributed_ns_per_cycle", unattributed, "ns/cycle"),
    ];
    let _ = writeln!(
        report.text,
        "  per-layer counts ({tmu_count} TMU(s), {} cycles counted):",
        w.cycles
    );
    for (name, value, unit) in counts {
        let _ = writeln!(report.text, "    {name:<32} {value:>16.6} {unit}");
        report.metric(name, value, unit);
    }
    drain_and_account(&mut replica, opts.workload, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), Some((99.0, 990)));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), Some((90.0, 90)));
        assert_eq!(tail(&v[..19]), None);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
