//! `chaos_fuzz`: the differential chaos oracle over sampled test-scale
//! scenarios — every engine twice per sample, then the cross-engine check.

use std::time::Instant;

use data::synthetic_cifar;
use guanyu::node::{MachineConfig, QuorumMode};
use guanyu::trace::DigestHasher;
use nn::{models, LrSchedule};
use scenario::check::check_invariants;
use scenario::{
    calibrate_round_secs, fuzz, run_event_with, run_lockstep, run_threaded, ChaosGen, Scenario,
    ScenarioRun,
};
use tensor::TensorRng;

use crate::probes;
use crate::report::Report;
use crate::spans::{process_cpu_secs, SpanBuf};
use crate::speed;
use crate::stats::{median, per_round, ratio, residual};

/// Fuzz samples per second of `--seconds` (about 0.25 s per sample on a
/// 2-core x86-64 host): the sample count is fixed by the arguments, never
/// by how fast the machine runs, so two builds oracle the same scenarios.
const SAMPLES_PER_SECOND: f64 = 4.0;
/// `fuzz` calls per run; the host's speed is measured between them.
const BATCHES: u64 = 8;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Samples per `fuzz` call.
fn batch_size(seconds: f64) -> usize {
    ((seconds * SAMPLES_PER_SECOND / BATCHES as f64).round() as usize).max(1)
}

/// The seed of `fuzz` call `k` (call 0 uses the run's seed itself).
fn batch_seed(seed: u64, k: u64) -> u64 {
    seed ^ (k << 32)
}

/// Every scenario the run's `fuzz` calls sample, in call order.
fn scenarios(seed: u64, per: usize) -> Vec<Scenario> {
    (0..BATCHES)
        .flat_map(|k| {
            let mut gen = ChaosGen::new(batch_seed(seed, k));
            (0..per).map(move |_| gen.sample())
        })
        .collect()
}

/// Digest of the sampled scenarios: what the seed fed the oracle.
fn fingerprint(scenarios: &[Scenario]) -> u64 {
    let mut h = DigestHasher::new();
    for byte in format!("{scenarios:?}").bytes() {
        h.write_u64(u64::from(byte));
    }
    h.finish()
}

/// Scenario sampling plus dataset synthesis for every sample, in seconds.
fn setup_secs(seed: u64, per: usize) -> f64 {
    let t = Instant::now();
    for scn in scenarios(seed, per) {
        std::hint::black_box(synthetic_cifar(&scn.data).expect("synthetic dataset"));
    }
    t.elapsed().as_secs_f64()
}

/// Runs the `fuzz` calls, gating each report; returns each call's wall
/// seconds and the host's slowdown around it.
fn fuzz_calls(seed: u64, per: usize, r: &mut Report) -> (Vec<f64>, Vec<f64>) {
    let (mut walls, mut factors) = (Vec::new(), Vec::new());
    let mut before = speed::factor();
    for k in 0..BATCHES {
        let t = Instant::now();
        let report = fuzz(batch_seed(seed, k), per);
        walls.push(t.elapsed().as_secs_f64());
        let after = speed::factor();
        factors.push((before + after) / 2.0);
        before = after;
        r.attempted += per as u64;
        r.failed += report.violations as u64;
        r.gate(report.outcomes.len() == per, || "fuzz lost samples".into());
        for o in &report.outcomes {
            if let Some(v) = &o.violation {
                r.gate(false, || {
                    format!(
                        "{}: {:?} on {}: {}",
                        o.scenario.name, v.kind, v.engine, v.detail
                    )
                });
            }
        }
    }
    (walls, factors)
}

/// The untraced run: `BATCHES` `scenario::fuzz` calls over a sample count
/// fixed by `seconds`.
pub fn run(seed: u64, seconds: f64, r: &mut Report) {
    let per = batch_size(seconds);
    let slow = speed::factor();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_secs(seed, per) / slow)
        .collect();
    let sampled = scenarios(seed, per);
    let rounds: u64 = sampled.iter().map(|s| s.steps).sum();
    let (walls, factors) = fuzz_calls(seed, per, r);
    let wall: f64 = walls.iter().sum();
    // Each call's wall time at reference speed.
    let scaled: f64 = walls.iter().zip(&factors).map(|(w, f)| w / f).sum();
    let n = sampled.len() as f64;
    r.note("samples", n, "count");
    r.note_fingerprint(fingerprint(&sampled));
    r.note("samples_per_s", n / scaled, "1/s");
    r.note("failed_frac", ratio(r.failed as f64, n), "ratio");
    speed::note(r, rounds as f64 / wall, &factors);
    r.set("rounds_per_s", rounds as f64 / scaled);
    r.set("setup_s", median(&setups));
}

/// Wall milliseconds per engine over the traced oracle passes.
#[derive(Debug, Default)]
struct EngineMs {
    lockstep: f64,
    calibrate: f64,
    event: f64,
    threaded: f64,
    /// Threaded calls' wall time minus the clusters' own run time.
    threaded_setup: f64,
}

/// Runs `f` twice under spans named `name`; checks determinism and the
/// invariants on the pair. Returns both runs and the pair's wall ms.
fn pair(
    scn: &Scenario,
    name: &'static str,
    parent: u64,
    spans: &mut SpanBuf,
    f: impl Fn() -> guanyu::Result<ScenarioRun>,
) -> (Result<[ScenarioRun; 2], String>, f64) {
    let (a, t1) = spans.time(name, parent, &f);
    let (b, t2) = spans.time(name, parent, &f);
    let checked = match (a, b) {
        (Ok(a), Ok(b)) if a.trace != b.trace => {
            Err(format!("{}: same seed, different traces", a.engine))
        }
        (Ok(a), Ok(b)) => check_invariants(scn, &a).map(|_| [a, b]),
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    };
    (checked, t1 + t2)
}

/// The oracle of `scenario::chaos::verdict`, rebuilt from the public
/// engine calls so each can be timed: determinism and invariants per
/// engine, then bit-identical traces across engines.
fn oracle(
    scn: &Scenario,
    parent: u64,
    spans: &mut SpanBuf,
    ms: &mut EngineMs,
) -> Result<(), String> {
    let (lock, t) = pair(scn, "lockstep.run", parent, spans, || run_lockstep(scn));
    ms.lockstep += t;
    let [lock, _] = lock?;
    let (round_secs, t) = spans.time("simnet.calibrate", parent, || calibrate_round_secs(scn));
    ms.calibrate += t;
    let round_secs = round_secs.map_err(|e| e.to_string())?;
    let (event, t) = pair(scn, "event.run", parent, spans, || {
        run_event_with(scn, round_secs)
    });
    ms.event += t;
    let [event, _] = event?;
    let (threaded, t) = pair(scn, "threaded.run", parent, spans, || run_threaded(scn));
    ms.threaded += t;
    let [threaded, threaded2] = threaded?;
    // A threaded run's `sim_secs` is its cluster's wall time.
    ms.threaded_setup += t - (threaded.sim_secs + threaded2.sim_secs) * 1e3;
    for other in [&event, &threaded] {
        if other.trace != lock.trace {
            return Err(format!("lockstep ≠ {}", other.engine));
        }
    }
    Ok(())
}

/// The machine configuration of the scenario shape every sample starts
/// from (`Scenario::baseline`), in the engines' planned mode.
fn baseline_machines(scn: &Scenario) -> MachineConfig {
    MachineConfig {
        seed: scn.seed,
        recovery: true,
        mode: QuorumMode::Planned,
        ..MachineConfig::honest(
            scn.cluster,
            scn.steps,
            LrSchedule::constant(0.05),
            aggregation::GarKind::MultiKrum,
        )
    }
}

/// The traced run: one untraced `fuzz` call for reference, the same
/// samples through the rebuilt oracle under spans, then the layer probes.
pub fn traced(seed: u64, seconds: f64, spans: &mut SpanBuf, r: &mut Report) {
    let per = batch_size(seconds);
    let (walls, _) = fuzz_calls(seed, per, r);
    let untraced_ms = walls.iter().sum::<f64>() * 1e3;
    let samples = scenarios(seed, per);
    let n = samples.len();
    let rounds: u64 = samples.iter().map(|s| s.steps).sum();
    let mut ms = EngineMs::default();
    let cpu0 = process_cpu_secs();
    let root = spans.open("scenario.fuzz", 0);
    for scn in &samples {
        let sample = spans.open("chaos.sample", root.id);
        let verdict = oracle(scn, sample.id, spans, &mut ms);
        spans.close(sample);
        r.gate(verdict.is_ok(), || {
            format!("{}: {}", scn.name, verdict.unwrap_err())
        });
    }
    let traced_ms = spans.close(root);
    let cpu_ms = (process_cpu_secs() - cpu0) * 1e3;

    // Layer probes at the shape the sampler starts from.
    let base = Scenario::baseline("bench", seed);
    let mut model = models::small_cnn(
        base.data.side,
        base.model_filters,
        base.data.classes,
        &mut TensorRng::new(seed).fork(0xA11),
    );
    let (train, _) = synthetic_cifar(&base.data).expect("synthetic dataset");
    probes::layers(
        r,
        &mut model,
        &train,
        base.batch_size,
        baseline_machines(&base),
    );
    let per = |x: f64| per_round(x, rounds);
    let per_sample = |x: f64| x / n as f64;
    let engines = ms.lockstep + ms.calibrate + ms.event + ms.threaded;
    let cpu_per = per(cpu_ms);
    r.set("simnet.calibrate_ms_per_round", per(ms.calibrate));
    r.set("runtime.setup_ms", ms.threaded_setup / (2 * n) as f64);
    r.set(
        "runtime.cpu_util",
        ratio(cpu_ms, traced_ms * crate::nproc()),
    );
    r.set("lockstep.ms_per_sample", per_sample(ms.lockstep));
    r.set("event.ms_per_sample", per_sample(ms.calibrate + ms.event));
    r.set("threaded.ms_per_sample", per_sample(ms.threaded));
    r.set("cpu_ms_per_round", cpu_per);
    r.set("residual_ms_per_round", residual(cpu_per, &[per(engines)]));
    r.set(
        "trace_overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
    );
    r.note("untraced_wall_ms", untraced_ms, "ms");
    r.note("traced_wall_ms", traced_ms, "ms");
    // No frame crosses a socket (the threaded engine runs over channels),
    // and `run_event_with` keeps its simulator, so its counters stay unread.
    r.zero(&[
        "wire.frames_per_round",
        "wire.ms_per_round",
        "transport.send_ms_per_round",
        "transport.recv_wait_ms_per_round",
        "transport.recv_timeouts_per_round",
        "transport.bytes_per_round",
        "transport.dropped_sends",
        "transport.link_failures",
        "transport.pool_reuse_ratio",
        "simnet.run_ms_per_round",
        "simnet.self_ms_per_round",
        "simnet.events_per_round",
        "simnet.events_per_s",
        "simnet.messages_per_round",
        "simnet.delivery_ratio",
        "simnet.queue_drops",
        "simnet.retransmits",
        "simnet.peak_queue_bytes",
    ]);
}
