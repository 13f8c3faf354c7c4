//! `tcp_wide`: the threaded runtime over TCP loopback, 3 servers and 6
//! workers at full quorums, with a wide MLP (d ≈ 325k) so aggregation and
//! the wire carry the cost.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use data::{synthetic_cifar, Dataset, SyntheticConfig};
use guanyu::config::ClusterConfig;
use guanyu::node::{MachineConfig, QuorumMode};
use guanyu_runtime::{
    run_cluster_with, ClusterReport, Incoming, PoolStats, RecvError, RunHooks, RuntimeConfig,
    Transport, TransportKind, WireMsg,
};
use nn::{Dense, Flatten, Relu, Sequential};
use tensor::TensorRng;

use crate::probes;
use crate::quality;
use crate::report::Report;
use crate::spans::{process_cpu_secs, Span, SpanBuf};
use crate::speed;
use crate::stats::{failed_rounds, median, per_round, percentile, quartiles, ratio, residual};

/// Protocol rounds of one `run_cluster_with` call.
const STEPS: u64 = 40;
/// Hidden width of the MLP: d = 192·1600 + 1600 + 1600·10 + 10 = 324 810.
const HIDDEN: usize = 1600;
/// Per-round wall samples the p90 needs (ten beyond it).
const ROUND_SAMPLES: usize = 100;
/// One-round calls that only sample `setup_s`.
const SETUP_CALLS: usize = 15;
/// Tag, step and length header of one wire frame, in bytes.
const FRAME_HEADER: usize = 13;

fn wide_mlp(rng: &mut TensorRng) -> Sequential {
    Sequential::new()
        .with(Flatten::new())
        .with(Dense::new(3 * 8 * 8, HIDDEN, rng))
        .with(Relu::new())
        .with(Dense::new(HIDDEN, 10, rng))
}

fn config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        cluster: ClusterConfig::with_quorums(3, 0, 6, 0, 3, 6).expect("valid 3+6 shape"),
        max_steps: STEPS,
        batch_size: 16,
        seed,
        wall_timeout: Duration::from_secs(120),
        transport: TransportKind::TcpLoopback,
        mode: QuorumMode::Arrival,
        ..RuntimeConfig::default_for_tests()
    }
}

fn dataset(seed: u64) -> (Dataset, Dataset) {
    synthetic_cifar(&SyntheticConfig {
        train: 128,
        test: 128,
        side: 8,
        seed,
        ..Default::default()
    })
    .expect("synthetic dataset")
}

/// One call of the entry point, with the progress sampler watching it.
struct Call {
    report: ClusterReport,
    /// Wall seconds of the whole `run_cluster_with` call.
    outer_secs: f64,
    /// Wall milliseconds of each round after the first.
    round_ms: Vec<f64>,
}

/// Runs the cluster once while a second thread samples the public
/// progress counter (rounds completed by server 0).
fn call(cfg: &RuntimeConfig, train: &Dataset, hooks: RunHooks) -> Result<Call, String> {
    let counters = Arc::clone(&hooks.counters);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut seen = 0;
            let mut ticks: Vec<(Instant, u64)> = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let rounds = counters.rounds.load(Ordering::Relaxed);
                if rounds != seen {
                    ticks.push((Instant::now(), rounds));
                    seen = rounds;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            round_times(&ticks)
        });
        let t = Instant::now();
        let result = run_cluster_with(cfg, wide_mlp, train.clone(), hooks);
        let outer_secs = t.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let round_ms = sampler.join().expect("sampler thread");
        result
            .map(|report| Call {
                report,
                outer_secs,
                round_ms,
            })
            .map_err(|e| e.to_string())
    })
}

/// Per-round milliseconds from `(when, rounds so far)` ticks: a tick that
/// advanced k rounds contributes k equal samples.
fn round_times(ticks: &[(Instant, u64)]) -> Vec<f64> {
    let mut out = Vec::new();
    for pair in ticks.windows(2) {
        let ((t0, r0), (t1, r1)) = (pair[0], pair[1]);
        let k = r1.saturating_sub(r0).max(1);
        let ms = (t1 - t0).as_secs_f64() * 1e3 / k as f64;
        out.extend(std::iter::repeat_n(ms, k as usize));
    }
    out
}

/// Gates one call: every honest server finished every round, with finite
/// parameters that beat the initial model. Returns the failed rounds and
/// the model quality.
fn gate_call(c: &Call, seed: u64, test: &Dataset, r: &mut Report) -> (u64, quality::Quality) {
    let failed = failed_rounds(&c.report.final_steps, STEPS);
    r.attempted += c.report.final_steps.len() as u64 * STEPS;
    r.failed += failed;
    r.gate(failed == 0, || {
        format!(
            "honest servers reached {:?} of {STEPS}",
            c.report.final_steps
        )
    });
    let q = quality::measure(wide_mlp, seed, test, &c.report.final_params);
    r.gate(q.finite, || "non-finite final parameters".into());
    r.gate(q.final_loss < q.initial_loss, || {
        format!(
            "final loss {:.4} not below initial {:.4}",
            q.final_loss, q.initial_loss
        )
    });
    (failed, q)
}

/// The untraced run: calls repeated at one seed for `seconds`, and until
/// the p90 has its ten samples beyond it.
pub fn run(seed: u64, seconds: f64, r: &mut Report) {
    let cfg = config(seed);
    let (train, test) = dataset(seed);
    let start = Instant::now();
    let (mut walls, mut setups, mut rounds, mut prints) = (vec![], vec![], vec![], vec![]);
    let (mut rates, mut factors) = (vec![], vec![]);
    let mut dropped = Vec::new();
    let mut failed = 0;
    let mut last = None;
    let mut before = speed::factor();
    while walls.len() < 2 || rounds.len() < ROUND_SAMPLES || start.elapsed().as_secs_f64() < seconds
    {
        let c = call(&cfg, &train, RunHooks::default());
        // The host's speed around the call: the reference before and after.
        let after = speed::factor();
        let slow = (before + after) / 2.0;
        before = after;
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                let rounds = cfg.cluster.servers as u64 * STEPS;
                r.attempted += rounds;
                r.failed += rounds;
                r.gate(false, || format!("run_cluster_with: {e}"));
                return;
            }
        };
        walls.push(c.report.wall_secs);
        rates.push(STEPS as f64 / c.report.wall_secs * slow);
        factors.push(slow);
        setups.push((c.outer_secs - c.report.wall_secs) / slow);
        prints.push(c.report.trace.fingerprint());
        dropped.push(c.report.dropped_sends as f64);
        rounds.extend_from_slice(&c.round_ms);
        let (f, q) = gate_call(&c, seed, &test, r);
        failed += f;
        last = Some(q);
    }
    quality::note(r, &last.expect("at least one call"));
    r.gate(prints.iter().all(|&p| p == prints[0]), || {
        format!("fingerprints differ at one seed: {prints:x?}")
    });
    // Set-up varies more than rounds do (thread start, socket handshakes):
    // one-round calls add samples to its median.
    let short = RuntimeConfig {
        max_steps: 1,
        ..cfg.clone()
    };
    for _ in 0..SETUP_CALLS {
        match call(&short, &train, RunHooks::default()) {
            Ok(c) => setups.push((c.outer_secs - c.report.wall_secs) / before),
            Err(e) => r.gate(false, || format!("one-round run_cluster_with: {e}")),
        }
    }
    r.note(
        "failed_frac",
        ratio(failed as f64, r.attempted as f64),
        "ratio",
    );
    r.note("calls", walls.len() as f64, "count");
    r.note_fingerprint(prints[0]);
    r.note("round_samples", rounds.len() as f64, "count");
    r.note("round_ms_p50", median(&rounds), "ms");
    let p90 = percentile(&rounds, 90.0).expect("the loop gathers enough rounds for a p90");
    r.note("round_ms_p90", p90, "ms");
    // Late sends to peers that already shut down: reported, never gated.
    r.note("dropped_sends_median", median(&dropped), "count");
    let raw: Vec<f64> = walls.iter().map(|w| STEPS as f64 / w).collect();
    speed::note(r, median(&raw), &factors);
    let (q1, q3) = quartiles(&rates);
    r.note("rounds_per_s_q1", q1, "1/s");
    r.note("rounds_per_s_q3", q3, "1/s");
    r.set("rounds_per_s", median(&rates));
    r.set("setup_s", median(&setups));
}

/// Per-endpoint counters the timing decorator keeps.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    send_ms: f64,
    recv_ms: f64,
    encodes: u64,
    frames_sent: u64,
    frames_received: u64,
    timeouts: u64,
    bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.send_ms += o.send_ms;
        self.recv_ms += o.recv_ms;
        self.encodes += o.encodes;
        self.frames_sent += o.frames_sent;
        self.frames_received += o.frames_received;
        self.timeouts += o.timeouts;
        self.bytes += o.bytes;
    }
}

type Sink = Arc<Mutex<Vec<(Vec<Span>, Counts)>>>;

/// Times every call into the wrapped endpoint. Spans and counters stay in
/// the endpoint (one per node thread) and reach the shared sink once, at
/// shutdown: no lock on the frame path.
struct Timed {
    inner: Box<dyn Transport>,
    spans: SpanBuf,
    parent: u64,
    counts: Counts,
    sink: Sink,
}

impl Timed {
    fn frames(&mut self, frames: usize, len: usize, open: crate::spans::Open) {
        self.counts.send_ms += self.spans.close(open);
        self.counts.encodes += 1;
        self.counts.frames_sent += frames as u64;
        self.counts.bytes += (frames * (FRAME_HEADER + 4 * len)) as u64;
    }

    fn flush(&mut self) {
        let spans = self.spans.take();
        if let Ok(mut sink) = self.sink.lock() {
            sink.push((spans, std::mem::take(&mut self.counts)));
        }
    }
}

impl Transport for Timed {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        let open = self.spans.open("transport.send", self.parent);
        self.inner.send(to, msg);
        self.frames(1, msg.vector().len(), open);
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        let open = self.spans.open("transport.broadcast", self.parent);
        self.inner.broadcast(targets, msg);
        self.frames(targets.len(), msg.vector().len(), open);
    }

    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: Range<usize>) {
        let open = self.spans.open("transport.broadcast_range", self.parent);
        let len = range.len();
        self.inner.broadcast_range(targets, msg, range);
        self.frames(targets.len(), len, open);
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        let open = self.spans.open("transport.recv_timeout", self.parent);
        let got = self.inner.recv_timeout(timeout);
        self.counts.recv_ms += self.spans.close(open);
        match &got {
            Ok(_) => self.counts.frames_received += 1,
            Err(RecvError::Timeout) => self.counts.timeouts += 1,
            Err(RecvError::Closed) => {}
        }
        got
    }

    fn dropped_sends(&self) -> u64 {
        self.inner.dropped_sends()
    }

    fn link_failures(&self) -> u64 {
        self.inner.link_failures()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
        self.flush();
    }
}

fn machine_config(cfg: &RuntimeConfig, steps: u64) -> MachineConfig {
    MachineConfig {
        max_steps: steps,
        seed: cfg.seed,
        ..MachineConfig::honest(cfg.cluster, steps, cfg.lr, cfg.server_gar)
    }
}

/// The traced run: one untraced call for reference, one call with every
/// endpoint wrapped in the timing decorator, then the layer probes.
pub fn traced(seed: u64, spans: &mut SpanBuf, r: &mut Report) {
    let cfg = config(seed);
    let (train, test) = dataset(seed);
    let reference = match call(&cfg, &train, RunHooks::default()) {
        Ok(c) => c,
        Err(e) => {
            r.attempted = cfg.cluster.servers as u64 * STEPS;
            r.failed = r.attempted;
            r.gate(false, || format!("run_cluster_with: {e}"));
            return;
        }
    };
    let (_, q) = gate_call(&reference, seed, &test, r);
    quality::note(r, &q);

    let sink: Sink = Arc::default();
    let root = spans.open("runtime.run_cluster_with", 0);
    let parent = root.id;
    let wrap_sink = Arc::clone(&sink);
    let hooks = RunHooks {
        wrap: Some(Arc::new(move |id: usize, inner: Box<dyn Transport>| {
            Box::new(Timed {
                inner,
                spans: SpanBuf::new(1 + id as u64),
                parent,
                counts: Counts::default(),
                sink: Arc::clone(&wrap_sink),
            }) as Box<dyn Transport>
        })),
        ..RunHooks::default()
    };
    let cpu0 = process_cpu_secs();
    let traced = call(&cfg, &train, hooks);
    let cpu_ms = (process_cpu_secs() - cpu0) * 1e3;
    spans.close(root);
    let traced = match traced {
        Ok(c) => c,
        Err(e) => {
            r.gate(false, || format!("traced run_cluster_with: {e}"));
            return;
        }
    };
    gate_call(&traced, seed, &test, r);
    r.gate(
        traced.report.trace.fingerprint() == reference.report.trace.fingerprint(),
        || "traced and untraced fingerprints differ".into(),
    );
    let mut counts = Counts::default();
    for (lane, c) in std::mem::take(&mut *sink.lock().expect("sink lock")) {
        spans.absorb(lane);
        counts.add(&c);
    }

    let mut model = wide_mlp(&mut TensorRng::new(seed).fork(0xA11));
    let cost = probes::layers(
        r,
        &mut model,
        &train,
        cfg.batch_size,
        machine_config(&cfg, 5),
    );
    let wall_ms = traced.report.wall_secs * 1e3;
    let per = |x: f64| per_round(x, STEPS);
    let encode_ms = counts.encodes as f64 * cost.encode_us / 1e3;
    let decode_ms = counts.frames_received as f64 * cost.decode_us / 1e3;
    let cpu_per = per(cpu_ms);
    let pool = traced.report.pool;
    r.set("wire.frames_per_round", per(counts.frames_sent as f64));
    r.set("wire.ms_per_round", per(encode_ms + decode_ms));
    r.set("transport.send_ms_per_round", per(counts.send_ms));
    r.set("transport.recv_wait_ms_per_round", per(counts.recv_ms));
    r.set(
        "transport.recv_timeouts_per_round",
        per(counts.timeouts as f64),
    );
    r.set("transport.bytes_per_round", per(counts.bytes as f64));
    r.set(
        "transport.dropped_sends",
        traced.report.dropped_sends as f64,
    );
    r.set(
        "transport.link_failures",
        traced.report.link_failures as f64,
    );
    r.set(
        "transport.pool_reuse_ratio",
        ratio(pool.recycled as f64, (pool.fresh + pool.recycled) as f64),
    );
    r.set(
        "runtime.setup_ms",
        (traced.outer_secs - traced.report.wall_secs) * 1e3,
    );
    r.set(
        "runtime.cpu_util",
        ratio(cpu_ms, traced.outer_secs * 1e3 * crate::nproc()),
    );
    r.set("cpu_ms_per_round", cpu_per);
    // Sends encode inside the transport: the encode share is the wire's.
    r.set(
        "residual_ms_per_round",
        residual(
            cpu_per,
            &[
                cost.nn_ms,
                cost.aggregation_ms,
                cost.node_self_ms,
                per(encode_ms + decode_ms),
                per(counts.send_ms - encode_ms),
            ],
        ),
    );
    let untraced_ms = reference.report.wall_secs * 1e3;
    r.set("trace_overhead_frac", (wall_ms - untraced_ms) / untraced_ms);
    r.note("untraced_wall_ms", untraced_ms, "ms");
    r.note("traced_wall_ms", wall_ms, "ms");
    // The threaded runtime has no simulator, and one engine only.
    r.zero(&[
        "simnet.calibrate_ms_per_round",
        "simnet.run_ms_per_round",
        "simnet.self_ms_per_round",
        "simnet.events_per_round",
        "simnet.events_per_s",
        "simnet.messages_per_round",
        "simnet.delivery_ratio",
        "simnet.queue_drops",
        "simnet.retransmits",
        "simnet.peak_queue_bytes",
        "lockstep.ms_per_sample",
        "event.ms_per_sample",
        "threaded.ms_per_sample",
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_times_split_multi_round_ticks() {
        let t0 = Instant::now();
        let ms = |x: u64| t0 + Duration::from_millis(x);
        let ticks = [(ms(0), 1), (ms(10), 2), (ms(30), 4)];
        assert_eq!(round_times(&ticks), vec![10.0, 10.0, 10.0]);
        assert!(round_times(&ticks[..1]).is_empty());
    }

    #[test]
    fn wide_mlp_has_the_documented_dimension() {
        assert_eq!(wide_mlp(&mut TensorRng::new(0)).param_count(), 324_810);
    }
}
