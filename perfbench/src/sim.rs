//! `paper_sim` and `incast_sim`: the event-driven engine at the paper's
//! 6 + 18 deployment, under attack on the sampled network or clean over
//! an oversubscribed switched fabric.

use std::time::Instant;

use aggregation::GarKind;
use byzantine::AttackKind;
use data::synthetic_cifar;
use guanyu::cost::CostModel;
use guanyu::node::{MachineConfig, QuorumMode};
use guanyu::protocol::{build_simulation_net, ProtocolConfig};
use nn::{models, LrSchedule, Sequential};
use scenario::{calibrate_round_secs, run_event, NetworkModel, Scenario, ScenarioRun};
use tensor::TensorRng;

use crate::probes;
use crate::quality;
use crate::report::Report;
use crate::spans::{process_cpu_secs, SpanBuf};
use crate::speed;
use crate::stats::{failed_rounds, median, per_round, quartiles, ratio, residual};

/// Protocol rounds of one `run_event` call.
const STEPS: u64 = 40;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// The two deployments this module runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// `paper_sim`: sampled delays, 5 Random workers + 1 equivocating
    /// server for the whole run.
    PaperUnderAttack,
    /// `incast_sim`: no adversary, 8:1 oversubscribed switched fabric with
    /// 64 KiB drop-tail queues.
    Incast,
}

/// The workload's scenario at `seed`.
pub fn scenario(net: Net, seed: u64) -> Scenario {
    let mut scn = Scenario::baseline("bench", seed).at_paper_scale(STEPS);
    match net {
        Net::PaperUnderAttack => {
            scn.actual_byz_workers = 5;
            scn.worker_attack = Some(AttackKind::Random { scale: 100.0 });
            scn.actual_byz_servers = 1;
            scn.server_attack = Some(AttackKind::Equivocate { scale: 20.0 });
        }
        Net::Incast => {
            scn = scn.with_network(NetworkModel::Switched {
                oversubscription: 8.0,
                queue_bytes: 64 * 1024,
                link_bw: 1.25e9,
            });
        }
    }
    scn
}

fn model_builder(scn: &Scenario) -> impl Fn(&mut TensorRng) -> Sequential {
    let (side, filters, classes) = (scn.data.side, scn.model_filters, scn.data.classes);
    move |rng| models::small_cnn(side, filters, classes, rng)
}

/// The protocol configuration `scenario::run_event` derives from a
/// fault-free scenario.
fn protocol_config(scn: &Scenario) -> ProtocolConfig {
    ProtocolConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: scn.batch_size,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        recovery: true,
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    }
}

/// Dataset synthesis plus `build_simulation_net`: the work before the
/// first simulated round, in seconds.
fn setup_secs(scn: &Scenario) -> f64 {
    let cfg = protocol_config(scn);
    let t = Instant::now();
    let (train, _) = synthetic_cifar(&scn.data).expect("synthetic dataset");
    let built = build_simulation_net(&cfg, model_builder(scn), train, scn.seed, &scn.network)
        .expect("simulation builds");
    let secs = t.elapsed().as_secs_f64();
    drop(built);
    secs
}

/// Gates every call shares: all honest servers finish, parameters stay
/// finite, and the model learned despite the attack. `calls` calls at one
/// seed produced `run` (equal fingerprints make their outputs equal).
fn gate_run(scn: &Scenario, run: &ScenarioRun, calls: u64, r: &mut Report) {
    let honest = scn.honest_servers();
    // A server missing from the finishers completed no verifiable round.
    let reached: Vec<u64> = (0..honest)
        .map(|s| {
            if run.finishers.contains(&s) {
                scn.steps
            } else {
                0
            }
        })
        .collect();
    let failed = failed_rounds(&reached, scn.steps);
    r.attempted += calls * honest as u64 * scn.steps;
    r.failed += calls * failed;
    r.gate(failed == 0, || {
        format!("finishers {:?} of {honest} honest servers", run.finishers)
    });
    let (_, test) = synthetic_cifar(&scn.data).expect("synthetic dataset");
    let q = quality::measure(model_builder(scn), scn.seed, &test, &run.final_params);
    r.gate(q.finite, || "non-finite final parameters".into());
    r.gate(q.final_loss < q.initial_loss, || {
        format!(
            "final loss {:.4} not below initial {:.4}",
            q.final_loss, q.initial_loss
        )
    });
    quality::note(r, &q);
    r.note("sim_round_ms", run.sim_secs / scn.steps as f64 * 1e3, "ms");
    r.note(
        "failed_frac",
        ratio(failed as f64, (honest as u64 * scn.steps) as f64),
        "ratio",
    );
}

/// The untraced run: `run_event` repeated at one seed for `seconds`.
pub fn run(net: Net, seed: u64, seconds: f64, r: &mut Report) {
    let scn = scenario(net, seed);
    let mut before = speed::factor();
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_secs(&scn) / before).collect();
    let start = Instant::now();
    let (mut walls, mut rates, mut factors) = (vec![], vec![], vec![]);
    let mut prints = Vec::new();
    let mut last = None;
    // At least two calls: the second is the determinism witness.
    while walls.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = run_event(&scn);
        let wall = t.elapsed().as_secs_f64();
        // The host's speed around the call: the reference before and after.
        let after = speed::factor();
        let slow = (before + after) / 2.0;
        before = after;
        match result {
            Ok(run) => {
                walls.push(wall);
                rates.push(STEPS as f64 / wall * slow);
                factors.push(slow);
                prints.push(run.fingerprint());
                last = Some(run);
            }
            Err(e) => {
                let rounds = scn.honest_servers() as u64 * scn.steps;
                r.attempted += (walls.len() as u64 + 1) * rounds;
                r.failed += rounds;
                r.gate(false, || format!("run_event: {e}"));
                return;
            }
        }
    }
    let run = last.expect("at least one call");
    r.gate(prints.iter().all(|&p| p == prints[0]), || {
        format!("fingerprints differ at one seed: {prints:x?}")
    });
    gate_run(&scn, &run, walls.len() as u64, r);
    r.note("calls", walls.len() as f64, "count");
    r.note_fingerprint(prints[0]);
    let raw: Vec<f64> = walls.iter().map(|w| STEPS as f64 / w).collect();
    speed::note(r, median(&raw), &factors);
    let (q1, q3) = quartiles(&rates);
    r.note("rounds_per_s_q1", q1, "1/s");
    r.note("rounds_per_s_q3", q3, "1/s");
    r.set("rounds_per_s", median(&rates));
    r.set("setup_s", median(&setups));
}

/// The traced run: one untraced `run_event` for reference, the same call
/// rebuilt from its public parts under spans, then the layer probes.
pub fn traced(net: Net, seed: u64, spans: &mut SpanBuf, r: &mut Report) {
    let scn = scenario(net, seed);
    let t = Instant::now();
    let reference = match run_event(&scn) {
        Ok(run) => run,
        Err(e) => {
            r.attempted = scn.honest_servers() as u64 * scn.steps;
            r.failed = r.attempted;
            r.gate(false, || format!("run_event: {e}"));
            return;
        }
    };
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    gate_run(&scn, &reference, 1, r);

    let cpu0 = process_cpu_secs();
    let root = spans.open("scenario.run_event", 0);
    let (round_secs, calibrate_ms) = spans.time("simnet.calibrate", root.id, || {
        calibrate_round_secs(&scn).expect("calibration")
    });
    let setup = spans.open("protocol.build_simulation_net", root.id);
    let cfg = protocol_config(&scn);
    let (train, _) = synthetic_cifar(&scn.data).expect("synthetic dataset");
    let (mut sim, rec) =
        build_simulation_net(&cfg, model_builder(&scn), train, scn.seed, &scn.network)
            .expect("simulation builds");
    spans.close(setup);
    let (events, run_ms) = spans.time("simnet.run", root.id, || sim.run());
    let traced_ms = spans.close(root);
    let cpu_ms = (process_cpu_secs() - cpu0) * 1e3;
    r.gate(round_secs > 0.0, || "calibration measured no time".into());
    let fingerprint = rec.borrow().trace().fingerprint();
    r.gate(fingerprint == reference.fingerprint(), || {
        format!(
            "rebuilt run fingerprint {fingerprint:#x} ≠ run_event {:#x}",
            reference.fingerprint()
        )
    });

    // Layer probes at the workload's shape.
    let steps = scn.steps;
    let mut model = model_builder(&scn)(&mut TensorRng::new(scn.seed).fork(0xA11));
    let (train, _) = synthetic_cifar(&scn.data).expect("synthetic dataset");
    let cost = probes::layers(r, &mut model, &train, scn.batch_size, machine_config(&scn));
    let run_per = per_round(run_ms, steps);
    let simnet_self = run_per - cost.nn_ms - cost.aggregation_ms - cost.node_self_ms;
    let stats = sim.stats();
    r.set(
        "simnet.calibrate_ms_per_round",
        per_round(calibrate_ms, steps),
    );
    r.set("simnet.run_ms_per_round", run_per);
    r.set("simnet.self_ms_per_round", simnet_self);
    r.set("simnet.events_per_round", per_round(events as f64, steps));
    r.set("simnet.events_per_s", ratio(events as f64, run_ms / 1e3));
    r.set(
        "simnet.messages_per_round",
        per_round(stats.messages_sent as f64, steps),
    );
    r.set(
        "simnet.delivery_ratio",
        ratio(
            stats.messages_delivered as f64,
            (stats.messages_sent + stats.retransmits) as f64,
        ),
    );
    r.set("simnet.queue_drops", stats.queue_drops as f64);
    r.set("simnet.retransmits", stats.retransmits as f64);
    r.set("simnet.peak_queue_bytes", stats.peak_queue_bytes as f64);
    r.set(
        "runtime.cpu_util",
        ratio(cpu_ms, traced_ms * crate::nproc()),
    );
    let cpu_per = per_round(cpu_ms, steps);
    r.set("cpu_ms_per_round", cpu_per);
    r.set(
        "residual_ms_per_round",
        residual(cpu_per, &[per_round(calibrate_ms, steps), run_per]),
    );
    r.set(
        "trace_overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
    );
    // The simulator bypasses codec and transport.
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
        "runtime.setup_ms",
        "lockstep.ms_per_sample",
        "event.ms_per_sample",
        "threaded.ms_per_sample",
    ]);
}

/// The machine configuration `build_simulation_net` gives every node.
fn machine_config(scn: &Scenario) -> MachineConfig {
    MachineConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: GarKind::MultiKrum,
        seed: scn.seed,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        exchange_enabled: true,
        robust_worker_fold: true,
        recovery: true,
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    }
}
