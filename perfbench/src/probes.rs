//! Layer probes: each times one layer's public entry point in isolation,
//! at the shape a workload runs it, from outside the engine.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use aggregation::{Gar, GarKind};
use data::{Batcher, Dataset};
use guanyu::config::ClusterConfig;
use guanyu::node::{
    ByzServerMachine, ByzWorkerMachine, MachineConfig, MachineSpec, NodeMsg, Output, ServerMachine,
    WorkerMachine,
};
use guanyu_runtime::{decode, encode, WireMsg};
use nn::{softmax_cross_entropy, Sequential};
use tensor::{Tensor, TensorRng};

use crate::stats::median;

/// Median wall milliseconds of `reps` calls of `f` (after one warm-up).
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One honest gradient, the way a worker computes it: load the folded
/// model, forward and backward one mini-batch. Returns the median ms and
/// the gradients computed (one per mini-batch, in order).
pub fn grad_ms(
    model: &mut Sequential,
    theta: &Tensor,
    train: &Dataset,
    batch: usize,
) -> (f64, Vec<Tensor>) {
    let mut batcher = Batcher::new(train.len(), batch, 1);
    let mut grads = Vec::new();
    let ms = median_ms(31, || {
        model
            .set_param_vector(theta)
            .expect("probe model matches θ");
        model.zero_grads();
        let (x, labels) = batcher.next_batch(train).expect("probe batch");
        let logits = model.forward(&x, true).expect("probe forward");
        let (_, dl) = softmax_cross_entropy(&logits, &labels).expect("probe loss");
        model.backward(&dl).expect("probe backward");
        grads.push(model.grad_vector());
    });
    (ms, grads)
}

/// Median milliseconds of one `kind` fold with tolerance `f` over
/// `inputs`.
pub fn fold_ms(kind: GarKind, f: usize, inputs: &[Tensor]) -> f64 {
    let gar: Box<dyn Gar> = kind.build(f).expect("probe GAR");
    median_ms(11, || {
        std::hint::black_box(gar.aggregate(inputs).expect("probe fold"));
    })
}

/// Median microseconds to encode and to decode one gradient frame of
/// dimension `dim`.
pub fn codec_us(dim: usize) -> (f64, f64) {
    let msg = WireMsg::Gradient {
        step: 7,
        grad: TensorRng::new(0xC0DE).normal_tensor(&[dim], 0.0, 1.0),
    };
    let frame = encode(&msg);
    let enc = median_ms(15, || {
        std::hint::black_box(encode(&msg));
    });
    let dec = median_ms(15, || {
        std::hint::black_box(decode(&frame).expect("probe frame decodes"));
    });
    (enc * 1e3, dec * 1e3)
}

/// What driving the node machines alone costs, and the vectors one
/// server and one worker folded in the second round.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// Wall milliseconds spent inside machine calls, per round.
    pub machine_ms_per_round: f64,
    /// Messages delivered per round.
    pub msgs_per_round: f64,
    /// Messages the machines discarded per round.
    pub discarded_per_round: f64,
    /// Gradients that reached server 0 (the gradient fold's inputs).
    pub grads: Vec<Tensor>,
    /// Models that reached the first worker (the model fold's inputs).
    pub models: Vec<Tensor>,
    /// Exchanged models that reached server 0, with its own (the
    /// exchange fold's inputs).
    pub exchanges: Vec<Tensor>,
}

enum Machine {
    Server(ServerMachine),
    Worker(WorkerMachine),
    ByzServer(ByzServerMachine),
    ByzWorker(ByzWorkerMachine),
}

/// Runs every machine of `cfg` on one thread through a FIFO of messages,
/// starting the servers at `theta` and answering gradient requests from
/// `pool` (real gradients: zero vectors would make every fold degenerate
/// and cheaper than in a real run), and times the machine calls. No
/// network and no forward/backward pass: what remains is the protocol's
/// own bookkeeping, its folds and the Byzantine forging.
pub fn node_cost(cfg: MachineConfig, theta: &Tensor, pool: &[Tensor]) -> NodeCost {
    let cluster: ClusterConfig = cfg.cluster;
    let steps = cfg.max_steps;
    let gar_kind = cfg.server_gar;
    let honest_servers = cfg.honest_servers();
    let honest_workers = cfg.honest_workers();
    let spec = MachineSpec::new(cfg).expect("probe machine config is valid");
    let dim = theta.len();
    let n = cluster.servers;
    let mut nodes: Vec<Machine> = (0..n)
        .map(|s| {
            if s < honest_servers {
                let gar = gar_kind.build(cluster.krum_f()).expect("probe GAR");
                Machine::Server(ServerMachine::new(
                    Arc::clone(&spec),
                    s,
                    theta.clone(),
                    0,
                    gar,
                ))
            } else {
                Machine::ByzServer(ByzServerMachine::new(Arc::clone(&spec), s, dim))
            }
        })
        .collect();
    nodes.extend((0..cluster.workers).map(|w| {
        if w < honest_workers {
            Machine::Worker(WorkerMachine::new(Arc::clone(&spec), n + w, dim))
        } else {
            Machine::ByzWorker(ByzWorkerMachine::new(Arc::clone(&spec), w))
        }
    }));

    // Inputs of the second round's folds, captured for the fold probes.
    const CAPTURE_STEP: u64 = 1;
    let (mut grads, mut models, mut exchanges) = (Vec::new(), Vec::new(), Vec::new());
    // (destination, inbound): `None` starts the machine.
    let mut queue: VecDeque<(usize, Option<(usize, NodeMsg)>)> =
        (0..nodes.len()).map(|node| (node, None)).collect();
    let mut busy = 0.0;
    let mut delivered = 0u64;
    while let Some((node, inbound)) = queue.pop_front() {
        if let Some((_, msg)) = &inbound {
            if msg.step() == CAPTURE_STEP {
                match msg {
                    NodeMsg::Gradient { grad, .. } if node == 0 => grads.push(grad.clone()),
                    NodeMsg::Model { params, .. } if node == n => models.push(params.clone()),
                    NodeMsg::Exchange { params, .. } if node == 0 => {
                        exchanges.push(params.clone());
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        let t = Instant::now();
        match (&mut nodes[node], &inbound) {
            (Machine::Server(m), None) => m.on_start(&mut out),
            (Machine::Worker(m), None) => m.on_start(&mut out),
            (Machine::ByzServer(m), None) => m.on_start(&mut out),
            (Machine::ByzWorker(_), None) => {}
            (Machine::Server(m), Some((from, msg))) => m.on_message(*from, msg, &mut out),
            (Machine::Worker(m), Some((from, msg))) => m.on_message(*from, msg, &mut out),
            (Machine::ByzServer(m), Some((from, msg))) => m.on_message(*from, msg, &mut out),
            (Machine::ByzWorker(m), Some((from, msg))) => m.on_message(*from, msg, &mut out),
        }
        // Gradient requests are answered in place, as the engines do; the
        // answer may append further outputs.
        let mut i = 0;
        while i < out.len() {
            if let Output::NeedGradient { step, .. } = out[i] {
                if let Machine::Worker(m) = &mut nodes[node] {
                    let grad = pool[node % pool.len()].clone();
                    m.gradient_ready(step, grad, &mut out);
                }
            }
            i += 1;
        }
        busy += t.elapsed().as_secs_f64() * 1e3;
        delivered += u64::from(inbound.is_some());
        for o in out {
            if let Output::Send { to, msg } = o {
                queue.push_back((to, Some((node, msg))));
            }
        }
    }
    let discarded: u64 = nodes
        .iter()
        .map(|m| match m {
            Machine::Server(m) => m.discarded(),
            Machine::Worker(m) => m.discarded(),
            _ => 0,
        })
        .sum();
    let unfinished = nodes.iter().any(|m| match m {
        Machine::Server(m) => m.step() < steps,
        _ => false,
    });
    assert!(!unfinished, "node probe: an honest server stalled");
    // Machines fold the first quorum's worth of arrivals (the server's
    // exchange quorum counts its own model).
    grads.truncate(cluster.worker_quorum);
    models.truncate(cluster.server_quorum);
    exchanges.truncate(cluster.server_quorum - 1);
    if let Machine::Server(m) = &nodes[0] {
        exchanges.push(m.params().clone());
    }
    let per = |x: f64| x / steps as f64;
    NodeCost {
        machine_ms_per_round: per(busy),
        msgs_per_round: per(delivered as f64),
        discarded_per_round: per(discarded as f64),
        grads,
        models,
        exchanges,
    }
}

/// Per-round costs the layer probes attribute, for residual arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Honest gradients of one round, ms.
    pub nn_ms: f64,
    /// Folds of one round, ms.
    pub aggregation_ms: f64,
    /// Machine bookkeeping of one round beyond its folds, ms.
    pub node_self_ms: f64,
    /// One frame's encode, µs.
    pub encode_us: f64,
    /// One frame's decode, µs.
    pub decode_us: f64,
}

/// Runs the `nn`, `aggregation`, `wire` and `node` probes for one pass of
/// the deployment `machines` describes, with workers training `model`
/// (at its current parameters) on `train`, and reports their metrics. The
/// folds are timed on the inputs the node probe saw one server and one
/// worker fold.
pub fn layers(
    r: &mut crate::report::Report,
    model: &mut Sequential,
    train: &Dataset,
    batch: usize,
    machines: MachineConfig,
) -> LayerCost {
    let c = machines.cluster;
    let hs = machines.honest_servers() as f64;
    let hw = machines.honest_workers() as f64;
    let theta = model.param_vector();
    let (grad, pool) = grad_ms(model, &theta, train, batch);
    let node = node_cost(machines, &theta, &pool);
    let gar = fold_ms(GarKind::MultiKrum, c.krum_f(), &node.grads);
    let model_fold = fold_ms(GarKind::Median, 0, &node.models);
    let exchange_fold = fold_ms(GarKind::Median, 0, &node.exchanges);
    let aggregation_ms = hs * (gar + exchange_fold) + hw * model_fold;
    let (encode_us, decode_us) = codec_us(theta.len());
    let node_self_ms = node.machine_ms_per_round - aggregation_ms;
    r.note("model_dim", theta.len() as f64, "count");
    r.set("nn.grad_ms", grad);
    r.set("nn.grads_per_round", hw);
    r.set("nn.ms_per_round", grad * hw);
    r.set("aggregation.gar_fold_ms", gar);
    r.set("aggregation.model_fold_ms", model_fold);
    r.set("aggregation.exchange_fold_ms", exchange_fold);
    r.set("aggregation.folds_per_round", 2.0 * hs + hw);
    r.set("aggregation.ms_per_round", aggregation_ms);
    r.set("wire.encode_us", encode_us);
    r.set("wire.decode_us", decode_us);
    r.set("node.machine_ms_per_round", node.machine_ms_per_round);
    r.set("node.self_ms_per_round", node_self_ms);
    r.set("node.msgs_per_round", node.msgs_per_round);
    r.set("node.discarded_per_round", node.discarded_per_round);
    LayerCost {
        nn_ms: grad * hw,
        aggregation_ms,
        node_self_ms,
        encode_us,
        decode_us,
    }
}
