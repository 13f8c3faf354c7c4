//! Pins the trace fingerprint of a paper-scale event-engine run, so a
//! one-ULP drift anywhere in the gradient pass (`tensor` kernels, `nn`
//! layers) or the folds fails the tier-1 suite.
//!
//! The scenario is the benchmark's `paper_sim` shape: the 6 + 18
//! deployment at seed 1, 5 workers sending Random gradients and 1
//! equivocating server, shortened to a few steps. Every round's digest
//! hashes the honest servers' parameter bits, so the fingerprint moves
//! with any change to any gradient.

use byzantine::AttackKind;
use scenario::{run_event, Scenario};

/// Rounds of the pinned run.
const STEPS: u64 = 8;

/// The fingerprint the run has produced since the gradient kernels were
/// last changed on purpose. Update it only for a change that is meant to
/// move the numbers, and say why in the change's notes.
const PINNED: u64 = 0x271b_8563_5461_ed06;

#[test]
fn paper_scale_event_trace_is_pinned() {
    let mut scn = Scenario::baseline("bench", 1).at_paper_scale(STEPS);
    scn.actual_byz_workers = 5;
    scn.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    scn.actual_byz_servers = 1;
    scn.server_attack = Some(AttackKind::Equivocate { scale: 20.0 });
    let run = run_event(&scn).expect("paper-scale scenario runs");
    assert_eq!(run.trace.len() as u64, STEPS, "every round completes");
    assert_eq!(
        run.fingerprint(),
        PINNED,
        "paper-scale trace fingerprint moved: {:#x}",
        run.fingerprint()
    );
}
