//! The deterministic trace checker.
//!
//! Two contracts (DESIGN.md §6):
//!
//! 1. **Determinism** — the same scenario with the same seed must replay
//!    to a bit-identical trace on each deterministic engine
//!    ([`assert_deterministic`] runs it twice and compares
//!    fingerprints).
//! 2. **Protocol invariants** — under any scheduled fault load that stays
//!    within the paper's bounds, every engine must preserve *safety*
//!    (honest finishers hold finite, mutually-close models) and
//!    *liveness* (enough honest servers complete the run)
//!    ([`check_invariants`]).

use aggregation::properties::diameter;
use guanyu::Result;
use serde::{Deserialize, Serialize};

use crate::run::{
    event_fault_plan, run_event_planned, run_lockstep, run_threaded, Engine, ScenarioRun,
};
use crate::scenario::Scenario;

/// What the invariant check measured (one engine, one scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvariantReport {
    /// Scenario name.
    pub scenario: String,
    /// Engine label.
    pub engine: String,
    /// Trace fingerprint (the determinism witness).
    pub fingerprint: u64,
    /// Honest servers that completed the final step.
    pub finishers: usize,
    /// The scenario's lower bound on finishers.
    pub min_finishers: usize,
    /// Diameter of the finishers' final models.
    pub agreement_diameter: f64,
    /// Scale the diameter is judged against (max final-model norm, ≥ 1).
    pub scale: f64,
    /// Messages the fault plan dropped (event engine).
    pub messages_dropped: u64,
    /// Transient drop-tail queue overflows (switched-network runs; the
    /// transport retransmitted these).
    #[serde(default)]
    pub queue_drops: u64,
    /// Go-back-n retransmission attempts (switched-network runs).
    #[serde(default)]
    pub retransmits: u64,
    /// Simulated seconds.
    pub sim_secs: f64,
}

/// Runs the scenario twice on one engine and asserts bit-identical
/// traces; returns the (verified-deterministic) run.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics when the two fingerprints differ — the determinism contract is
/// broken and nothing downstream can be trusted.
pub fn assert_deterministic(scn: &Scenario, engine: Engine) -> Result<ScenarioRun> {
    let (a, b) = match engine {
        Engine::Lockstep => (run_lockstep(scn)?, run_lockstep(scn)?),
        Engine::EventDriven => {
            // The plan (and any calibration behind it) is deterministic:
            // compile once, share across both replays.
            let plan = event_fault_plan(scn)?;
            (
                run_event_planned(scn, plan.clone())?,
                run_event_planned(scn, plan)?,
            )
        }
        Engine::Threaded => (run_threaded(scn)?, run_threaded(scn)?),
    };
    assert_eq!(
        a.trace, b.trace,
        "{engine} engine: scenario '{}' (seed {}) did not replay bit-identically",
        scn.name, scn.seed
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
    Ok(a)
}

/// Checks the protocol-level invariants on a completed run and returns
/// the measurements.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn check_invariants(
    scn: &Scenario,
    run: &ScenarioRun,
) -> std::result::Result<InvariantReport, String> {
    let label = format!("scenario '{}' on {}", scn.name, run.engine);

    // Liveness: the run made it to the final step at sufficient strength.
    if run.diverged {
        return Err(format!("{label}: diverged under bounded faults"));
    }
    if run.trace.is_empty() {
        return Err(format!("{label}: recorded no rounds"));
    }
    let min_finishers = scn.min_finishers();
    if run.finishers.len() < min_finishers {
        return Err(format!(
            "{label}: only {} finishers, expected ≥ {min_finishers}",
            run.finishers.len()
        ));
    }

    // Safety: finite models, in agreement.
    for (id, p) in run.finishers.iter().zip(&run.final_params) {
        if !p.is_finite() {
            return Err(format!("{label}: server {id} holds non-finite parameters"));
        }
    }
    let (diam, scale) = if run.final_params.len() >= 2 {
        let diam = diameter(&run.final_params).map_err(|e| format!("{label}: {e}"))? as f64;
        let scale = run
            .final_params
            .iter()
            .map(|p| p.norm() as f64)
            .fold(1.0f64, f64::max);
        if diam > scale {
            return Err(format!(
                "{label}: honest finishers disagree: diameter {diam} vs scale {scale}"
            ));
        }
        (diam, scale)
    } else {
        (0.0, 1.0)
    };

    Ok(InvariantReport {
        scenario: scn.name.clone(),
        engine: run.engine.to_string(),
        fingerprint: run.fingerprint(),
        finishers: run.finishers.len(),
        min_finishers,
        agreement_diameter: diam,
        scale,
        messages_dropped: run.messages_dropped,
        queue_drops: run.queue_drops,
        retransmits: run.retransmits,
        sim_secs: run.sim_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use guanyu::faults::FaultKind;

    #[test]
    fn deterministic_baseline_passes_invariants_on_both_engines() {
        let scn = Scenario::baseline("check", 9);
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            let run = assert_deterministic(&scn, engine).unwrap();
            let report = check_invariants(&scn, &run).unwrap();
            assert_eq!(report.finishers, 6);
            assert!(report.agreement_diameter <= report.scale);
        }
    }

    #[test]
    fn invariant_checker_flags_thin_finishers() {
        let scn = Scenario::baseline("thin", 9);
        let mut run = run_lockstep(&scn).unwrap();
        run.finishers.truncate(2);
        run.final_params.truncate(2);
        let err = check_invariants(&scn, &run).unwrap_err();
        assert!(err.contains("finishers"), "{err}");
    }

    #[test]
    fn invariant_checker_flags_disagreement() {
        let scn = Scenario::baseline("split", 9);
        let mut run = run_lockstep(&scn).unwrap();
        // Fake a split-brain outcome: two finishers on opposite ends.
        run.final_params[0] = run.final_params[0].shift(1e6);
        run.final_params[1] = run.final_params[1].shift(-1e6);
        let err = check_invariants(&scn, &run).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn crash_scenario_is_deterministic_on_lockstep() {
        let scn = Scenario::baseline("det-crash", 17).with_fault(
            2,
            5,
            FaultKind::CrashServers { servers: vec![0] },
        );
        let run = assert_deterministic(&scn, Engine::Lockstep).unwrap();
        check_invariants(&scn, &run).unwrap();
    }
}
