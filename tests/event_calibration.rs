//! The event engine calibrates its round→time scale only when a timing
//! fault (delay spike, straggler burst) needs it. Skipping the dry run
//! must be invisible: for every scenario-matrix entry and every committed
//! reproducer, `run_event` equals `run_event_with` at the calibrated
//! scale, field by field. Schedules without a timing window are also run
//! at a deliberately wrong scale, which must not matter; for schedules
//! with one, the wrong scale must show — so the comparison would catch a
//! skipped calibration.

use std::path::Path;

use scenario::file::scenario_files;
use scenario::{calibrate_round_secs, matrix, run_event, run_event_with};
use scenario::{Scenario, ScenarioFile, ScenarioRun};

/// A scale no calibration produces: every round maps to one hour.
const WRONG_ROUND_SECS: f64 = 3600.0;

fn assert_same_run(label: &str, a: &ScenarioRun, b: &ScenarioRun) {
    assert_eq!(a.trace, b.trace, "{label}: trace");
    assert_eq!(a.finishers, b.finishers, "{label}: finishers");
    assert_eq!(
        a.final_params.len(),
        b.final_params.len(),
        "{label}: final params"
    );
    for (i, (pa, pb)) in a.final_params.iter().zip(&b.final_params).enumerate() {
        let bits =
            |t: &tensor::Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(pa), bits(pb), "{label}: final params of finisher {i}");
    }
    assert_eq!(
        a.messages_dropped, b.messages_dropped,
        "{label}: messages_dropped"
    );
    assert_eq!(a.queue_drops, b.queue_drops, "{label}: queue_drops");
    assert_eq!(a.retransmits, b.retransmits, "{label}: retransmits");
    assert_eq!(
        a.sim_secs.to_bits(),
        b.sim_secs.to_bits(),
        "{label}: sim_secs {} vs {}",
        a.sim_secs,
        b.sim_secs
    );
}

fn committed_reproducers() -> Vec<Scenario> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    scenario_files(&dir)
        .expect("tests/scenarios must be listable")
        .iter()
        .map(|path| {
            ScenarioFile::load(path)
                .unwrap_or_else(|e| panic!("{e}"))
                .scenario
        })
        .collect()
}

fn check(scn: &Scenario) {
    let round_secs = calibrate_round_secs(scn).unwrap();
    let calibrated = run_event_with(scn, round_secs).unwrap();
    let run = run_event(scn).unwrap();
    assert_same_run(&scn.name, &run, &calibrated);
    let skewed = run_event_with(scn, WRONG_ROUND_SECS).unwrap();
    if scn.faults.has_timing_faults() {
        assert_ne!(
            skewed.sim_secs.to_bits(),
            calibrated.sim_secs.to_bits(),
            "{}: timing windows must depend on the calibration",
            scn.name
        );
    } else {
        assert_same_run(&format!("{} (skewed scale)", scn.name), &run, &skewed);
    }
}

#[test]
fn skipped_calibration_is_invisible_across_the_matrix() {
    let scenarios = matrix(40);
    let timed: Vec<&str> = scenarios
        .iter()
        .filter(|s| s.faults.has_timing_faults())
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(timed, ["delay_spike", "straggler_burst", "combined_stress"]);
    for scn in &scenarios {
        check(scn);
    }
}

#[test]
fn skipped_calibration_is_invisible_on_committed_reproducers() {
    let scenarios = committed_reproducers();
    assert!(
        scenarios
            .iter()
            .any(|s| s.name == "combined_stress" && s.faults.has_timing_faults()),
        "the committed combined_stress reproducer keeps the timing path covered"
    );
    for scn in &scenarios {
        check(scn);
    }
}
