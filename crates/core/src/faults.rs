//! Round-indexed fault schedules for the round-structured engines.
//!
//! Where `simnet::FaultPlan` scripts faults over *simulated time* (the
//! event-driven engine's axis), a [`FaultSchedule`] scripts them over
//! *protocol rounds* — the natural clock of the lockstep engine, and the
//! step numbers the event-driven protocol carries in every message (attack
//! windows gate on those, so onset/offset is exact in both engines).
//!
//! A schedule is a list of [`FaultWindow`]s (`[start, end)` in steps) over
//! the [`FaultKind`] taxonomy. The queries below are pure functions of
//! `(schedule, step)`, so a faulted run with a fixed seed replays
//! bit-identically — the determinism contract the scenario trace checker
//! asserts.
//!
//! Index convention: `CrashServers`/`PartitionServers` name **honest
//! server indices** (`0..n−f_actual`) and `CrashWorkers`/
//! `StragglerWorkers` name **honest worker indices** — the Byzantine tail
//! of each range is scripted by the attack windows instead.

use serde::{Deserialize, Serialize};

/// One class of environmental or adversarial fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The named honest servers are down: they neither broadcast, update,
    /// nor exchange; their parameters freeze until the window closes
    /// (crash-recovery — the exchange median pulls them back afterwards).
    CrashServers {
        /// Honest server indices.
        servers: Vec<usize>,
    },
    /// The named honest workers are down: they contribute no gradients.
    CrashWorkers {
        /// Honest worker indices.
        workers: Vec<usize>,
    },
    /// Honest servers can only exchange models within their own group;
    /// cross-group exchange traffic is lost. Servers absent from every
    /// group are unrestricted. Worker traffic is unaffected (server-plane
    /// partition).
    PartitionServers {
        /// Groups of honest server indices.
        groups: Vec<Vec<usize>>,
    },
    /// Every link's sampled delay is stretched: `delay * factor + extra`.
    DelaySpike {
        /// Multiplier on sampled delays (≥ 1 slows down).
        factor: f64,
        /// Additional constant delay in seconds.
        extra_secs: f64,
    },
    /// The named honest workers' messages pick up `extra_secs` — a
    /// straggler burst that pushes them out of gradient quorums.
    StragglerWorkers {
        /// Honest worker indices.
        workers: Vec<usize>,
        /// Extra outgoing delay in seconds.
        extra_secs: f64,
    },
    /// The configured worker attack is live during this window. If a
    /// schedule contains *any* `WorkerAttack` window the attack is gated
    /// to those windows (outside them the Byzantine workers stay mute —
    /// the least harmful behaviour); with none, it is always live.
    WorkerAttack,
    /// Same gating for the configured server attack.
    ServerAttack,
    /// Rolling worker churn: at step `t` inside the window, honest worker
    /// `((t − start) / period) mod pool` is down — one node is always
    /// restarting, a different one every `period` steps.
    WorkerChurn {
        /// Steps each worker stays down.
        period: u64,
        /// Number of honest workers cycled through.
        pool: usize,
    },
}

/// Both non-empty strict-subset halves of a scope list (first half, then
/// second), for scope shrinking. Empty when the list has ≤ 1 entries —
/// removing the whole window is the shrinker's job, not this function's.
fn scope_halves(xs: &[usize]) -> Vec<Vec<usize>> {
    if xs.len() <= 1 {
        return Vec::new();
    }
    let mid = xs.len() / 2;
    vec![xs[..mid].to_vec(), xs[mid..].to_vec()]
}

impl FaultKind {
    /// Strictly weaker variants of this fault, strongest reduction first.
    ///
    /// This is the intensity/scope ladder the chaos shrinker
    /// (`scenario::shrink`) descends after delta-debugging whole windows
    /// away: it replaces a window's kind with the first candidate that
    /// still reproduces the violation and repeats until none does. Every
    /// candidate strictly reduces a measure (named-node count, churn pool,
    /// or a halved delay bounded below by a floor), so the descent
    /// terminates. An empty vector means the kind is already minimal —
    /// partition groups and attack gates have no meaningful "half".
    pub fn weakened(&self) -> Vec<FaultKind> {
        match self {
            FaultKind::CrashServers { servers } => scope_halves(servers)
                .into_iter()
                .map(|servers| FaultKind::CrashServers { servers })
                .collect(),
            FaultKind::CrashWorkers { workers } => scope_halves(workers)
                .into_iter()
                .map(|workers| FaultKind::CrashWorkers { workers })
                .collect(),
            FaultKind::DelaySpike { factor, extra_secs } => {
                let mut out = Vec::new();
                if *factor > 1.01 {
                    out.push(FaultKind::DelaySpike {
                        factor: 1.0 + (factor - 1.0) / 2.0,
                        extra_secs: *extra_secs,
                    });
                }
                if *extra_secs > 1e-4 {
                    out.push(FaultKind::DelaySpike {
                        factor: *factor,
                        extra_secs: extra_secs / 2.0,
                    });
                }
                out
            }
            FaultKind::StragglerWorkers {
                workers,
                extra_secs,
            } => {
                let mut out: Vec<FaultKind> = scope_halves(workers)
                    .into_iter()
                    .map(|workers| FaultKind::StragglerWorkers {
                        workers,
                        extra_secs: *extra_secs,
                    })
                    .collect();
                if *extra_secs > 1e-3 {
                    out.push(FaultKind::StragglerWorkers {
                        workers: workers.clone(),
                        extra_secs: extra_secs / 2.0,
                    });
                }
                out
            }
            FaultKind::WorkerChurn { period, pool } if *pool > 1 => {
                vec![FaultKind::WorkerChurn {
                    period: *period,
                    pool: pool / 2,
                }]
            }
            _ => Vec::new(),
        }
    }

    /// Whether this kind acts on message *timing* only — a delay spike or
    /// a straggler burst. Such windows change when messages arrive, never
    /// which ones count: every other kind gates membership or attacks on
    /// the step number itself.
    pub fn is_timing(&self) -> bool {
        matches!(
            self,
            FaultKind::DelaySpike { .. } | FaultKind::StragglerWorkers { .. }
        )
    }

    /// Short class label for manifests and trace output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CrashServers { .. } => "crash-servers",
            FaultKind::CrashWorkers { .. } => "crash-workers",
            FaultKind::PartitionServers { .. } => "partition",
            FaultKind::DelaySpike { .. } => "delay-spike",
            FaultKind::StragglerWorkers { .. } => "straggler-burst",
            FaultKind::WorkerAttack => "worker-attack-window",
            FaultKind::ServerAttack => "server-attack-window",
            FaultKind::WorkerChurn { .. } => "churn",
        }
    }
}

/// One fault active during `[start, end)` (protocol steps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First affected step (inclusive).
    pub start: u64,
    /// First unaffected step (exclusive).
    pub end: u64,
    /// The fault.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether `step` falls inside this window.
    pub fn active(&self, step: u64) -> bool {
        step >= self.start && step < self.end
    }
}

/// A declarative schedule of round-indexed faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The scripted windows.
    pub windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a window (builder style).
    #[must_use]
    pub fn with(mut self, start: u64, end: u64, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { start, end, kind });
        self
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Whether any window [is timing-only](FaultKind::is_timing) (a delay
    /// spike or a straggler burst) — the only faults that need a clock
    /// beyond step numbers.
    pub fn has_timing_faults(&self) -> bool {
        self.windows.iter().any(|w| w.kind.is_timing())
    }

    fn active(&self, step: u64) -> impl Iterator<Item = &FaultKind> {
        self.windows
            .iter()
            .filter(move |w| w.active(step))
            .map(|w| &w.kind)
    }

    /// Whether honest server `s` is down at `step`.
    pub fn server_down(&self, step: u64, s: usize) -> bool {
        self.active(step).any(|k| match k {
            FaultKind::CrashServers { servers } => servers.contains(&s),
            _ => false,
        })
    }

    /// Whether honest worker `w` is down at `step` (crash or churn).
    pub fn worker_down(&self, step: u64, w: usize) -> bool {
        for (kind, start) in self
            .windows
            .iter()
            .filter(|win| win.active(step))
            .map(|win| (&win.kind, win.start))
        {
            match kind {
                FaultKind::CrashWorkers { workers } if workers.contains(&w) => return true,
                FaultKind::WorkerChurn { period, pool } if *pool > 0 && *period > 0 => {
                    let victim = ((step - start) / period) as usize % pool;
                    if victim == w {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Combined delay stretch at `step`: `(factor, extra_secs)` folding
    /// every active [`FaultKind::DelaySpike`] (factors multiply, extras
    /// add). `(1.0, 0.0)` when quiet.
    pub fn delay_stretch(&self, step: u64) -> (f64, f64) {
        let mut factor = 1.0;
        let mut extra = 0.0;
        for k in self.active(step) {
            if let FaultKind::DelaySpike {
                factor: f,
                extra_secs: e,
            } = k
            {
                factor *= f;
                extra += e;
            }
        }
        (factor, extra)
    }

    /// Extra outgoing delay of honest worker `w` at `step` (straggler
    /// bursts compose additively).
    pub fn straggler_extra(&self, step: u64, w: usize) -> f64 {
        self.active(step)
            .map(|k| match k {
                FaultKind::StragglerWorkers {
                    workers,
                    extra_secs,
                } if workers.contains(&w) => *extra_secs,
                _ => 0.0,
            })
            .sum()
    }

    /// Whether honest servers `a` and `b` may exchange models at `step`
    /// (no active partition separates them).
    pub fn exchange_allowed(&self, step: u64, a: usize, b: usize) -> bool {
        for k in self.active(step) {
            if let FaultKind::PartitionServers { groups } = k {
                let group_of = |s: usize| groups.iter().position(|g| g.contains(&s));
                if let (Some(ga), Some(gb)) = (group_of(a), group_of(b)) {
                    if ga != gb {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn windows_of(&self, matches: impl Fn(&FaultKind) -> bool) -> Vec<(u64, u64)> {
        self.windows
            .iter()
            .filter(|w| matches(&w.kind))
            .map(|w| (w.start, w.end))
            .collect()
    }

    /// The exact `[start, end)` windows of every `WorkerAttack` fault, in
    /// schedule order. Empty = the attack is ungated (always live).
    pub fn worker_attack_windows(&self) -> Vec<(u64, u64)> {
        self.windows_of(|k| matches!(k, FaultKind::WorkerAttack))
    }

    /// Same for `ServerAttack` faults.
    pub fn server_attack_windows(&self) -> Vec<(u64, u64)> {
        self.windows_of(|k| matches!(k, FaultKind::ServerAttack))
    }

    /// Whether the worker attack is live at `step`: true inside any
    /// `WorkerAttack` window, or always when no such window exists.
    pub fn worker_attack_active(&self, step: u64) -> bool {
        windows_allow(&self.worker_attack_windows(), step)
    }

    /// Same gating for the server attack.
    pub fn server_attack_active(&self, step: u64) -> bool {
        windows_allow(&self.server_attack_windows(), step)
    }
}

/// The shared window-gating rule: an empty list means "ungated" (always
/// allowed); otherwise `step` must fall inside one of the `[start, end)`
/// windows. Both engines call this, so onset/offset semantics — including
/// the gaps between disjoint windows — agree exactly.
pub fn windows_allow(windows: &[(u64, u64)], step: u64) -> bool {
    windows.is_empty() || windows.iter().any(|&(s, e)| step >= s && step < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_quiet() {
        let fs = FaultSchedule::none();
        assert!(fs.is_empty());
        assert!(!fs.server_down(0, 0));
        assert!(!fs.worker_down(5, 3));
        assert_eq!(fs.delay_stretch(1), (1.0, 0.0));
        assert_eq!(fs.straggler_extra(1, 0), 0.0);
        assert!(fs.exchange_allowed(9, 0, 4));
        assert!(fs.worker_attack_active(0), "ungated attacks always live");
        assert!(fs.server_attack_active(99));
        assert!(fs.worker_attack_windows().is_empty());
        assert!(!fs.has_timing_faults());
    }

    #[test]
    fn only_spikes_and_stragglers_are_timing_faults() {
        let membership = FaultSchedule::none()
            .with(0, 4, FaultKind::CrashServers { servers: vec![0] })
            .with(0, 4, FaultKind::CrashWorkers { workers: vec![1] })
            .with(
                1,
                3,
                FaultKind::PartitionServers {
                    groups: vec![vec![0], vec![1]],
                },
            )
            .with(2, 5, FaultKind::WorkerAttack)
            .with(2, 5, FaultKind::ServerAttack)
            .with(0, 9, FaultKind::WorkerChurn { period: 2, pool: 3 });
        assert!(!membership.has_timing_faults());

        let spike = FaultKind::DelaySpike {
            factor: 2.0,
            extra_secs: 0.0,
        };
        let straggler = FaultKind::StragglerWorkers {
            workers: vec![0],
            extra_secs: 1.0,
        };
        for timing in [spike, straggler] {
            assert!(timing.is_timing());
            let fs = membership.clone().with(3, 4, timing.clone());
            assert!(fs.has_timing_faults(), "{}", timing.label());
        }
    }

    #[test]
    fn crash_windows_bound_in_steps() {
        let fs = FaultSchedule::none()
            .with(5, 10, FaultKind::CrashServers { servers: vec![1] })
            .with(
                7,
                12,
                FaultKind::CrashWorkers {
                    workers: vec![0, 2],
                },
            );
        assert!(!fs.server_down(4, 1));
        assert!(fs.server_down(5, 1));
        assert!(fs.server_down(9, 1));
        assert!(!fs.server_down(10, 1), "recovered at window end");
        assert!(!fs.server_down(7, 0), "other servers unaffected");
        assert!(fs.worker_down(7, 0));
        assert!(fs.worker_down(11, 2));
        assert!(!fs.worker_down(7, 1));
    }

    #[test]
    fn partition_blocks_cross_group_exchange_only() {
        let fs = FaultSchedule::none().with(
            2,
            6,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1], vec![2, 3]],
            },
        );
        assert!(fs.exchange_allowed(3, 0, 1), "same group");
        assert!(!fs.exchange_allowed(3, 1, 2), "cross group");
        assert!(fs.exchange_allowed(6, 1, 2), "healed");
        assert!(fs.exchange_allowed(3, 0, 4), "unlisted server unrestricted");
    }

    #[test]
    fn delay_and_straggler_compose() {
        let fs = FaultSchedule::none()
            .with(
                0,
                10,
                FaultKind::DelaySpike {
                    factor: 3.0,
                    extra_secs: 0.1,
                },
            )
            .with(
                5,
                10,
                FaultKind::DelaySpike {
                    factor: 2.0,
                    extra_secs: 0.0,
                },
            )
            .with(
                0,
                10,
                FaultKind::StragglerWorkers {
                    workers: vec![4],
                    extra_secs: 1.5,
                },
            );
        assert_eq!(fs.delay_stretch(2), (3.0, 0.1));
        assert_eq!(fs.delay_stretch(7), (6.0, 0.1));
        assert_eq!(fs.straggler_extra(3, 4), 1.5);
        assert_eq!(fs.straggler_extra(3, 5), 0.0);
    }

    #[test]
    fn attack_windows_gate_when_present() {
        let fs = FaultSchedule::none().with(10, 20, FaultKind::WorkerAttack);
        assert!(!fs.worker_attack_active(9), "before onset: silent");
        assert!(fs.worker_attack_active(10));
        assert!(fs.worker_attack_active(19));
        assert!(!fs.worker_attack_active(20), "after offset: silent");
        assert!(
            fs.server_attack_active(0),
            "server attack ungated by worker windows"
        );
        assert_eq!(fs.worker_attack_windows(), vec![(10, 20)]);
        assert!(fs.server_attack_windows().is_empty());
    }

    #[test]
    fn disjoint_attack_windows_keep_their_gap() {
        // The gap between two windows must stay silent — both through the
        // active() query (lockstep) and through the exported window list
        // that the event engine gates on.
        let fs = FaultSchedule::none()
            .with(2, 4, FaultKind::WorkerAttack)
            .with(8, 10, FaultKind::WorkerAttack);
        assert!(fs.worker_attack_active(3));
        assert!(!fs.worker_attack_active(5), "gap must be silent");
        assert!(fs.worker_attack_active(8));
        let windows = fs.worker_attack_windows();
        assert_eq!(windows, vec![(2, 4), (8, 10)]);
        assert!(windows_allow(&windows, 3));
        assert!(!windows_allow(&windows, 5));
        assert!(windows_allow(&windows, 9));
        assert!(windows_allow(&[], 123), "empty list = ungated");
    }

    #[test]
    fn churn_rolls_through_the_pool() {
        let fs = FaultSchedule::none().with(10, 22, FaultKind::WorkerChurn { period: 3, pool: 4 });
        // steps 10-12 → worker 0, 13-15 → worker 1, 16-18 → 2, 19-21 → 3
        for (step, victim) in [(10, 0), (12, 0), (13, 1), (16, 2), (21, 3)] {
            for w in 0..4 {
                assert_eq!(
                    fs.worker_down(step, w),
                    w == victim,
                    "step {step} worker {w}"
                );
            }
        }
        assert!(!fs.worker_down(22, 0), "churn over");
        // exactly one worker down at any covered step
        for step in 10..22 {
            let down: Vec<usize> = (0..4).filter(|&w| fs.worker_down(step, w)).collect();
            assert_eq!(down.len(), 1, "step {step}: {down:?}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FaultKind::PartitionServers { groups: vec![] }.label(),
            "partition"
        );
        assert_eq!(
            FaultKind::WorkerChurn { period: 1, pool: 1 }.label(),
            "churn"
        );
    }

    #[test]
    fn weakened_halves_scopes_and_intensities() {
        let crash = FaultKind::CrashServers {
            servers: vec![0, 1, 2, 3],
        };
        assert_eq!(
            crash.weakened(),
            vec![
                FaultKind::CrashServers {
                    servers: vec![0, 1]
                },
                FaultKind::CrashServers {
                    servers: vec![2, 3]
                },
            ]
        );
        let spike = FaultKind::DelaySpike {
            factor: 9.0,
            extra_secs: 0.04,
        };
        let weaker = spike.weakened();
        assert_eq!(weaker.len(), 2);
        assert_eq!(
            weaker[0],
            FaultKind::DelaySpike {
                factor: 5.0,
                extra_secs: 0.04
            }
        );
        assert_eq!(
            weaker[1],
            FaultKind::DelaySpike {
                factor: 9.0,
                extra_secs: 0.02
            }
        );
        assert_eq!(
            FaultKind::WorkerChurn { period: 2, pool: 4 }.weakened(),
            vec![FaultKind::WorkerChurn { period: 2, pool: 2 }]
        );
    }

    #[test]
    fn weakened_terminates_at_minimal_kinds() {
        // Single-node scopes, unit pools and attack gates are already
        // minimal — the descent must bottom out.
        for kind in [
            FaultKind::CrashServers { servers: vec![3] },
            FaultKind::CrashWorkers { workers: vec![0] },
            FaultKind::WorkerChurn { period: 1, pool: 1 },
            FaultKind::WorkerAttack,
            FaultKind::ServerAttack,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1], vec![2]],
            },
        ] {
            assert!(kind.weakened().is_empty(), "{kind:?}");
        }
        // Every ladder is finite: repeatedly taking the first candidate
        // reaches a minimal kind in bounded steps.
        let mut kind = FaultKind::DelaySpike {
            factor: 1000.0,
            extra_secs: 1.0,
        };
        let mut steps = 0;
        while let Some(next) = kind.weakened().into_iter().next() {
            kind = next;
            steps += 1;
            assert!(steps < 64, "weakening ladder must terminate");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let fs = FaultSchedule::none()
            .with(1, 4, FaultKind::CrashServers { servers: vec![0] })
            .with(2, 9, FaultKind::WorkerAttack);
        let json = serde_json::to_string(&fs).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fs);
    }
}
