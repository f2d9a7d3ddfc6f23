//! Experiment harness reproducing every quantitative claim of Fan & Lynch,
//! *Gradient Clock Synchronization* (PODC 2004).
//!
//! The paper is a lower-bound paper: it has one figure (Figure 1, the Add
//! Skew rate schedule) and no tables, so the "evaluation" this crate
//! regenerates is the set of checkable claims in the paper, plus the
//! motivating applications from its introduction and the Section-9
//! conjecture. Each module produces [`Table`]s whose rows are *measured*
//! from constructed executions; `EXPERIMENTS.md` records paper-vs-measured
//! for each.
//!
//! | Experiment | Paper source | What is reproduced |
//! |---|---|---|
//! | [`e1_figure1`] | Figure 1 | the staircase of hardware rate schedules in the Add Skew execution β |
//! | [`e2_omega_d`] | §5, claim 1 | `f(d) = Ω(d)` via indistinguishable execution pairs |
//! | [`e3_add_skew`] | Lemma 6.1 | skew gain ≥ distance/12, delay bounds `[d/4, 3d/4]`, replay fidelity |
//! | [`e4_bounded_increase`] | Lemma 7.1 | measured clock-increase rates; the speed-up violation |
//! | [`e5_main_theorem`] | Theorem 8.1 | adjacent skew ≥ k/24 after k rounds; growth with D |
//! | [`e6_max_violation`] | §2 | the three-node Srikanth-Toueg gradient violation |
//! | [`e7_tdma`] | §1 | TDMA slot collisions as the network grows |
//! | [`e8_gradient_profile`] | §9 conjecture | empirical skew-vs-distance gradients per algorithm |
//! | [`e9_rbs`] | §2 (RBS) | skew tracks broadcast jitter, not network extent |
//! | [`e10_ablations`] | (ours) | sensitivity to ρ, shrink σ, extension length |
//! | [`e11_dynamic`] | Kuhn–Lenzen–Locher–Oshman (dynamic networks) | churn rate vs. local skew; weak→strong stabilization on re-formed edges |
//! | [`e12_streaming`] | (ours) | streaming sweeps at 100× horizon: lazy drift holds the live schedule window O(1) |
//! | [`e13_dynamic_bounds`] | Kuhn–Lenzen–Locher–Oshman §5 | churn-aware retiming: forced skew on freshly formed links, replay-validated; drift vs. delay caps on the shift |
//! | [`e14_serving`] | (ours) | the `gcs-timed` serving sweep: sealed-interval width/clamps/containment across cluster size × cadence, plus loopback requests/sec × p50/p99 under closed-loop load |
//! | [`e15_scale`] | (ours) | the sharded engine at scale: a churned 100k-node random-geometric network streamed across shard counts, with bit-identical observer streams and events/sec per shard count |
//!
//! Run everything with the `run_experiments` binary (release mode
//! recommended):
//!
//! ```text
//! cargo run --release -p gcs-experiments --bin run_experiments
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e10_ablations;
pub mod e11_dynamic;
pub mod e12_streaming;
pub mod e13_dynamic_bounds;
pub mod e14_serving;
pub mod e15_scale;
pub mod e1_figure1;
pub mod e2_omega_d;
pub mod e3_add_skew;
pub mod e4_bounded_increase;
pub mod e5_main_theorem;
pub mod e6_max_violation;
pub mod e7_tdma;
pub mod e8_gradient_profile;
pub mod e9_rbs;
pub mod sweep;
mod table;

pub use sweep::{cell_metrics_json, MetricsSpec, RunSpec, SweepCell, SweepRunner};
pub use table::Table;

/// How much work an experiment should do.
///
/// `Quick` keeps unit/integration tests and CI smoke runs fast; `Full`
/// is the configuration the recorded results in `EXPERIMENTS.md` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small networks and short horizons (seconds of CPU).
    Quick,
    /// The full parameter sweeps.
    Full,
}

impl Scale {
    /// Reads the scale from the `GCS_SCALE` environment variable
    /// (`"full"` → [`Scale::Full`], anything else → [`Scale::Quick`]).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("GCS_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }
}

type Job = (&'static str, fn(Scale) -> Vec<Table>);

fn all_jobs() -> Vec<Job> {
    vec![
        ("e1", e1_figure1::run),
        ("e2", e2_omega_d::run),
        ("e3", e3_add_skew::run),
        ("e4", e4_bounded_increase::run),
        ("e5", e5_main_theorem::run),
        ("e6", e6_max_violation::run),
        ("e7", e7_tdma::run),
        ("e8", e8_gradient_profile::run),
        ("e9", e9_rbs::run),
        ("e10", e10_ablations::run),
        ("e11", e11_dynamic::run),
        ("e12", e12_streaming::run),
        ("e13", e13_dynamic_bounds::run),
        ("e14", e14_serving::run),
        ("e15", e15_scale::run),
    ]
}

/// The ids accepted by [`run_selected`], in experiment order.
#[must_use]
pub fn experiment_ids() -> Vec<&'static str> {
    all_jobs().iter().map(|(id, _)| *id).collect()
}

/// Runs every experiment (each parallelizing its own sweep across the
/// machine) and returns all tables in experiment order.
#[must_use]
pub fn run_all(scale: Scale) -> Vec<Table> {
    run_jobs(all_jobs(), scale)
}

/// Runs only the experiments with the given ids (e.g. `["e11"]`),
/// returning their tables in experiment order.
///
/// # Panics
///
/// Panics if an id matches no experiment (catches typos in CI configs).
#[must_use]
pub fn run_selected(scale: Scale, ids: &[String]) -> Vec<Table> {
    let jobs = all_jobs();
    for id in ids {
        assert!(
            jobs.iter().any(|(jid, _)| jid == id),
            "unknown experiment id `{id}` (known: {})",
            jobs.iter()
                .map(|(jid, _)| *jid)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let selected: Vec<Job> = jobs
        .into_iter()
        .filter(|(jid, _)| ids.iter().any(|id| id == jid))
        .collect();
    run_jobs(selected, scale)
}

fn run_jobs(jobs: Vec<Job>, scale: Scale) -> Vec<Table> {
    // One experiment at a time: each experiment saturates the machine
    // through its own internal `SweepRunner` sweep, so an outer fan-out
    // would only oversubscribe the CPUs and hold many recorded
    // executions in memory at once.
    SweepRunner::with_threads(1)
        .map(&jobs, |_, (_, f)| f(scale))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // The test environment does not set GCS_SCALE.
        if std::env::var("GCS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn selection_runs_only_the_requested_experiment() {
        let tables = run_selected(Scale::Quick, &["e11".to_string()]);
        assert!(!tables.is_empty());
        assert!(tables.iter().all(|t| t.id() == "e11"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_selection_panics() {
        let _ = run_selected(Scale::Quick, &["e99".to_string()]);
    }

    #[test]
    fn experiment_ids_cover_e1_through_e15() {
        let ids = experiment_ids();
        assert_eq!(ids.len(), 15);
        assert_eq!(ids.first(), Some(&"e1"));
        assert_eq!(ids.last(), Some(&"e15"));
    }
}
