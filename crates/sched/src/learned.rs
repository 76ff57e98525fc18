//! The paper's future-work extension (§VI): "we plan to adopt learning
//! algorithms to guide the Scheduler."
//!
//! An ε-greedy multi-armed bandit over the candidate-plan spectrum: each
//! completed pipeline run reports its realised profit back to the arm that
//! produced it; with probability ε the planner explores a random arm,
//! otherwise it exploits the best empirical mean. The ablation bench
//! compares this against the published policies.

use crate::plan::ExecutionPlan;
use scan_sim::SimRng;
use std::sync::Arc;

/// An ε-greedy bandit over execution plans.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyPlanner {
    /// Shared, so handing a job its arm's plan copies no stages.
    arms: Vec<Arc<ExecutionPlan>>,
    /// Empirical mean profit per arm.
    means: Vec<f64>,
    pulls: Vec<u64>,
    epsilon: f64,
}

impl EpsilonGreedyPlanner {
    /// Creates the bandit over a set of candidate plans.
    ///
    /// # Panics
    /// Panics on an empty arm set or ε outside `[0, 1]`.
    pub fn new(arms: Vec<ExecutionPlan>, epsilon: f64) -> Self {
        assert!(!arms.is_empty(), "the bandit needs at least one arm");
        assert!((0.0..=1.0).contains(&epsilon));
        let n = arms.len();
        let arms = arms.into_iter().map(Arc::new).collect();
        EpsilonGreedyPlanner { arms, means: vec![0.0; n], pulls: vec![0; n], epsilon }
    }

    /// Creates the bandit warm-started with model-based prior estimates of
    /// each arm's profit (each prior counts as one pull). The analytic
    /// model supplies the starting ranking; online feedback corrects it —
    /// this avoids paying full price to explore arms the model already
    /// knows are terrible.
    ///
    /// # Panics
    /// Panics if `priors` and `arms` have different lengths, on an empty
    /// arm set, or ε outside `[0, 1]`.
    pub fn with_priors(arms: Vec<ExecutionPlan>, priors: Vec<f64>, epsilon: f64) -> Self {
        assert_eq!(arms.len(), priors.len(), "one prior per arm");
        assert!(!arms.is_empty(), "the bandit needs at least one arm");
        assert!((0.0..=1.0).contains(&epsilon));
        assert!(priors.iter().all(|p| p.is_finite()));
        let n = arms.len();
        let arms = arms.into_iter().map(Arc::new).collect();
        EpsilonGreedyPlanner { arms, means: priors, pulls: vec![1; n], epsilon }
    }

    /// Number of arms.
    pub fn n_arms(&self) -> usize {
        self.arms.len()
    }

    /// Chooses an arm; returns its index and plan. Unpulled arms are
    /// tried first (optimistic initialisation), then ε-greedy.
    pub fn select(&self, rng: &mut SimRng) -> (usize, Arc<ExecutionPlan>) {
        if let Some(idx) = self.pulls.iter().position(|&p| p == 0) {
            return (idx, Arc::clone(&self.arms[idx]));
        }
        let idx = if rng.uniform01() < self.epsilon {
            rng.uniform_usize(0, self.arms.len() - 1)
        } else {
            self.best_arm()
        };
        (idx, Arc::clone(&self.arms[idx]))
    }

    /// Reports the realised profit of a run executed under arm `idx`.
    pub fn update(&mut self, idx: usize, profit: f64) {
        assert!(profit.is_finite());
        self.pulls[idx] += 1;
        let n = self.pulls[idx] as f64;
        self.means[idx] += (profit - self.means[idx]) / n;
    }

    /// The empirically-best arm index.
    pub fn best_arm(&self) -> usize {
        self.means
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty arms")
    }

    /// Empirical mean of an arm.
    pub fn mean(&self, idx: usize) -> f64 {
        self.means[idx]
    }

    /// The plan behind an arm.
    pub fn arm_plan(&self, idx: usize) -> &Arc<ExecutionPlan> {
        &self.arms[idx]
    }

    /// The plan of the empirically-best arm.
    pub fn best_plan(&self) -> &Arc<ExecutionPlan> {
        &self.arms[self.best_arm()]
    }

    /// Pull count of an arm.
    pub fn pulls(&self, idx: usize) -> u64 {
        self.pulls[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::candidate_plans;
    use scan_workload::gatk::PipelineModel;

    fn planner(epsilon: f64) -> EpsilonGreedyPlanner {
        let arms = candidate_plans(&PipelineModel::paper(), 5.0);
        EpsilonGreedyPlanner::new(arms, epsilon)
    }

    #[test]
    fn explores_every_arm_first() {
        let mut p = planner(0.0);
        let mut rng = SimRng::from_seed_u64(1);
        let n = p.n_arms();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let (idx, _) = p.select(&mut rng);
            seen.insert(idx);
            p.update(idx, 1.0);
        }
        assert_eq!(seen.len(), n, "every arm must be initialised");
    }

    #[test]
    fn exploits_the_best_arm() {
        let mut p = planner(0.0); // pure exploitation after init
        let mut rng = SimRng::from_seed_u64(2);
        let n = p.n_arms();
        // Arm 2 pays 100, everything else 1.
        for _ in 0..n {
            let (idx, _) = p.select(&mut rng);
            p.update(idx, if idx == 2 { 100.0 } else { 1.0 });
        }
        for _ in 0..50 {
            let (idx, _) = p.select(&mut rng);
            assert_eq!(idx, 2);
            p.update(idx, 100.0);
        }
        assert_eq!(p.best_arm(), 2);
        assert!(p.pulls(2) >= 50);
    }

    #[test]
    fn epsilon_forces_exploration() {
        let mut p = planner(0.5);
        let mut rng = SimRng::from_seed_u64(3);
        let n = p.n_arms();
        for _ in 0..n {
            let (idx, _) = p.select(&mut rng);
            p.update(idx, if idx == 0 { 100.0 } else { 1.0 });
        }
        let mut non_best = 0;
        for _ in 0..400 {
            let (idx, _) = p.select(&mut rng);
            if idx != 0 {
                non_best += 1;
            }
            p.update(idx, if idx == 0 { 100.0 } else { 1.0 });
        }
        // ε = 0.5 with many arms → roughly half the pulls explore.
        assert!(non_best > 100, "exploration count {non_best}");
    }

    #[test]
    fn running_mean_is_exact() {
        let mut p = planner(0.0);
        p.update(0, 10.0);
        p.update(0, 20.0);
        p.update(0, 30.0);
        assert!((p.mean(0) - 20.0).abs() < 1e-12);
        assert_eq!(p.pulls(0), 3);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_arms_rejected() {
        EpsilonGreedyPlanner::new(vec![], 0.1);
    }

    #[test]
    fn priors_seed_the_ranking() {
        let arms = candidate_plans(&PipelineModel::paper(), 5.0);
        let mut priors = vec![0.0; arms.len()];
        priors[3] = 500.0;
        let mut p = EpsilonGreedyPlanner::with_priors(arms, priors, 0.0);
        let mut rng = SimRng::from_seed_u64(4);
        // No zero-pull arms, so pure exploitation starts at the prior's
        // favourite immediately.
        let (idx, _) = p.select(&mut rng);
        assert_eq!(idx, 3);
        // Reality disagrees: arm 3 actually loses money; feedback demotes
        // it.
        for _ in 0..30 {
            let (idx, _) = p.select(&mut rng);
            p.update(idx, if idx == 3 { -100.0 } else { 50.0 });
        }
        assert_ne!(p.best_arm(), 3, "online feedback must override a bad prior");
    }

    #[test]
    #[should_panic(expected = "one prior per arm")]
    fn mismatched_priors_rejected() {
        let arms = candidate_plans(&PipelineModel::paper(), 5.0);
        EpsilonGreedyPlanner::with_priors(arms, vec![1.0], 0.1);
    }
}
