//! The convergence heuristic (Section IV-B, Equation 7 and Figure 2).
//!
//! The paper observes "an inverse exponential relationship between the
//! movement of the vertices and the number of iterations in the inner
//! loop", fits it by regression on LFR traces, and uses the fitted curve
//! ε(iter) as a *move budget*: only the top-ε fraction of vertices (ranked
//! by their best modularity gain `m_u`) are allowed to migrate in a given
//! inner iteration. That throttling is what prevents the oscillation of
//! the unthrottled synchronous algorithm.
//!
//! Two schedule forms are provided:
//!
//! * [`ScheduleForm::ExponentialDecay`] — `ε = p1 · exp(−iter / p2)`, the
//!   inverse-exponential decay the text describes (and what the regression
//!   in [`fit_decay`] estimates). Default.
//! * [`ScheduleForm::PaperReciprocal`] — `ε = p1 · exp(1 / (p2 · iter))`,
//!   the literal typography of Equation 7 (decreasing toward `p1` as
//!   `iter → ∞`). Kept for fidelity experiments.
//!
//! The stopping thresholds below are shared by the sequential, SMP and
//! distributed solvers.

/// A level (or, for the throttled solvers, an inner iteration) that
/// improves modularity by less than this ends its loop.
pub(crate) const MIN_Q_IMPROVEMENT: f64 = 1e-7;

/// The throttled solvers leave the inner loop once fewer than this
/// fraction of vertices moved. The tail iterations move almost nobody but
/// cost two full state propagations each; the paper's UK-2007 runs use ~8
/// inner loops (Figure 8b).
pub(crate) const MIN_MOVE_FRACTION: f64 = 5e-3;

/// Functional form of the ε schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleForm {
    /// `ε(iter) = p1 · exp(−iter / p2)` — inverse exponential decay.
    #[default]
    ExponentialDecay,
    /// `ε(iter) = p1 · exp(1 / (p2 · iter))` — Equation 7 as printed.
    PaperReciprocal,
}

/// The dynamic move-fraction threshold ε(iter).
///
/// ```
/// use louvain_core::heuristic::EpsilonSchedule;
///
/// let s = EpsilonSchedule::default();
/// assert!(s.epsilon(1) > s.epsilon(2));          // decays
/// assert!(s.epsilon(10) < 0.01);                 // to (almost) nothing
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsilonSchedule {
    /// Scale parameter `p1`.
    pub p1: f64,
    /// Rate parameter `p2` (> 0).
    pub p2: f64,
    /// Functional form.
    pub form: ScheduleForm,
}

impl Default for EpsilonSchedule {
    /// Default schedule: `ε(1) ≈ 0.59`, halving every ~1.4 iterations.
    ///
    /// The decay *rate* (p2 = 2.0) comes from the regression on LFR
    /// migration traces (`louvain-bench fig2`); the scale p1 is tuned
    /// down from the sequential traces — the quality ablation
    /// (`louvain-bench ablate-epsilon`) shows that admitting ~95% in
    /// iteration 1 lets simultaneous stale moves collide and costs
    /// ~0.05 modularity on sparse graphs, while ε(1) anywhere in
    /// [0.3, 0.6] matches the sequential algorithm's quality.
    ///
    /// ε is a budget of `ceil(ε·n)` moves over all `n` vertices, not a
    /// share of the willing ones, and the cut overshoots it:
    /// `compute_threshold` cuts at the lower edge of a 64-bin log
    /// histogram, so every gain within 1.38× of the cut passes. At 1
    /// rank, iteration 1 moved 75% of all vertices on `amazon`, 94% on
    /// `uk2005` and 83% on `dblp` (ROADMAP item 4).
    fn default() -> Self {
        Self {
            p1: 0.98,
            p2: 2.0,
            form: ScheduleForm::ExponentialDecay,
        }
    }
}

impl EpsilonSchedule {
    /// The fraction of vertices allowed to move in inner iteration `iter`
    /// (1-based), clamped to `[0, 1]`.
    #[must_use]
    pub fn epsilon(&self, iter: usize) -> f64 {
        let it = iter.max(1) as f64;
        let raw = match self.form {
            ScheduleForm::ExponentialDecay => self.p1 * (-it / self.p2).exp(),
            ScheduleForm::PaperReciprocal => self.p1 * (1.0 / (self.p2 * it)).exp(),
        };
        raw.clamp(0.0, 1.0)
    }
}

/// One observation of the sequential algorithm's migration behaviour:
/// inner iteration number (1-based) and the fraction of vertices that
/// moved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveObservation {
    /// Inner-loop iteration (1-based).
    pub iter: usize,
    /// Fraction of vertices that changed community in that iteration.
    pub fraction: f64,
}

/// Least-squares fit of `ε = p1 · exp(−iter / p2)` on the log scale
/// (`ln f = ln p1 − iter/p2`), the "statistical regression" of
/// Section IV-B. Observations with non-positive fractions are skipped.
///
/// Returns `None` when fewer than two usable observations exist or the
/// fractions don't decay (non-positive slope magnitude).
#[must_use]
pub fn fit_decay(observations: &[MoveObservation]) -> Option<EpsilonSchedule> {
    let pts: Vec<(f64, f64)> = observations
        .iter()
        .filter(|o| o.fraction > 0.0)
        .map(|o| (o.iter as f64, o.fraction.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    if slope >= 0.0 {
        return None; // not decaying
    }
    Some(EpsilonSchedule {
        p1: intercept.exp(),
        p2: -1.0 / slope,
        form: ScheduleForm::ExponentialDecay,
    })
}

/// Coefficient of determination (R²) of a schedule against observations,
/// computed on the log scale. Used by the Figure 2 harness to report the
/// regression quality.
#[must_use]
pub fn r_squared(schedule: &EpsilonSchedule, observations: &[MoveObservation]) -> f64 {
    let pts: Vec<(f64, f64)> = observations
        .iter()
        .filter(|o| o.fraction > 0.0)
        .map(|o| (o.iter as f64, o.fraction.ln()))
        .collect();
    if pts.len() < 2 {
        return 1.0;
    }
    let mean_y: f64 = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|&(x, y)| {
            let pred = schedule.epsilon(x as usize).max(1e-300).ln();
            (y - pred).powi(2)
        })
        .sum();
    if ss_tot <= 0.0 {
        return 1.0;
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decays_monotonically() {
        let s = EpsilonSchedule::default();
        let mut prev = f64::INFINITY;
        for iter in 1..=20 {
            let e = s.epsilon(iter);
            assert!((0.0..=1.0).contains(&e));
            assert!(e <= prev, "ε must decay: iter {iter}");
            prev = e;
        }
    }

    #[test]
    fn default_schedule_shape() {
        // ε(1) ≈ 0.59, decaying below 10% by iteration 6 (see the Default
        // impl docs for why ε(1) < the sequential trace value).
        let s = EpsilonSchedule::default();
        assert!(
            (0.5..0.7).contains(&s.epsilon(1)),
            "ε(1) = {}",
            s.epsilon(1)
        );
        assert!(s.epsilon(6) < 0.10, "ε(6) = {}", s.epsilon(6));
    }

    #[test]
    fn paper_reciprocal_form_decreases_toward_p1() {
        let s = EpsilonSchedule {
            p1: 0.3,
            p2: 1.0,
            form: ScheduleForm::PaperReciprocal,
        };
        let e1 = s.epsilon(1);
        let e10 = s.epsilon(10);
        let e100 = s.epsilon(100);
        assert!(e1 > e10 && e10 > e100);
        assert!(e100 > 0.3 && e100 < 0.31);
    }

    #[test]
    fn fit_recovers_known_parameters() {
        let truth = EpsilonSchedule {
            p1: 0.9,
            p2: 3.0,
            form: ScheduleForm::ExponentialDecay,
        };
        let obs: Vec<MoveObservation> = (1..=12)
            .map(|iter| MoveObservation {
                iter,
                fraction: truth.p1 * (-(iter as f64) / truth.p2).exp(),
            })
            .collect();
        let fitted = fit_decay(&obs).expect("fit succeeds");
        assert!((fitted.p1 - truth.p1).abs() < 1e-9, "p1 {}", fitted.p1);
        assert!((fitted.p2 - truth.p2).abs() < 1e-9, "p2 {}", fitted.p2);
        assert!(r_squared(&fitted, &obs) > 0.999);
    }

    #[test]
    fn fit_handles_noise() {
        // ±20% multiplicative noise, deterministic pattern.
        let obs: Vec<MoveObservation> = (1..=10)
            .map(|iter| {
                let noise = 1.0 + 0.2 * if iter % 2 == 0 { 1.0 } else { -1.0 };
                MoveObservation {
                    iter,
                    fraction: 0.8 * (-(iter as f64) / 2.0).exp() * noise,
                }
            })
            .collect();
        let fitted = fit_decay(&obs).expect("fit succeeds");
        assert!((fitted.p2 - 2.0).abs() < 0.5, "p2 {}", fitted.p2);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_decay(&[]).is_none());
        assert!(fit_decay(&[MoveObservation {
            iter: 1,
            fraction: 0.5
        }])
        .is_none());
        // Increasing fractions: not a decay.
        let rising: Vec<MoveObservation> = (1..=5)
            .map(|iter| MoveObservation {
                iter,
                fraction: 0.1 * iter as f64,
            })
            .collect();
        assert!(fit_decay(&rising).is_none());
        // Zeros are skipped.
        let with_zeros = [
            MoveObservation {
                iter: 1,
                fraction: 0.9,
            },
            MoveObservation {
                iter: 2,
                fraction: 0.0,
            },
            MoveObservation {
                iter: 3,
                fraction: 0.3,
            },
        ];
        assert!(fit_decay(&with_zeros).is_some());
    }
}
