//! Node power models mapping CPU utilization to wall power.
//!
//! The paper derives per-node "SysPower" models by loading a node with a
//! calibrated CPU-bound hash-join kernel at controlled utilization levels and
//! regressing the measured wall power against utilization. Table 1 gives the
//! Cluster-V model `130.03 · C^0.2369` (with `C` the CPU utilization in
//! percent), Table 3 gives the Beefy and Wimpy models
//! `f_B(c) = 130.03 · (100c)^0.2369` and `f_W(c) = 10.994 · (100c)^0.2875`,
//! and Section 5.3.1 uses `79.006 · (100c)^0.2451` for the L5630-based Beefy
//! prototype. This module implements those model families (power-law, linear,
//! exponential, logarithmic) together with least-squares fitting and an
//! `R²`-based model selection mirroring the paper's methodology ("we explored
//! exponential, power, and logarithmic regression models, and picked the one
//! with the best R² value").

use crate::error::SimError;
use crate::units::Watts;

/// A single calibration measurement: CPU utilization (fraction in `[0, 1]`)
/// and the measured wall power at that utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// CPU utilization as a fraction in `[0, 1]`.
    pub utilization: f64,
    /// Measured wall power in watts.
    pub power: Watts,
}

impl PowerSample {
    /// Construct a new sample.
    pub fn new(utilization: f64, power_w: f64) -> Self {
        Self {
            utilization,
            power: Watts(power_w),
        }
    }
}

/// A regression model mapping CPU utilization (fraction in `[0, 1]`) to wall
/// power in watts.
///
/// All variants clamp the utilization argument into `[0, 1]` before
/// evaluating, matching how the paper's models are used (utilization is a
/// physical fraction; the engine constants `G_B`/`G_W` keep it strictly
/// positive during query execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerModel {
    /// `p(c) = coefficient · (100·c)^exponent` — the form published in the paper.
    PowerLaw {
        /// Multiplicative coefficient (watts).
        coefficient: f64,
        /// Exponent applied to the utilization percentage.
        exponent: f64,
    },
    /// `p(c) = idle + slope · c` — a linear (energy-proportional) model.
    Linear {
        /// Idle power at zero utilization (watts).
        idle: f64,
        /// Additional watts per unit utilization.
        slope: f64,
    },
    /// `p(c) = scale · exp(rate · c)` — an exponential model.
    Exponential {
        /// Power at zero utilization (watts).
        scale: f64,
        /// Exponential growth rate per unit utilization.
        rate: f64,
    },
    /// `p(c) = intercept + coefficient · ln(100·c + 1)` — a logarithmic model.
    Logarithmic {
        /// Intercept power (watts).
        intercept: f64,
        /// Coefficient of the logarithmic term.
        coefficient: f64,
    },
    /// A constant power draw regardless of utilization (useful for idle floors
    /// and non-CPU components).
    Constant {
        /// The constant power (watts).
        power: f64,
    },
}

impl PowerModel {
    /// The paper's published power-law form `a · (100c)^b`.
    pub fn power_law(coefficient: f64, exponent: f64) -> Self {
        PowerModel::PowerLaw {
            coefficient,
            exponent,
        }
    }

    /// A linear model `idle + slope·c`.
    pub fn linear(idle: f64, slope: f64) -> Self {
        PowerModel::Linear { idle, slope }
    }

    /// A constant model.
    pub fn constant(power: f64) -> Self {
        PowerModel::Constant { power }
    }

    /// Evaluate the model at a CPU utilization fraction, clamped to `[0, 1]`.
    pub fn power_at(&self, utilization: f64) -> Watts {
        let c = utilization.clamp(0.0, 1.0);
        let w = match *self {
            PowerModel::PowerLaw {
                coefficient,
                exponent,
            } => coefficient * (100.0 * c).powf(exponent),
            PowerModel::Linear { idle, slope } => idle + slope * c,
            PowerModel::Exponential { scale, rate } => scale * (rate * c).exp(),
            PowerModel::Logarithmic {
                intercept,
                coefficient,
            } => intercept + coefficient * (100.0 * c + 1.0).ln(),
            PowerModel::Constant { power } => power,
        };
        Watts(w.max(0.0))
    }

    /// Power at full (100%) utilization.
    pub fn peak_power(&self) -> Watts {
        self.power_at(1.0)
    }

    /// Power at 1% utilization — the paper's power-law models evaluate to their
    /// coefficient there, which is a useful proxy for near-idle power.
    pub fn near_idle_power(&self) -> Watts {
        self.power_at(0.01)
    }
}

/// The outcome of a regression fit: the fitted model and its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// The fitted model.
    pub model: PowerModel,
    /// Coefficient of determination (R²) of the fit in the original
    /// (utilization, watts) space.
    pub r_squared: f64,
}

fn validate_samples(samples: &[PowerSample], need_positive_power: bool) -> Result<(), SimError> {
    if samples.len() < 2 {
        return Err(SimError::fit(format!(
            "need at least 2 samples, got {}",
            samples.len()
        )));
    }
    for s in samples {
        if !(0.0..=1.0).contains(&s.utilization) {
            return Err(SimError::invalid(format!(
                "utilization {} outside [0, 1]",
                s.utilization
            )));
        }
        if !s.power.value().is_finite() || s.power.value() < 0.0 {
            return Err(SimError::invalid(format!(
                "power {} is not a finite non-negative value",
                s.power.value()
            )));
        }
        if need_positive_power && s.power.value() <= 0.0 {
            return Err(SimError::fit(
                "power-law/exponential fits require strictly positive power samples",
            ));
        }
    }
    let first = samples[0].utilization;
    if samples
        .iter()
        .all(|s| (s.utilization - first).abs() < 1e-12)
    {
        return Err(SimError::fit("all samples share the same utilization"));
    }
    Ok(())
}

/// Ordinary least-squares fit of `y = a + b·x` returning `(a, b)`.
fn ols(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    let slope = if sxx.abs() < f64::EPSILON {
        0.0
    } else {
        sxy / sxx
    };
    let intercept = mean_y - slope * mean_x;
    (intercept, slope)
}

/// R² of `model` against `samples` in the original (utilization, watts) space.
pub fn r_squared(model: &PowerModel, samples: &[PowerSample]) -> f64 {
    let n = samples.len() as f64;
    if n < 1.0 {
        return 0.0;
    }
    let mean = samples.iter().map(|s| s.power.value()).sum::<f64>() / n;
    let ss_tot: f64 = samples
        .iter()
        .map(|s| (s.power.value() - mean).powi(2))
        .sum();
    let ss_res: f64 = samples
        .iter()
        .map(|s| (s.power.value() - model.power_at(s.utilization).value()).powi(2))
        .sum();
    if ss_tot.abs() < f64::EPSILON {
        // All samples equal: a perfect constant fit, else zero.
        return if ss_res.abs() < 1e-9 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Fit the paper's power-law form `p = a · (100c)^b` by linear regression in
/// log–log space.
pub fn fit_power_law(samples: &[PowerSample]) -> Result<FitReport, SimError> {
    validate_samples(samples, true)?;
    let filtered: Vec<&PowerSample> = samples.iter().filter(|s| s.utilization > 0.0).collect();
    if filtered.len() < 2 {
        return Err(SimError::fit(
            "power-law fit requires at least 2 samples with non-zero utilization",
        ));
    }
    let xs: Vec<f64> = filtered
        .iter()
        .map(|s| (100.0 * s.utilization).ln())
        .collect();
    let ys: Vec<f64> = filtered.iter().map(|s| s.power.value().ln()).collect();
    let (intercept, slope) = ols(&xs, &ys);
    let model = PowerModel::PowerLaw {
        coefficient: intercept.exp(),
        exponent: slope,
    };
    Ok(FitReport {
        model,
        r_squared: r_squared(&model, samples),
    })
}

/// Fit a linear model `p = idle + slope·c`.
pub fn fit_linear(samples: &[PowerSample]) -> Result<FitReport, SimError> {
    validate_samples(samples, false)?;
    let xs: Vec<f64> = samples.iter().map(|s| s.utilization).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.power.value()).collect();
    let (idle, slope) = ols(&xs, &ys);
    let model = PowerModel::Linear { idle, slope };
    Ok(FitReport {
        model,
        r_squared: r_squared(&model, samples),
    })
}

/// Fit an exponential model `p = scale · exp(rate·c)` by regression in
/// semi-log space.
pub fn fit_exponential(samples: &[PowerSample]) -> Result<FitReport, SimError> {
    validate_samples(samples, true)?;
    let xs: Vec<f64> = samples.iter().map(|s| s.utilization).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.power.value().ln()).collect();
    let (log_scale, rate) = ols(&xs, &ys);
    let model = PowerModel::Exponential {
        scale: log_scale.exp(),
        rate,
    };
    Ok(FitReport {
        model,
        r_squared: r_squared(&model, samples),
    })
}

/// Fit a logarithmic model `p = intercept + coefficient · ln(100c + 1)`.
pub fn fit_logarithmic(samples: &[PowerSample]) -> Result<FitReport, SimError> {
    validate_samples(samples, false)?;
    let xs: Vec<f64> = samples
        .iter()
        .map(|s| (100.0 * s.utilization + 1.0).ln())
        .collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.power.value()).collect();
    let (intercept, coefficient) = ols(&xs, &ys);
    let model = PowerModel::Logarithmic {
        intercept,
        coefficient,
    };
    Ok(FitReport {
        model,
        r_squared: r_squared(&model, samples),
    })
}

/// Fit all candidate model families and return the one with the best R²,
/// replicating the paper's model-selection procedure.
pub fn fit_best(samples: &[PowerSample]) -> Result<FitReport, SimError> {
    let mut best: Option<FitReport> = None;
    let candidates = [
        fit_power_law(samples),
        fit_linear(samples),
        fit_exponential(samples),
        fit_logarithmic(samples),
    ];
    for candidate in candidates.into_iter().flatten() {
        best = match best {
            Some(current) if current.r_squared >= candidate.r_squared => Some(current),
            _ => Some(candidate),
        };
    }
    best.ok_or_else(|| SimError::fit("no model family could be fitted to the samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Cluster-V / Beefy model published in Tables 1 and 3.
    fn beefy() -> PowerModel {
        PowerModel::power_law(130.03, 0.2369)
    }

    /// The Wimpy (Laptop B) model published in Table 3.
    fn wimpy() -> PowerModel {
        PowerModel::power_law(10.994, 0.2875)
    }

    #[test]
    fn paper_beefy_model_values() {
        // At 1% utilization the power-law evaluates to its coefficient.
        let near_idle = beefy().power_at(0.01).value();
        assert!((near_idle - 130.03).abs() < 1e-9);
        // At 100% utilization: 130.03 * 100^0.2369 ≈ 387 W.
        let peak = beefy().peak_power().value();
        assert!((peak - 387.0).abs() < 5.0, "peak {peak}");
    }

    #[test]
    fn paper_wimpy_model_values() {
        let peak = wimpy().peak_power().value();
        // ≈ 41 W at full load; the paper reports ~37 W average laptop power
        // during the prototype runs (not fully loaded).
        assert!((peak - 41.3).abs() < 1.0, "peak {peak}");
        assert!(wimpy().power_at(0.5).value() < peak);
    }

    #[test]
    fn wimpy_draws_roughly_a_tenth_of_beefy() {
        // Figure 10(a): "a Wimpy node power footprint is almost 10% of the
        // Beefy node power footprint".
        let ratio = wimpy().peak_power().value() / beefy().peak_power().value();
        assert!(ratio > 0.05 && ratio < 0.15, "ratio {ratio}");
    }

    #[test]
    fn power_is_monotonic_in_utilization() {
        for model in [
            beefy(),
            wimpy(),
            PowerModel::linear(50.0, 100.0),
            PowerModel::Exponential {
                scale: 50.0,
                rate: 1.0,
            },
            PowerModel::Logarithmic {
                intercept: 20.0,
                coefficient: 10.0,
            },
        ] {
            let mut prev = model.power_at(0.0).value();
            for i in 1..=100 {
                let cur = model.power_at(i as f64 / 100.0).value();
                assert!(cur + 1e-9 >= prev, "{model:?} not monotonic at {i}");
                prev = cur;
            }
        }
    }

    #[test]
    fn utilization_is_clamped() {
        assert_eq!(beefy().power_at(1.5), beefy().power_at(1.0));
        assert_eq!(beefy().power_at(-0.5), beefy().power_at(0.0));
    }

    #[test]
    fn constant_model_ignores_utilization() {
        let m = PowerModel::constant(42.0);
        assert_eq!(m.power_at(0.0), Watts(42.0));
        assert_eq!(m.power_at(1.0), Watts(42.0));
        assert_eq!(m.peak_power(), m.near_idle_power());
    }

    fn synth_samples(model: &PowerModel, n: usize) -> Vec<PowerSample> {
        (1..=n)
            .map(|i| {
                let u = i as f64 / n as f64;
                PowerSample::new(u, model.power_at(u).value())
            })
            .collect()
    }

    #[test]
    fn power_law_fit_recovers_parameters() {
        let truth = beefy();
        let samples = synth_samples(&truth, 20);
        let fit = fit_power_law(&samples).unwrap();
        match fit.model {
            PowerModel::PowerLaw {
                coefficient,
                exponent,
            } => {
                assert!((coefficient - 130.03).abs() < 0.5, "coeff {coefficient}");
                assert!((exponent - 0.2369).abs() < 0.01, "exp {exponent}");
            }
            other => panic!("expected power law, got {other:?}"),
        }
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn linear_fit_recovers_parameters() {
        let truth = PowerModel::linear(69.0, 85.0);
        let samples = synth_samples(&truth, 10);
        let fit = fit_linear(&samples).unwrap();
        match fit.model {
            PowerModel::Linear { idle, slope } => {
                assert!((idle - 69.0).abs() < 1e-6);
                assert!((slope - 85.0).abs() < 1e-6);
            }
            other => panic!("expected linear, got {other:?}"),
        }
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn exponential_and_logarithmic_fits_recover_parameters() {
        let truth = PowerModel::Exponential {
            scale: 30.0,
            rate: 1.2,
        };
        let fit = fit_exponential(&synth_samples(&truth, 15)).unwrap();
        assert!(fit.r_squared > 0.999);

        let truth = PowerModel::Logarithmic {
            intercept: 12.0,
            coefficient: 6.0,
        };
        let fit = fit_logarithmic(&synth_samples(&truth, 15)).unwrap();
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn best_fit_selects_the_generating_family() {
        let truth = beefy();
        let best = fit_best(&synth_samples(&truth, 25)).unwrap();
        assert!(best.r_squared > 0.999);
        // The selected model must reproduce the truth closely at every point.
        for i in 1..=20 {
            let u = i as f64 / 20.0;
            let err = (best.model.power_at(u).value() - truth.power_at(u).value()).abs()
                / truth.power_at(u).value();
            assert!(err < 0.02, "relative error {err} at u={u}");
        }
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(fit_power_law(&[PowerSample::new(0.5, 100.0)]).is_err());
        let same_util = vec![PowerSample::new(0.5, 100.0), PowerSample::new(0.5, 120.0)];
        assert!(fit_linear(&same_util).is_err());
        let bad_util = vec![PowerSample::new(-0.5, 100.0), PowerSample::new(0.7, 120.0)];
        assert!(fit_linear(&bad_util).is_err());
        let zero_power = vec![PowerSample::new(0.2, 0.0), PowerSample::new(0.7, 120.0)];
        assert!(fit_power_law(&zero_power).is_err());
        assert!(fit_exponential(&zero_power).is_err());
    }

    #[test]
    fn dynamic_range_matches_paper_intuition() {
        // Dynamic range: peak power over near-idle power. Energy-proportional
        // hardware has a large one; the paper's Beefy servers manage ~3x,
        // which is why under-utilized nodes waste so much energy.
        let range = |m: PowerModel| m.peak_power().value() / m.near_idle_power().value();
        let beefy_range = range(beefy());
        assert!(beefy_range > 2.0 && beefy_range < 4.0, "{beefy_range}");
        // Wimpy laptop: similar shape but far lower absolute power.
        let wimpy_range = range(wimpy());
        assert!(wimpy_range > 2.0 && wimpy_range < 5.0, "{wimpy_range}");
    }

    #[test]
    fn r_squared_of_constant_data() {
        let samples = vec![PowerSample::new(0.1, 50.0), PowerSample::new(0.9, 50.0)];
        assert_eq!(r_squared(&PowerModel::constant(50.0), &samples), 1.0);
        assert_eq!(r_squared(&PowerModel::constant(10.0), &samples), 0.0);
    }
}
