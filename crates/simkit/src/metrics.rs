//! Energy-efficiency metrics: response time, performance, energy, the
//! Energy-Delay-Product (EDP), and the normalized energy-vs-performance
//! points that every figure in the paper plots.
//!
//! The paper's convention (Section 1):
//!
//! * *performance* is the inverse of the query response time,
//! * *energy* is the total cluster energy for the query,
//! * every cluster design point is plotted as a pair of ratios relative to a
//!   reference configuration (the largest, or all-Beefy, cluster):
//!   `normalized performance = T_ref / T` and
//!   `normalized energy = E / E_ref`,
//! * the dotted *constant-EDP* curve marks the points where an `x%` loss in
//!   performance buys exactly an `x%` drop in energy
//!   (`E·T = E_ref·T_ref ⇔ normalized energy = normalized performance`);
//!   points **below** that curve trade proportionally less performance for
//!   more energy savings and are the interesting design points.

use crate::error::SimError;
use crate::units::{Joules, Seconds};
use std::fmt;

/// Tolerance used when classifying points against the constant-EDP curve
/// and when holding a point to a performance floor (`eedc-core`'s
/// `RunSeries::recommend`).
pub const EDP_EPSILON: f64 = 1e-9;

/// One measured (or modeled) execution: the query response time and the total
/// cluster energy it consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Query response time.
    pub response_time: Seconds,
    /// Total cluster energy.
    pub energy: Joules,
}

impl Measurement {
    /// Construct a measurement.
    pub fn new(response_time: Seconds, energy: Joules) -> Self {
        Self {
            response_time,
            energy,
        }
    }

    /// Performance, defined as the inverse of the response time.
    pub fn performance(&self) -> f64 {
        if self.response_time.value() <= f64::EPSILON {
            f64::INFINITY
        } else {
            1.0 / self.response_time.value()
        }
    }

    /// The Energy-Delay Product in joule·seconds.
    pub fn edp(&self) -> f64 {
        self.energy.value() * self.response_time.value()
    }

    /// Normalize this measurement against a reference measurement, producing
    /// the (performance ratio, energy ratio) pair the paper plots.
    pub fn normalized_against(&self, reference: &Measurement) -> Result<NormalizedPoint, SimError> {
        if reference.response_time.value() <= 0.0 || reference.energy.value() <= 0.0 {
            return Err(SimError::invalid(
                "reference measurement must have positive response time and energy",
            ));
        }
        if self.response_time.value() <= 0.0 || self.energy.value() < 0.0 {
            return Err(SimError::invalid(
                "measurement must have positive response time and non-negative energy",
            ));
        }
        Ok(NormalizedPoint {
            performance: reference.response_time.value() / self.response_time.value(),
            energy: self.energy.value() / reference.energy.value(),
        })
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} s / {:.1} J",
            self.response_time.value(),
            self.energy.value()
        )
    }
}

/// A design point expressed relative to a reference configuration, exactly as
/// plotted in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedPoint {
    /// `T_ref / T`: 1.0 means as fast as the reference, 0.5 means twice as
    /// slow.
    pub performance: f64,
    /// `E / E_ref`: 1.0 means the same energy as the reference, 0.5 means half
    /// the energy.
    pub energy: f64,
}

impl NormalizedPoint {
    /// The reference point itself: performance 1.0, energy 1.0.
    pub fn reference() -> Self {
        Self {
            performance: 1.0,
            energy: 1.0,
        }
    }

    /// Normalized EDP relative to the reference: `(E/E_ref)·(T/T_ref)`,
    /// i.e. `energy / performance`. The constant-EDP curve is the set of
    /// points where this equals 1.
    pub fn edp_ratio(&self) -> f64 {
        if self.performance <= f64::EPSILON {
            f64::INFINITY
        } else {
            self.energy / self.performance
        }
    }

    /// Whether the point lies strictly below the constant-EDP curve — the
    /// favourable region where the relative energy saving exceeds the relative
    /// performance loss.
    pub fn is_below_edp(&self) -> bool {
        self.energy + EDP_EPSILON < self.performance
    }

    /// Whether the point lies strictly above the constant-EDP curve — the
    /// unfavourable region where more performance is given up than energy is
    /// saved.
    pub fn is_above_edp(&self) -> bool {
        self.energy > self.performance + EDP_EPSILON
    }
}

impl fmt::Display for NormalizedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "perf {:.3}, energy {:.3} ({})",
            self.performance,
            self.energy,
            if self.is_below_edp() {
                "below EDP"
            } else if self.is_above_edp() {
                "above EDP"
            } else {
                "on EDP"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(t: f64, e: f64) -> Measurement {
        Measurement::new(Seconds(t), Joules(e))
    }

    #[test]
    fn performance_is_inverse_response_time() {
        let m = measurement(4.0, 100.0);
        assert!((m.performance() - 0.25).abs() < 1e-12);
        assert_eq!(m.edp(), 400.0);
    }

    #[test]
    fn normalization_matches_paper_convention() {
        // Reference: 16 nodes, 100 s, 10 kJ. Smaller cluster: 150 s, 8 kJ.
        let reference = measurement(100.0, 10_000.0);
        let smaller = measurement(150.0, 8_000.0);
        let p = smaller.normalized_against(&reference).unwrap();
        assert!((p.performance - 100.0 / 150.0).abs() < 1e-12);
        assert!((p.energy - 0.8).abs() < 1e-12);
        // 33% slower for 20% energy saving → above the EDP curve.
        assert!(p.is_above_edp());
        assert!(!p.is_below_edp());
    }

    #[test]
    fn figure_1a_10n_point_is_above_edp() {
        // "the 10 node configuration pays a 24% penalty in performance for a
        // 16% decrease in energy consumption over the 16N case".
        let p = NormalizedPoint {
            performance: 0.76,
            energy: 0.84,
        };
        assert!(p.is_above_edp());
        assert!((p.edp_ratio() - 0.84 / 0.76).abs() < 1e-12);
    }

    #[test]
    fn figure_1b_heterogeneous_point_is_below_edp() {
        // Heterogeneous designs in Figure 1(b) save proportionally more energy
        // than they lose in performance.
        let p = NormalizedPoint {
            performance: 0.9,
            energy: 0.55,
        };
        assert!(p.is_below_edp());
        assert!(p.edp_ratio() < 1.0);
    }

    #[test]
    fn constant_edp_point_is_neither_above_nor_below() {
        let p = NormalizedPoint {
            performance: 0.7,
            energy: 0.7,
        };
        assert!(!p.is_below_edp());
        assert!(!p.is_above_edp());
        assert!((p.edp_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_rejects_degenerate_reference() {
        let zero_t = measurement(0.0, 100.0);
        let zero_e = measurement(10.0, 0.0);
        let ok = measurement(10.0, 100.0);
        assert!(ok.normalized_against(&zero_t).is_err());
        assert!(ok.normalized_against(&zero_e).is_err());
        assert!(zero_t.normalized_against(&ok).is_err());
    }

    #[test]
    fn display_formats() {
        let m = measurement(12.345, 678.9);
        assert!(m.to_string().contains("12.35 s"));
        let p = NormalizedPoint {
            performance: 0.9,
            energy: 0.5,
        };
        assert!(p.to_string().contains("below EDP"));
    }
}
