//! One node's CPU-utilization signal over time.
//!
//! The paper converts measured CPU utilization into wall power through the
//! per-node regression models and then integrates power over the query's
//! response time to obtain energy. A [`UtilizationSignal`] is the simulated
//! analogue of the iLO2 / WattsUp measurement stream: a piecewise-constant
//! utilization-over-time signal that can be integrated against any
//! [`PowerModel`]. (The cluster-wide per-node, per-phase `UtilizationTrace`
//! is `eedc_dbmsim::trace`; its `node_cpu_trace` lowers one row to this
//! signal.)

use crate::error::SimError;
use crate::power::PowerModel;
use crate::units::{Joules, Seconds, Watts};

/// A single segment of a trace: the node ran at `utilization` for `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Length of the segment.
    pub duration: Seconds,
    /// CPU utilization fraction in `[0, 1]` during the segment.
    pub utilization: f64,
}

/// A piecewise-constant CPU-utilization signal over time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationSignal {
    segments: Vec<TraceSegment>,
}

impl UtilizationSignal {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace consisting of a single segment.
    pub fn constant(duration: Seconds, utilization: f64) -> Result<Self, SimError> {
        let mut trace = Self::new();
        trace.push(duration, utilization)?;
        Ok(trace)
    }

    /// Append a segment to the end of the trace.
    pub fn push(&mut self, duration: Seconds, utilization: f64) -> Result<(), SimError> {
        if !duration.is_finite() || duration.value() < 0.0 {
            return Err(SimError::invalid(format!(
                "segment duration must be non-negative and finite, got {}",
                duration.value()
            )));
        }
        if !(0.0..=1.0).contains(&utilization) {
            return Err(SimError::invalid(format!(
                "utilization {utilization} outside [0, 1]"
            )));
        }
        if duration.value() > 0.0 {
            self.segments.push(TraceSegment {
                duration,
                utilization,
            });
        }
        Ok(())
    }

    /// Append every segment of `other` to this trace.
    pub fn extend(&mut self, other: &UtilizationSignal) {
        self.segments.extend_from_slice(&other.segments);
    }

    /// The segments of the trace in time order.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the trace has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total duration covered by the trace.
    pub fn total_time(&self) -> Seconds {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Time-weighted average utilization over the trace (0 for an empty trace).
    pub fn average_utilization(&self) -> f64 {
        let total = self.total_time().value();
        if total <= f64::EPSILON {
            return 0.0;
        }
        self.segments
            .iter()
            .map(|s| s.utilization * s.duration.value())
            .sum::<f64>()
            / total
    }

    /// Integrate the trace against a power model to obtain the energy consumed
    /// by the node over the trace (the simulated analogue of a WattsUp meter
    /// reading).
    pub fn energy_with(&self, model: &PowerModel) -> Joules {
        self.segments
            .iter()
            .map(|s| model.power_at(s.utilization) * s.duration)
            .sum()
    }

    /// Time-weighted average power against a model (0 W for an empty trace).
    pub fn average_power_with(&self, model: &PowerModel) -> Watts {
        let total = self.total_time();
        if total.value() <= f64::EPSILON {
            return Watts::zero();
        }
        self.energy_with(model) / total
    }

    /// Sampled utilization at an offset from the start of the trace, mirroring
    /// a 1 Hz power-meter readout. Returns `None` past the end of the trace.
    pub fn utilization_at(&self, offset: Seconds) -> Option<f64> {
        if offset.value() < 0.0 {
            return None;
        }
        let mut elapsed = 0.0;
        for segment in &self.segments {
            elapsed += segment.duration.value();
            if offset.value() < elapsed {
                return Some(segment.utilization);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beefy() -> PowerModel {
        PowerModel::power_law(130.03, 0.2369)
    }

    #[test]
    fn constant_trace_energy_matches_closed_form() {
        let trace = UtilizationSignal::constant(Seconds(10.0), 0.5).unwrap();
        let expected = beefy().power_at(0.5) * Seconds(10.0);
        assert_eq!(trace.energy_with(&beefy()), expected);
        assert_eq!(trace.total_time(), Seconds(10.0));
        assert!((trace.average_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multi_segment_energy_is_additive() {
        let mut trace = UtilizationSignal::new();
        trace.push(Seconds(5.0), 1.0).unwrap();
        trace.push(Seconds(5.0), 0.25).unwrap();
        let expected = beefy().power_at(1.0) * Seconds(5.0) + beefy().power_at(0.25) * Seconds(5.0);
        let got = trace.energy_with(&beefy());
        assert!((got.value() - expected.value()).abs() < 1e-9);
        // Average utilization is the time-weighted mean.
        assert!((trace.average_utilization() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn average_power_is_energy_over_time() {
        let mut trace = UtilizationSignal::new();
        trace.push(Seconds(2.0), 0.8).unwrap();
        trace.push(Seconds(8.0), 0.1).unwrap();
        let avg = trace.average_power_with(&beefy());
        let manual = trace.energy_with(&beefy()) / trace.total_time();
        assert!((avg.value() - manual.value()).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_segments_are_dropped() {
        let mut trace = UtilizationSignal::new();
        trace.push(Seconds(0.0), 0.5).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.average_utilization(), 0.0);
        assert_eq!(trace.average_power_with(&beefy()), Watts::zero());
    }

    #[test]
    fn invalid_segments_are_rejected() {
        let mut trace = UtilizationSignal::new();
        assert!(trace.push(Seconds(-1.0), 0.5).is_err());
        assert!(trace.push(Seconds(1.0), 1.5).is_err());
        assert!(trace.push(Seconds(f64::NAN), 0.5).is_err());
        assert!(UtilizationSignal::constant(Seconds(1.0), -0.1).is_err());
    }

    #[test]
    fn extend_concatenates_traces() {
        let mut a = UtilizationSignal::constant(Seconds(1.0), 0.2).unwrap();
        let b = UtilizationSignal::constant(Seconds(2.0), 0.8).unwrap();
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_time(), Seconds(3.0));
    }

    #[test]
    fn utilization_sampling() {
        let mut trace = UtilizationSignal::new();
        trace.push(Seconds(2.0), 0.3).unwrap();
        trace.push(Seconds(3.0), 0.9).unwrap();
        assert_eq!(trace.utilization_at(Seconds(0.5)), Some(0.3));
        assert_eq!(trace.utilization_at(Seconds(2.5)), Some(0.9));
        assert_eq!(trace.utilization_at(Seconds(5.5)), None);
        assert_eq!(trace.utilization_at(Seconds(-1.0)), None);
    }
}
