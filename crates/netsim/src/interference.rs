//! Switch interference models.
//!
//! Section 4.1 of the paper notes that "an increase in network traffic on the
//! cluster switches causes interference and further delays in communication".
//! At the flow level we model this as a multiplicative *efficiency factor* on
//! every port capacity that degrades as the number of concurrently active
//! flows grows: with `k` concurrent flows every port delivers
//! `capacity · factor(k)` instead of its nominal capacity.

/// How concurrent flows through the shared switch degrade effective port
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InterferenceModel {
    /// An ideal, non-blocking switch: no degradation.
    #[default]
    None,
    /// A fixed efficiency factor applied regardless of load (e.g. 0.95 to
    /// model protocol overhead).
    Constant {
        /// Efficiency in `(0, 1]`.
        efficiency: f64,
    },
    /// Efficiency degrades hyperbolically with concurrency:
    /// `factor(k) = 1 / (1 + alpha · (k - 1))`. With `alpha = 0` this is a
    /// perfect switch; with `alpha = 0.02` sixteen concurrent flows lose ~23%
    /// of the port capacity.
    PerFlow {
        /// Marginal degradation per additional concurrent flow.
        alpha: f64,
    },
}

impl InterferenceModel {
    /// The effective capacity multiplier when `concurrent_flows` flows are
    /// simultaneously active. Always in `(0, 1]`; zero or one active flows
    /// never degrade.
    pub fn factor(&self, concurrent_flows: usize) -> f64 {
        if concurrent_flows <= 1 {
            return match *self {
                InterferenceModel::Constant { efficiency } => {
                    efficiency.clamp(f64::MIN_POSITIVE, 1.0)
                }
                _ => 1.0,
            };
        }
        match *self {
            InterferenceModel::None => 1.0,
            InterferenceModel::Constant { efficiency } => efficiency.clamp(f64::MIN_POSITIVE, 1.0),
            InterferenceModel::PerFlow { alpha } => {
                let alpha = alpha.max(0.0);
                1.0 / (1.0 + alpha * (concurrent_flows as f64 - 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_interference_is_unity() {
        let m = InterferenceModel::None;
        assert_eq!(m.factor(0), 1.0);
        assert_eq!(m.factor(1), 1.0);
        assert_eq!(m.factor(64), 1.0);
        assert_eq!(InterferenceModel::default(), InterferenceModel::None);
    }

    #[test]
    fn constant_efficiency_applies_at_any_load() {
        let m = InterferenceModel::Constant { efficiency: 0.9 };
        assert!((m.factor(1) - 0.9).abs() < 1e-12);
        assert!((m.factor(10) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn per_flow_degradation_grows_with_concurrency() {
        let m = InterferenceModel::PerFlow { alpha: 0.02 };
        assert_eq!(m.factor(1), 1.0);
        let f2 = m.factor(2);
        let f16 = m.factor(16);
        assert!(f2 < 1.0 && f16 < f2);
        assert!((f16 - 1.0 / 1.3).abs() < 1e-9);
    }

    #[test]
    fn pathological_parameters_are_clamped() {
        let m = InterferenceModel::PerFlow { alpha: -1.0 };
        assert_eq!(m.factor(10), 1.0);
        let m = InterferenceModel::Constant { efficiency: 2.0 };
        assert_eq!(m.factor(10), 1.0);
    }
}
