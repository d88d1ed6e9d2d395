use super::engine::Engine;
use super::error::MonitorError;
use super::ingest::StalenessPolicy;
use super::key::DeviceKey;
use super::monitor::{DetectorFactory, Monitor};
use anomaly_core::Params;
use anomaly_detectors::{DeviceDetector, EwmaDetector, VectorDetector};
use anomaly_qos::{NormKind, QosSpace};

/// Maximum representable fleet size: dense device ids are `u32`, so a
/// population beyond this cannot be indexed without wrapping.
pub const MAX_FLEET: u64 = u32::MAX as u64;

/// Configures and validates a [`Monitor`].
///
/// Every knob has a production-sensible default (the paper's operating
/// point, one service, EWMA detectors), so the minimal happy path is three
/// lines:
///
/// ```
/// use anomaly_characterization::pipeline::MonitorBuilder;
///
/// let monitor = MonitorBuilder::new().fleet(100).build()?;
/// assert_eq!(monitor.population(), 100);
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
///
/// All validation happens in [`MonitorBuilder::build`], which returns a
/// typed [`MonitorError`] instead of panicking.
pub struct MonitorBuilder {
    radius: f64,
    tau: usize,
    services: usize,
    norm: NormKind,
    factory: Option<DetectorFactory>,
    capacity: usize,
    max_population: u64,
    staleness: StalenessPolicy,
    epoch_start: Option<u64>,
    history: usize,
    debounce: u64,
    initial: Vec<DeviceKey>,
}

impl std::fmt::Debug for MonitorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorBuilder")
            .field("radius", &self.radius)
            .field("tau", &self.tau)
            .field("services", &self.services)
            .field("norm", &self.norm)
            .field("custom_factory", &self.factory.is_some())
            .field("capacity", &self.capacity)
            .field("max_population", &self.max_population)
            .field("staleness", &self.staleness)
            .field("epoch_start", &self.epoch_start)
            .field("history", &self.history)
            .field("debounce", &self.debounce)
            .field("initial_devices", &self.initial.len())
            .finish()
    }
}

impl Default for MonitorBuilder {
    fn default() -> Self {
        MonitorBuilder::new()
    }
}

impl MonitorBuilder {
    /// Starts from the paper's operating point: `r = 0.03`, `τ = 3`, one
    /// service, uniform norm, EWMA detectors, empty fleet.
    pub fn new() -> Self {
        MonitorBuilder {
            radius: 0.03,
            tau: 3,
            services: 1,
            norm: NormKind::Uniform,
            factory: None,
            capacity: 0,
            max_population: MAX_FLEET,
            staleness: StalenessPolicy::Reject,
            epoch_start: None,
            history: 16,
            debounce: 0,
            initial: Vec::new(),
        }
    }

    /// Capacity of the monitor's bounded history rings: the last `window`
    /// sealed-epoch [`ReportSummary`](super::ReportSummary)s
    /// ([`Monitor::history`](Monitor::history)) and the last `window`
    /// closed [`AnomalyEvent`](super::AnomalyEvent)s. `0` keeps no
    /// history at all (events are still tracked). Defaults to 16.
    pub fn history(mut self, window: usize) -> Self {
        self.history = window;
        self
    }

    /// Quiet epochs an open anomaly event absorbs before it is closed: a
    /// device flapping in and out of its anomaly within `debounce` epochs
    /// stays one event instead of fragmenting. Defaults to `0` (an event
    /// closes at the first epoch none of its devices is flagged).
    ///
    /// The bound is **inclusive**: an open event survives a gap of up to
    /// exactly `debounce` consecutive quiet epochs, and the closing
    /// decision lands on quiet epoch `debounce + 1` — so `debounce = 1`
    /// absorbs a one-epoch gap and closes after a two-epoch gap.
    /// [`AnomalyEvent::end`](super::AnomalyEvent::end) always records
    /// `last_active + 1`, independent of when the decision lands.
    pub fn debounce(mut self, epochs: u64) -> Self {
        self.debounce = epochs;
        self
    }

    /// How [`Monitor::seal`](Monitor::seal) resolves devices that stayed
    /// silent during an epoch: [`StalenessPolicy::Reject`] (default, the
    /// streaming path is exactly as strict as the batch one),
    /// [`StalenessPolicy::CarryForward`], or [`StalenessPolicy::Default`].
    /// A `Default` row is validated at [`MonitorBuilder::build`] against
    /// the service count and the unit cube.
    pub fn staleness(mut self, policy: StalenessPolicy) -> Self {
        self.staleness = policy;
        self
    }

    /// Starting epoch number: the first sealed epoch reports
    /// [`Report::instant`](super::Report::instant)` == start`. Lets a
    /// monitor resumed from a checkpoint (or aligned with an external
    /// collection clock) keep a continuous instant sequence. Defaults to
    /// `0`.
    ///
    /// Under [`Monitor::restore`](Monitor::restore) an explicit start must
    /// equal the checkpoint's instant ([`MonitorError::CheckpointMismatch`]
    /// otherwise); left unset, the restore adopts the checkpoint's clock.
    pub fn epoch(mut self, start: u64) -> Self {
        self.epoch_start = Some(start);
        self
    }

    /// The explicitly requested starting epoch, if any — read by
    /// [`Monitor::restore`](Monitor::restore) to reconcile the builder's
    /// clock against the checkpoint's.
    pub(super) fn epoch_start(&self) -> Option<u64> {
        self.epoch_start
    }

    /// Accepted for source compatibility and ignored: characterization
    /// always runs on the calling thread, whichever [`Engine`] is named.
    pub fn engine(self, _engine: Engine) -> Self {
        self
    }

    /// Consistency-impact radius `r ∈ [0, 1/4)` (Definition 1). Validated
    /// at [`MonitorBuilder::build`].
    pub fn radius(mut self, r: f64) -> Self {
        self.radius = r;
        self
    }

    /// Density threshold `τ ≥ 1` (Definition 4). Validated at
    /// [`MonitorBuilder::build`].
    pub fn tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }

    /// Both characterization parameters at once.
    pub fn params(mut self, params: Params) -> Self {
        self.radius = params.radius();
        self.tau = params.tau();
        self
    }

    /// Number of services each device consumes (the QoS space dimension
    /// `d`). Must be at least 1.
    pub fn services(mut self, d: usize) -> Self {
        self.services = d;
        self
    }

    /// Norm used for the per-device displacement magnitudes in reports.
    /// The characterization itself always uses the uniform norm, as the
    /// paper's theorems require; on `E = [0,1]^d` all norms are equivalent
    /// (Section III-B), so this is a presentation choice.
    pub fn norm(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// Factory producing the error-detection function of each joining
    /// device. Receives the device's stable key, so heterogeneous fleets
    /// can pick detector families per device class.
    ///
    /// Detectors returned by the factory must report exactly
    /// [`MonitorBuilder::services`] services; [`Monitor::join`] rejects
    /// mismatches with [`MonitorError::ServiceMismatch`].
    pub fn detector_factory<F>(mut self, factory: F) -> Self
    where
        F: Fn(DeviceKey) -> Box<dyn DeviceDetector> + 'static,
    {
        self.factory = Some(Box::new(factory));
        self
    }

    /// Pre-allocates internal structures for an expected fleet size.
    pub fn capacity(mut self, devices: usize) -> Self {
        self.capacity = devices;
        self
    }

    /// Upper bound on the fleet size; joins beyond it return
    /// [`MonitorError::FleetTooLarge`]. Clamped to [`MAX_FLEET`] (the dense
    /// id space is `u32`, and silently wrapping ids was precisely the bug
    /// this API replaces).
    pub fn max_population(mut self, bound: u64) -> Self {
        self.max_population = bound.min(MAX_FLEET);
        self
    }

    /// Enrolls devices by stable key at build time.
    pub fn devices<I, K>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = K>,
        K: Into<DeviceKey>,
    {
        self.initial.extend(keys.into_iter().map(Into::into));
        self
    }

    /// Convenience: enrolls `n` devices keyed `0..n`.
    pub fn fleet(self, n: usize) -> Self {
        self.devices((0..n as u64).map(DeviceKey))
    }

    /// Validates the configuration and constructs the monitor, joining any
    /// initial devices.
    ///
    /// # Errors
    ///
    /// * [`MonitorError::Params`] — invalid `r` or `τ`;
    /// * [`MonitorError::NoServices`] — `services == 0`;
    /// * [`MonitorError::DuplicateDevice`] — repeated initial key;
    /// * [`MonitorError::FleetTooLarge`] — more initial devices than the
    ///   population bound;
    /// * [`MonitorError::ServiceMismatch`] — the factory produced a
    ///   detector with the wrong service count, or the staleness default
    ///   row has the wrong width;
    /// * [`MonitorError::Qos`] — the staleness default row leaves the unit
    ///   cube.
    pub fn build(self) -> Result<Monitor, MonitorError> {
        let params = Params::new(self.radius, self.tau)?;
        if self.services == 0 {
            return Err(MonitorError::NoServices);
        }
        let space = QosSpace::new(self.services)?;
        let services = self.services;
        if let StalenessPolicy::Default(row) = &self.staleness {
            if row.len() != services {
                return Err(MonitorError::ServiceMismatch {
                    expected: services,
                    actual: row.len(),
                });
            }
            space.point(row.clone())?;
        }
        let factory = self.factory.unwrap_or_else(|| {
            Box::new(move |_key| {
                Box::new(VectorDetector::homogeneous(services, || {
                    EwmaDetector::new(0.3, 4.0)
                }))
            })
        });
        let mut monitor = Monitor::from_parts(
            params,
            services,
            self.norm,
            factory,
            space,
            self.capacity,
            self.max_population,
            self.staleness,
            self.epoch_start.unwrap_or(0),
            self.history,
            self.debounce,
        );
        for key in self.initial {
            monitor.join(key)?;
        }
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_core::ParamsError;
    use anomaly_detectors::CusumDetector;

    #[test]
    fn defaults_build_an_empty_paper_point_monitor() {
        let m = MonitorBuilder::new().build().unwrap();
        assert_eq!(m.population(), 0);
        assert_eq!(m.services(), 1);
        assert_eq!(m.params().radius(), 0.03);
        assert_eq!(m.params().tau(), 3);
    }

    #[test]
    fn radius_boundaries_follow_definition_1() {
        // r ∈ [0, 1/4): zero is legal, 1/4 is not, NaN is not.
        assert!(MonitorBuilder::new().radius(0.0).build().is_ok());
        assert!(MonitorBuilder::new().radius(0.2499).build().is_ok());
        for bad in [0.25, 0.3, -0.01, f64::NAN, f64::INFINITY] {
            let err = MonitorBuilder::new().radius(bad).build().unwrap_err();
            assert!(
                matches!(err, MonitorError::Params(ParamsError::InvalidRadius { .. })),
                "radius {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn zero_tau_is_rejected() {
        assert_eq!(
            MonitorBuilder::new().tau(0).build().unwrap_err(),
            MonitorError::Params(ParamsError::ZeroTau)
        );
    }

    #[test]
    fn zero_services_is_rejected() {
        assert_eq!(
            MonitorBuilder::new().services(0).build().unwrap_err(),
            MonitorError::NoServices
        );
    }

    #[test]
    fn duplicate_initial_keys_are_rejected() {
        let err = MonitorBuilder::new()
            .devices([1u64, 2, 1])
            .build()
            .unwrap_err();
        assert_eq!(err, MonitorError::DuplicateDevice { key: DeviceKey(1) });
    }

    #[test]
    fn population_bound_applies_to_initial_fleet() {
        let err = MonitorBuilder::new()
            .max_population(2)
            .fleet(3)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            MonitorError::FleetTooLarge {
                population: 3,
                bound: 2,
            }
        );
        assert!(MonitorBuilder::new()
            .max_population(2)
            .fleet(2)
            .build()
            .is_ok());
    }

    #[test]
    fn bound_is_clamped_to_the_dense_id_space() {
        let m = MonitorBuilder::new()
            .max_population(u64::MAX)
            .build()
            .unwrap();
        assert_eq!(m.max_population(), MAX_FLEET);
    }

    #[test]
    fn factory_service_mismatch_is_rejected() {
        let err = MonitorBuilder::new()
            .services(2)
            .detector_factory(|_| Box::new(CusumDetector::new(0.05, 0.5))) // 1 service
            .fleet(1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            MonitorError::ServiceMismatch {
                expected: 2,
                actual: 1,
            }
        );
    }

    #[test]
    fn staleness_default_row_is_validated_at_build() {
        let err = MonitorBuilder::new()
            .services(2)
            .staleness(StalenessPolicy::Default(vec![0.5]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            MonitorError::ServiceMismatch {
                expected: 2,
                actual: 1,
            }
        );
        let err = MonitorBuilder::new()
            .staleness(StalenessPolicy::Default(vec![1.5]))
            .build()
            .unwrap_err();
        assert!(matches!(err, MonitorError::Qos(_)));
        let m = MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 3 })
            .build()
            .unwrap();
        assert_eq!(m.staleness(), &StalenessPolicy::CarryForward { max_age: 3 });
        // The default policy is the strict one.
        let m = MonitorBuilder::new().build().unwrap();
        assert_eq!(m.staleness(), &StalenessPolicy::Reject);
    }

    #[test]
    fn epoch_start_offsets_the_instant_sequence() {
        let mut m = MonitorBuilder::new().epoch(1000).fleet(2).build().unwrap();
        assert_eq!(m.instant(), 1000);
        let r = m.observe_rows(vec![vec![0.9]; 2]).unwrap();
        assert_eq!(r.instant(), 1000);
        assert_eq!(m.instant(), 1001);
    }

    #[test]
    fn factory_receives_the_stable_key() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        let _m = MonitorBuilder::new()
            .detector_factory(move |key| {
                seen2.borrow_mut().push(key);
                Box::new(EwmaDetector::new(0.3, 4.0))
            })
            .devices([10u64, 20])
            .build()
            .unwrap();
        assert_eq!(*seen.borrow(), vec![DeviceKey(10), DeviceKey(20)]);
    }
}
