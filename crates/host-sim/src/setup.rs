//! Build-time configuration of the simulated host.

use blkio::DeviceId;
use iosched_sim::{BfqConfig, MqDeadlineConfig, SchedKind};
use nvme_sim::{DeviceProfile, FaultConfig};
use simcore::{SimDuration, SimTime};
use workload::{AppModelSpec, JobSpec};

/// Machine-level parameters.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of CPU cores apps are pinned to (round-robin).
    pub cores: usize,
    /// Clock frequency used to convert CPU time to cycles in reports.
    pub cpu_freq_ghz: f64,
    /// RNG seed; same seed → identical run.
    pub seed: u64,
    /// Statistics are recorded from this instant on (warm-up exclusion).
    pub measure_from: SimTime,
    /// Window used for per-app bandwidth time series.
    pub bw_window: SimDuration,
    /// Per-command deadline (the kernel's `/sys/block/*/queue/io_timeout`,
    /// default 30 s there). `None` disables timeout tracking entirely —
    /// the hot path carries zero extra work, which keeps fault-free runs
    /// byte-identical to pre-fault builds.
    pub io_timeout: Option<SimDuration>,
    /// Device attempts beyond the first before a request is failed back
    /// to the app (the kernel's `nvme_max_retries`, default 5 there).
    pub max_retries: u32,
    /// Base delay before re-driving a failed command; doubles per retry
    /// (exponential backoff).
    pub retry_backoff: SimDuration,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            cores: 1,
            cpu_freq_ghz: 2.4, // the paper's Xeon Silver 4210R
            seed: 0x1505_1955,
            measure_from: SimTime::ZERO,
            bw_window: SimDuration::from_millis(100),
            io_timeout: None,
            max_retries: 3,
            retry_backoff: SimDuration::from_micros(100),
        }
    }
}

impl HostConfig {
    /// Convenience: the paper's 10-core configuration (§V, Fig. 4).
    #[must_use]
    pub fn with_cores(cores: usize) -> Self {
        HostConfig {
            cores,
            ..HostConfig::default()
        }
    }
}

/// One application to run: its job spec and the device list it issues to
/// (round-robin per request when more than one — the Fig. 4 multi-SSD
/// setup).
#[derive(Debug, Clone)]
pub struct AppSetup {
    /// The fio-like job description.
    pub spec: JobSpec,
    /// Target devices.
    pub devices: Vec<DeviceId>,
    /// Closed-loop application model. `None` (the default) keeps the
    /// app on the open-loop fio-style [`workload::AddressStream`] path;
    /// `Some` replaces stream-driven arrivals with a feedback loop —
    /// the model decides each next op from completions and think time,
    /// and `spec.iodepth()` caps its outstanding window.
    pub model: Option<AppModelSpec>,
}

impl AppSetup {
    /// Creates an open-loop (fio-style) app setup.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    #[must_use]
    pub fn new(spec: JobSpec, devices: Vec<DeviceId>) -> Self {
        assert!(!devices.is_empty(), "an app needs at least one device");
        AppSetup {
            spec,
            devices,
            model: None,
        }
    }

    /// Creates a closed-loop app driven by an application model. The
    /// spec still names the app, pins its active window in time, and
    /// bounds the in-flight window via `iodepth`, which must match the
    /// model's configured window so queue-depth-sensitive paths (deep
    /// submitter accounting) see the true concurrency.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty or `spec.iodepth()` differs from
    /// `model.window()`.
    #[must_use]
    pub fn closed_loop(spec: JobSpec, model: AppModelSpec, devices: Vec<DeviceId>) -> Self {
        assert!(!devices.is_empty(), "an app needs at least one device");
        assert_eq!(
            spec.iodepth(),
            model.window(),
            "spec iodepth must equal the app model window"
        );
        AppSetup {
            spec,
            devices,
            model: Some(model),
        }
    }
}

/// One device to simulate: profile, attached scheduler, preconditioning,
/// and scheduler tunables.
#[derive(Debug, Clone)]
pub struct DeviceSetup {
    /// Performance profile.
    pub profile: DeviceProfile,
    /// Attached I/O scheduler.
    pub scheduler: SchedKind,
    /// Initial GC pressure in `[0, 1]` (the paper preconditions before
    /// write experiments).
    pub precondition: f64,
    /// BFQ tunables (used when `scheduler == SchedKind::Bfq`).
    pub bfq: BfqConfig,
    /// MQ-Deadline tunables.
    pub mq_deadline: MqDeadlineConfig,
    /// Fault injection for this device ([`FaultConfig::none`] = inert).
    pub faults: FaultConfig,
}

impl DeviceSetup {
    /// A flash device with no scheduler (`none`) — the paper's baseline.
    #[must_use]
    pub fn flash() -> Self {
        DeviceSetup {
            profile: DeviceProfile::flash(),
            scheduler: SchedKind::None,
            precondition: 0.0,
            bfq: BfqConfig::default(),
            mq_deadline: MqDeadlineConfig::default(),
            faults: FaultConfig::none(),
        }
    }

    /// An Optane device with no scheduler.
    #[must_use]
    pub fn optane() -> Self {
        DeviceSetup {
            profile: DeviceProfile::optane(),
            ..DeviceSetup::flash()
        }
    }

    /// Sets the scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, kind: SchedKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets initial GC pressure.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    #[must_use]
    pub fn preconditioned(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "precondition fraction in [0, 1]"
        );
        self.precondition = frac;
        self
    }

    /// Overrides BFQ tunables (e.g. disabling `slice_idle` for the
    /// overhead experiments).
    #[must_use]
    pub fn with_bfq(mut self, bfq: BfqConfig) -> Self {
        self.bfq = bfq;
        self
    }

    /// Overrides MQ-Deadline tunables.
    #[must_use]
    pub fn with_mq_deadline(mut self, cfg: MqDeadlineConfig) -> Self {
        self.mq_deadline = cfg;
        self
    }

    /// Installs a fault-injection configuration for this device.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = HostConfig::default();
        assert_eq!(c.cores, 1);
        assert!((c.cpu_freq_ghz - 2.4).abs() < 1e-9);
        assert_eq!(HostConfig::with_cores(10).cores, 10);
    }

    #[test]
    fn device_setup_builders() {
        let d = DeviceSetup::flash()
            .with_scheduler(SchedKind::Bfq)
            .preconditioned(0.5);
        assert_eq!(d.scheduler, SchedKind::Bfq);
        assert!((d.precondition - 0.5).abs() < 1e-12);
        assert_eq!(DeviceSetup::optane().profile.name, "optane-900p-like");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn app_needs_devices() {
        let _ = AppSetup::new(JobSpec::lc_app("x"), vec![]);
    }
}
