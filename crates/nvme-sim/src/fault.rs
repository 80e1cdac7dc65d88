//! Deterministic fault injection: seeded per-device fault plans.
//!
//! A [`FaultPlan`] decides, per command and per device lifetime, whether
//! the device misbehaves: media-error completions, command stalls (the
//! host-visible symptom of a firmware hang, recovered via timeout/abort),
//! transient latency spikes, and periodic full-device resets. The plan
//! owns a *private* RNG stream derived purely from `(scenario seed,
//! device index)` — it never touches the device's service RNG, so
//! enabling faults perturbs only faulted commands and a disabled plan
//! ([`FaultConfig::none`]) leaves runs byte-identical to a build without
//! this module. Because the stream is a pure function of the seed and
//! device index (not a `DetRng::fork`, which mutates its parent), plans
//! are identical across `--jobs` values.

use simcore::{DetRng, SimDuration, SimTime};

/// Stream salt folded into every fault RNG seed so fault draws can never
/// collide with an engine stream derived from the same scenario seed.
pub const FAULT_STREAM_SALT: u64 = 0xFA17_0B5E_55ED_C01D;

/// Outcome of a device command, reported alongside the retired request.
///
/// The device keeps servicing faulted commands for their full latency
/// (a real drive burns the bus/unit time before reporting an error);
/// the *status* tells the host whether the data actually transferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionStatus {
    /// The command completed and data transferred.
    #[default]
    Success,
    /// Unrecoverable media error (NVMe status `0x281`): the command
    /// completed with an error status; the host may retry it.
    MediaError,
}

/// Per-command fate drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommandFate {
    /// Serve normally.
    Normal,
    /// Complete with [`CompletionStatus::MediaError`] after normal
    /// service latency.
    MediaError,
    /// Hang for [`FaultConfig::stall`] beyond normal service — long
    /// enough to trip the host's `io_timeout` and exercise the abort
    /// path.
    Stall,
    /// Multiply command latency by the carried factor (transient
    /// slowdown: background media scan, thermal throttle).
    Spike(f64),
}

/// Rates and shapes of injected faults; all-zero ([`FaultConfig::none`])
/// means the fault machinery is completely inert.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-command probability of a media-error completion.
    pub media_error_rate: f64,
    /// Per-command probability of a stall (firmware hang analogue).
    pub stall_rate: f64,
    /// Extra service time added to a stalled command.
    pub stall: SimDuration,
    /// Per-command probability of a transient latency spike.
    pub spike_rate: f64,
    /// Latency multiplier applied to spiked commands.
    pub spike_mult: f64,
    /// If set, the device undergoes a full controller reset every
    /// period (queue drained, in-flight commands bounced back to the
    /// host for requeue).
    pub reset_period: Option<SimDuration>,
    /// How long a controller reset keeps the device offline.
    pub reset_duration: SimDuration,
    /// Optional `[start, end)` window outside which per-command faults
    /// are suppressed (resets are governed by `reset_period` alone).
    pub window: Option<(SimTime, SimTime)>,
}

impl FaultConfig {
    /// A completely inert configuration (the default).
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            media_error_rate: 0.0,
            stall_rate: 0.0,
            stall: SimDuration::ZERO,
            spike_rate: 0.0,
            spike_mult: 1.0,
            reset_period: None,
            reset_duration: SimDuration::ZERO,
            window: None,
        }
    }

    /// `true` if any fault class can fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.per_command_enabled() || self.reset_period.is_some()
    }

    fn per_command_enabled(&self) -> bool {
        self.media_error_rate > 0.0 || self.stall_rate > 0.0 || self.spike_rate > 0.0
    }

    fn in_window(&self, now: SimTime) -> bool {
        self.window
            .is_none_or(|(start, end)| now >= start && now < end)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A seeded, per-device fault schedule.
///
/// Construct with [`FaultPlan::new`] from the scenario seed and the
/// device's index; see the module docs for the determinism argument.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: DetRng,
}

impl FaultPlan {
    /// Builds the plan for device `device_index` of a run seeded with
    /// `seed`. The RNG stream is a pure function of both — independent
    /// of fork order and thread count.
    #[must_use]
    pub fn new(config: FaultConfig, seed: u64, device_index: u64) -> Self {
        let stream =
            seed ^ FAULT_STREAM_SALT ^ (device_index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultPlan {
            config,
            rng: DetRng::new(stream),
        }
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Draws the fate of the next command started at `now`.
    ///
    /// Consumes exactly one RNG draw per call while per-command faults
    /// are enabled and `now` is inside the fault window, and zero draws
    /// otherwise — so the stream position is itself deterministic.
    pub fn command_fate(&mut self, now: SimTime) -> CommandFate {
        if !self.config.per_command_enabled() || !self.config.in_window(now) {
            return CommandFate::Normal;
        }
        let draw = self.rng.f64();
        let c = &self.config;
        if draw < c.media_error_rate {
            CommandFate::MediaError
        } else if draw < c.media_error_rate + c.stall_rate {
            CommandFate::Stall
        } else if draw < c.media_error_rate + c.stall_rate + c.spike_rate {
            CommandFate::Spike(c.spike_mult)
        } else {
            CommandFate::Normal
        }
    }
}

/// Lifetime fault accounting, surfaced through
/// [`crate::NvmeDevice::fault_counters`] into the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Commands completed with [`CompletionStatus::MediaError`].
    pub media_errors: u64,
    /// Commands whose service was stalled.
    pub stalls: u64,
    /// Commands whose latency was spiked.
    pub spikes: u64,
    /// Full controller resets.
    pub resets: u64,
    /// In-service commands aborted by the host (timeout path).
    pub aborted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_faults_and_never_draws() {
        let mut p = FaultPlan::new(FaultConfig::none(), 42, 0);
        for i in 0..1000 {
            assert_eq!(p.command_fate(SimTime::from_micros(i)), CommandFate::Normal);
        }
        // The RNG was never advanced: a fresh plan draws the same value.
        let mut q = FaultPlan::new(FaultConfig::none(), 42, 0);
        assert_eq!(p.rng.next_u64(), q.rng.next_u64());
    }

    #[test]
    fn rates_partition_the_draw() {
        let cfg = FaultConfig {
            media_error_rate: 0.25,
            stall_rate: 0.25,
            spike_rate: 0.25,
            spike_mult: 8.0,
            ..FaultConfig::none()
        };
        let mut p = FaultPlan::new(cfg, 7, 0);
        let mut seen = [0u32; 4];
        for _ in 0..4000 {
            match p.command_fate(SimTime::ZERO) {
                CommandFate::MediaError => seen[0] += 1,
                CommandFate::Stall => seen[1] += 1,
                CommandFate::Spike(m) => {
                    assert!((m - 8.0).abs() < 1e-12);
                    seen[2] += 1;
                }
                CommandFate::Normal => seen[3] += 1,
            }
        }
        for (i, n) in seen.iter().enumerate() {
            assert!(
                (700..1300).contains(n),
                "class {i} count {n} far from expected ~1000"
            );
        }
    }

    #[test]
    fn window_gates_faults() {
        let cfg = FaultConfig {
            media_error_rate: 1.0,
            window: Some((SimTime::from_millis(1), SimTime::from_millis(2))),
            ..FaultConfig::none()
        };
        let mut p = FaultPlan::new(cfg, 7, 0);
        assert_eq!(p.command_fate(SimTime::ZERO), CommandFate::Normal);
        assert_eq!(
            p.command_fate(SimTime::from_millis(1)),
            CommandFate::MediaError
        );
        assert_eq!(p.command_fate(SimTime::from_millis(2)), CommandFate::Normal);
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        let cfg = FaultConfig {
            media_error_rate: 0.5,
            ..FaultConfig::none()
        };
        let mut a = FaultPlan::new(cfg.clone(), 99, 3);
        let mut b = FaultPlan::new(cfg.clone(), 99, 3);
        for i in 0..100 {
            assert_eq!(
                a.command_fate(SimTime::from_micros(i)),
                b.command_fate(SimTime::from_micros(i))
            );
        }
        // Different devices of the same run get distinct streams.
        let mut c = FaultPlan::new(cfg, 99, 4);
        let diverged = (0..100).any(|i| {
            c.command_fate(SimTime::from_micros(i)) != b.command_fate(SimTime::from_micros(i))
        });
        // (Statistically certain at rate 0.5 over 100 draws.)
        assert!(diverged);
    }
}
