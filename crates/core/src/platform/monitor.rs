//! The 1 kHz monitoring service: fault-plan edges, link probes, the
//! safety-supervisor poll, flight-recorder triggers, the telemetry scrape
//! and AFE register application.

use super::Platform;
use crate::chain::SenseMode;
use crate::registers::DspReg;
use crate::supervisor::{MonitorSample, SupervisorState};
use ascp_afe::adc::{AdcConfig, AdcFault, SarAdc};
use ascp_afe::regs::AfeReg;
use ascp_sim::fault::{AdcChannel, FaultEdge, FaultKind};
use ascp_sim::telemetry::{Event, FlightRecorder, Telemetry, TelemetrySnapshot, CAPTURE_EVENTS};

impl Platform {
    /// Applies the AFE register bank to the analog components (the
    /// digital-control path of the paper's programmable front end).
    pub(super) fn apply_afe_registers(&mut self) {
        let afe = self.afe_regs.borrow();
        let sec_code = afe.read(AfeReg::PgaSecondaryGain) as u8;
        let pri_code = afe.read(AfeReg::PgaPrimaryGain) as u8;
        let corner = f64::from(afe.read(AfeReg::AafCorner)) * 100.0;
        let bits = u32::from(afe.read(AfeReg::AdcBits));
        drop(afe);
        self.pga_sec.set_gain_code(sec_code);
        self.pga_pri.set_gain_code(pri_code);
        if (self.aaf_pri.corner() - corner).abs() > 0.5 {
            self.aaf_pri.set_corner(corner);
            self.aaf_sec.set_corner(corner);
        }
        if bits != self.adc_pri.config().bits {
            let cfg = AdcConfig {
                bits,
                ..*self.adc_pri.config()
            };
            self.adc_pri = SarAdc::new(cfg);
            self.adc_sec = SarAdc::new(AdcConfig {
                seed: cfg.seed ^ 0x1,
                ..cfg
            });
        }
    }

    /// The monitoring-cadence service body: register synchronization, AFE
    /// application, link probes, safety supervision and telemetry scrape.
    /// Shared by the scalar tick ([`Platform::step`]) and the lockstep
    /// fleet ([`PlatformFleet`](super::PlatformFleet)), which calls it per
    /// lane at each monitor boundary after writing its batched state back.
    pub(super) fn monitor_service(&mut self) {
        self.monitor_countdown = self.monitor_period;
        self.chain.sync_registers(&self.dsp_regs);
        self.apply_afe_registers();
        self.monitor_ticks += 1;
        self.run_probes();
        self.poll_supervisor();
        self.scrape_telemetry();
    }

    /// Polls the fault plan and maps activation/clear edges onto the
    /// component models.
    pub(super) fn apply_faults(&mut self) {
        let t = self.time();
        let mut edges = std::mem::take(&mut self.fault_edges);
        edges.clear();
        self.config.faults.poll(t, &mut edges);
        for e in &edges {
            self.apply_fault_edge(*e, t);
        }
        self.fault_edges = edges;
    }

    fn adc_mut(&mut self, channel: AdcChannel) -> &mut SarAdc {
        match channel {
            AdcChannel::Primary => &mut self.adc_pri,
            AdcChannel::Secondary => &mut self.adc_sec,
        }
    }

    fn apply_fault_edge(&mut self, e: FaultEdge, t: f64) {
        let on = e.activated;
        match e.kind {
            FaultKind::MemsDriveLoss => self.drive_gate = if on { 0.0 } else { 1.0 },
            FaultKind::SensorDisconnect => self.pickoff_gate = if on { 0.0 } else { 1.0 },
            FaultKind::AdcStuckBit {
                channel,
                bit,
                value,
            } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::StuckBit { bit, value })),
            FaultKind::AdcStuckCode { channel, code } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::StuckCode { code })),
            FaultKind::AdcOverload { channel, gain } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::Overload { gain })),
            FaultKind::ReferenceDroop { frac } => {
                // The bandgap feeds the reference buffers of every
                // converter: ADC codes inflate, DAC full scales shrink.
                let (droop, scale) = if on { (frac, 1.0 - frac) } else { (0.0, 1.0) };
                self.vref.set_droop(droop);
                self.adc_pri.set_ref_scale(scale);
                self.adc_sec.set_ref_scale(scale);
                self.drive_dac.set_ref_scale(scale);
                self.rebalance_dac.set_ref_scale(scale);
                self.rate_dac.set_ref_scale(scale);
            }
            FaultKind::PllUnlock => {
                if on {
                    self.chain.kick_pll();
                }
            }
            FaultKind::SpiBitErrors { rate } => {
                if on {
                    self.bus.spi.set_fault(rate, self.config.seed ^ 0x5b17);
                } else {
                    self.bus.spi.clear_fault();
                }
            }
            FaultKind::UartBitErrors { rate } => {
                if on {
                    self.cpu.set_uart_fault(rate, self.config.seed ^ 0x0a27);
                } else {
                    self.cpu.clear_uart_fault();
                }
            }
            FaultKind::JtagCorruption { rate } => {
                if on {
                    self.jtag.set_fault(rate, self.config.seed ^ 0x17a6);
                } else {
                    self.jtag.clear_fault();
                }
            }
            FaultKind::CpuHang => {
                self.cpu_hang_active = on;
                self.cpu.set_hung(on);
            }
            // Wire faults were introduced for the generic sensor channels
            // (see `ascp_core::frontend`); on the gyro platform the three
            // harness failures collapse onto the pickoff path. Not
            // connected and a ground short both kill the pickoff signal
            // (the synchronous demodulator rejects the resulting DC
            // level), a reversed connector inverts it.
            FaultKind::WireNotConnected | FaultKind::WireShortToGround => {
                self.pickoff_gate = if on { 0.0 } else { 1.0 };
            }
            FaultKind::WireReversePolarity => {
                self.pickoff_gate = if on { -1.0 } else { 1.0 };
            }
        }
        self.telemetry.record_event(if on {
            Event::FaultInjected {
                t,
                fault: e.kind.label(),
            }
        } else {
            Event::FaultCleared {
                t,
                fault: e.kind.label(),
            }
        });
    }

    /// Active communication-link probes at the monitoring cadence: a
    /// one-byte SPI bus probe (parity-checked by the external receiver
    /// model) and a JTAG IDCODE scan compared against the known chain.
    /// Both are off by default (`*_probe_period_ticks == 0`).
    fn run_probes(&mut self) {
        let sup = &self.config.supervisor;
        if !sup.enabled {
            return;
        }
        let spi_period = u64::from(sup.spi_probe_period_ticks);
        if spi_period > 0 && self.monitor_ticks.is_multiple_of(spi_period) {
            // Corruption surfaces in the SPI line-error counter.
            let _ = self.bus.spi.probe();
        }
        let jtag_period = u64::from(sup.jtag_probe_period_ticks);
        if jtag_period > 0 && self.monitor_ticks.is_multiple_of(jtag_period) {
            match self.jtag.read_idcodes() {
                Ok(ids) if ids == [0x0a5c_0af1, 0x0a5c_0d51] => {}
                _ => self.jtag_probe_errors += 1,
            }
        }
    }

    /// Peak-to-peak and midpoint of an ADC observation window; a window
    /// that saw no samples reads as healthy.
    fn window_stats(min: f64, max: f64) -> (f64, f64) {
        if max < min {
            (1.0, 0.0)
        } else {
            (max - min, 0.5 * (max + min))
        }
    }

    pub(super) fn reset_adc_window(&mut self) {
        self.pri_min = f64::INFINITY;
        self.pri_max = f64::NEG_INFINITY;
        self.sec_min = f64::INFINITY;
        self.sec_max = f64::NEG_INFINITY;
    }

    /// Builds the monitoring sample, advances the supervisor FSM and
    /// applies its graceful-degradation directives.
    fn poll_supervisor(&mut self) {
        if !self.config.supervisor.enabled {
            return;
        }
        let t = self.time();
        let clips = self.adc_pri.clips() + self.adc_sec.clips();
        let spi_errors = self.bus.spi.line_errors();
        let uart_errors = self.cpu.uart_line_errors();
        let jtag_errors = self.jtag_probe_errors;
        let (pri_pp, pri_mid) = Self::window_stats(self.pri_min, self.pri_max);
        let (sec_pp, sec_mid) = Self::window_stats(self.sec_min, self.sec_max);
        let sample = MonitorSample {
            t,
            locked: self.chain.is_locked(),
            settled: self.chain.is_settled(),
            envelope: self.chain.envelope(),
            setpoint: self.chain.config().agc.setpoint,
            adc_clips_delta: clips - self.last_sup_clips,
            adc_pri_pp: pri_pp,
            adc_pri_mid: pri_mid,
            adc_sec_pp: sec_pp,
            adc_sec_mid: sec_mid,
            rate_dps: self.rate_output_dps(),
            rate_raw: self.chain.rate_out().raw(),
            closed_loop: self.chain.mode() == SenseMode::ClosedLoop,
            watchdog_resets_delta: self.watchdog_resets - self.last_sup_wd,
            spi_errors_delta: spi_errors - self.last_spi_errors,
            uart_errors_delta: uart_errors - self.last_uart_errors,
            jtag_errors_delta: jtag_errors - self.last_jtag_errors,
        };
        self.last_sup_clips = clips;
        self.last_sup_wd = self.watchdog_resets;
        self.last_spi_errors = spi_errors;
        self.last_uart_errors = uart_errors;
        self.last_jtag_errors = jtag_errors;
        self.reset_adc_window();
        let prev_state = self.supervisor.state();
        let prev_faults = self.supervisor.faults_detected();
        self.supervisor.poll(&sample, &mut self.telemetry);
        let state = self.supervisor.state();
        if state != prev_state {
            self.transitions.push((prev_state.label(), state.label()));
            if let Some(tr) = self.trace.as_mut() {
                tr.instant(
                    format!("supervisor {}->{}", prev_state.label(), state.label()),
                    t,
                );
            }
        }
        self.check_recorder_triggers(prev_state, prev_faults, t);

        // Graceful degradation: open-loop fallback while the rebalance
        // path is implicated, restored once the FSM is Normal again.
        if self.supervisor.wants_open_loop() {
            if self.chain.mode() == SenseMode::ClosedLoop {
                self.chain.set_mode(SenseMode::OpenLoop);
                self.open_loop_forced = true;
            }
        } else if self.open_loop_forced && self.supervisor.state() == SupervisorState::Normal {
            self.chain.set_mode(self.config.mode);
            self.open_loop_forced = false;
        }
    }

    /// Evaluates the flight-recorder triggers after a supervisor poll and
    /// freezes the ring on the first one that fires. Trigger precedence
    /// follows severity (SafeState > leaving Normal > check episode), but
    /// only the *first* freeze ever populates the capture, so a cascade
    /// still reports its initial failure.
    fn check_recorder_triggers(&mut self, prev_state: SupervisorState, prev_faults: u64, t: f64) {
        if self.recorder.as_ref().is_none_or(FlightRecorder::is_frozen) {
            return;
        }
        let state = self.supervisor.state();
        let cause =
            if state == SupervisorState::SafeState && prev_state != SupervisorState::SafeState {
                Some("safe_state")
            } else if prev_state == SupervisorState::Normal && state != SupervisorState::Normal {
                Some("degraded")
            } else if self.supervisor.faults_detected() > prev_faults {
                Some("check_fail")
            } else {
                None
            };
        let Some(cause) = cause else {
            return;
        };
        let events: Vec<Event> = {
            let log = self.telemetry.events();
            let skip = log.len().saturating_sub(CAPTURE_EVENTS);
            log.iter().skip(skip).cloned().collect()
        };
        let registers = self.key_registers();
        if let Some(rec) = self.recorder.as_mut() {
            rec.freeze(cause, t, events, registers);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.instant(format!("recorder trigger: {cause}"), t);
        }
    }

    /// Key DSP register values for a flight-recorder capture bundle (the
    /// read-back state a bench engineer would dump over JTAG at failure).
    fn key_registers(&self) -> Vec<(String, u16)> {
        let named = [
            ("dsp.status", DspReg::Status),
            ("dsp.pll_freq_lo", DspReg::PllFreqLo),
            ("dsp.pll_freq_hi", DspReg::PllFreqHi),
            ("dsp.agc_envelope", DspReg::AgcEnvelope),
            ("dsp.rate_out", DspReg::RateOut),
            ("dsp.quad_out", DspReg::QuadOut),
            ("dsp.phase_error", DspReg::PhaseError),
            ("dsp.drive_amp", DspReg::DriveAmp),
            ("dsp.temperature", DspReg::Temperature),
            ("dsp.control", DspReg::Control),
            ("dsp.heartbeat", DspReg::Heartbeat),
        ];
        let regs = self.dsp_regs.borrow();
        named
            .iter()
            .map(|&(name, reg)| (name.to_owned(), regs.read(reg)))
            .collect()
    }

    /// Mirrors the components' local counters into the telemetry registry
    /// and emits milestone events from the deltas since the last scrape.
    /// Runs at the monitoring cadence — the same rhythm at which the
    /// paper's 8051 routine "constantly checks the system status" (§4.2).
    fn scrape_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = self.time();

        self.telemetry.counter_set("sim.ticks", self.tick);
        self.telemetry.counter_set(
            "adc.conversions",
            self.adc_pri.conversions() + self.adc_sec.conversions(),
        );
        self.telemetry
            .counter_set("adc.clips", self.adc_pri.clips() + self.adc_sec.clips());
        self.telemetry.counter_set(
            "dac.updates",
            self.drive_dac.updates() + self.rebalance_dac.updates() + self.rate_dac.updates(),
        );
        self.telemetry
            .counter_set("pll.lock_transitions", self.chain.lock_transitions());
        self.telemetry
            .counter_set("chain.saturation_events", self.chain.saturation_events());
        self.telemetry
            .counter_set("cpu.instructions", self.cpu.instructions());
        self.telemetry
            .counter_set("cpu.machine_cycles", self.cpu.cycles());
        self.telemetry
            .counter_set("cpu.watchdog_resets", u64::from(self.watchdog_resets));
        self.telemetry
            .counter_set("cpu.uart_tx_bytes", self.cpu.uart_tx_total());
        self.telemetry
            .counter_set("spi.transfers", self.bus.spi.transfers());
        self.telemetry
            .counter_set("jtag.shifts", self.jtag.shifts());
        self.telemetry
            .counter_set("jtag.tck_cycles", self.jtag.cycles());
        self.telemetry
            .counter_set("spi.line_errors", self.bus.spi.line_errors());
        self.telemetry
            .counter_set("uart.line_errors", self.cpu.uart_line_errors());
        self.telemetry
            .counter_set("jtag.probe_errors", self.jtag_probe_errors);
        self.telemetry
            .counter_set("jtag.corrupted_bits", self.jtag.corrupted_bits());
        self.telemetry
            .counter_set("dsp.filter_saturations", self.chain.fixed_saturations());

        self.telemetry
            .gauge_set("pll.frequency_hz", self.chain.frequency());
        self.telemetry
            .gauge_set("agc.envelope", self.chain.envelope());
        self.telemetry.gauge_set("agc.drive", self.chain.drive());
        self.telemetry
            .gauge_set("rate.output_dps", self.rate_output_dps());
        self.telemetry.gauge_set("temp.celsius", self.temperature.0);

        // Milestone events from scrape-to-scrape deltas.
        let locked = self.chain.is_locked();
        if locked != self.last_locked {
            if locked {
                self.telemetry.record_event(Event::PllLocked {
                    t,
                    frequency_hz: self.chain.frequency(),
                });
            } else {
                self.telemetry.record_event(Event::PllUnlocked { t });
            }
            self.last_locked = locked;
        }
        if !self.agc_settled_seen {
            if let Some(settle) = self.chain.settle_time_s() {
                self.telemetry.histogram_record("agc.settle_time_s", settle);
                self.telemetry.record_event(Event::AgcSettled {
                    t,
                    settle_time_s: settle,
                });
                self.agc_settled_seen = true;
            }
        }
        let clips_pri = self.adc_pri.clips();
        if clips_pri > self.last_clips_pri {
            self.telemetry.record_event(Event::AdcClip {
                t,
                channel: "primary",
                total: clips_pri,
            });
            self.last_clips_pri = clips_pri;
        }
        let clips_sec = self.adc_sec.clips();
        if clips_sec > self.last_clips_sec {
            self.telemetry.record_event(Event::AdcClip {
                t,
                channel: "secondary",
                total: clips_sec,
            });
            self.last_clips_sec = clips_sec;
        }
        if self.watchdog_resets > self.last_wd_resets {
            self.telemetry.record_event(Event::WatchdogReset {
                t,
                total: u64::from(self.watchdog_resets),
            });
            self.last_wd_resets = self.watchdog_resets;
        }
        // UART activity is edge-triggered: the monitor firmware streams
        // status frames continuously, so an event per scrape would flood
        // the bounded ring and evict rare events (lock, watchdog). Emit
        // only when transmission resumes after an idle scrape interval.
        let uart = self.cpu.uart_tx_total();
        if uart > self.last_uart_tx {
            if self.uart_was_idle {
                self.telemetry.record_event(Event::UartTx {
                    t,
                    bytes: uart - self.last_uart_tx,
                });
            }
            self.uart_was_idle = false;
            self.last_uart_tx = uart;
        } else {
            self.uart_was_idle = true;
        }
        let dsp_writes = self.dsp_regs.borrow().bus_writes();
        if dsp_writes > self.last_dsp_writes {
            self.telemetry.record_event(Event::RegisterWrite {
                t,
                bank: "dsp",
                writes: dsp_writes - self.last_dsp_writes,
            });
            self.last_dsp_writes = dsp_writes;
        }
        let afe_writes = self.afe_regs.borrow().writes();
        if afe_writes > self.last_afe_writes {
            self.telemetry.record_event(Event::RegisterWrite {
                t,
                bank: "afe",
                writes: afe_writes - self.last_afe_writes,
            });
            self.last_afe_writes = afe_writes;
        }
    }

    /// The telemetry collector (read access).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Captures a telemetry snapshot at the current simulation time,
    /// scraping the component counters first so the snapshot is current
    /// even between monitoring ticks.
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        self.scrape_telemetry();
        self.telemetry.snapshot(self.time())
    }
}
