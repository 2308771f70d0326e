//! Checkpoint state (save, load) and power-on reset.

use super::Platform;
use ascp_mcu8051::cpu::MAX_STEP_CYCLES;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::Celsius;

impl Platform {
    /// Serializes the state a tick, a register write or a fault edge can
    /// change — sensor modes, every AFE component, the DSP chain, both
    /// register banks, the JTAG chain, the 8051 and its peripherals, the
    /// fault-plan cursor and the safety supervisor — as a sequence of
    /// tagged sections. A value that is a function of the configuration
    /// and other saved fields (an ADC's DNL table, a resonator's tuning) is
    /// rebuilt on load instead.
    ///
    /// Two things are deliberately **not** written:
    ///
    /// - the configuration ([`PlatformConfig`](super::PlatformConfig)): a
    ///   restore target must be built from the same configuration (the
    ///   checkpoint layer in [`crate::checkpoint`] enforces that with a
    ///   config digest);
    /// - telemetry (metrics, events): observability output, not simulation
    ///   state — restoring it would double-count history.
    ///
    /// See `DESIGN.md` §11 for the format and the congruence rules.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.leaf("afer", |w| self.afe_regs.borrow().save_state(w));
        w.leaf("dspr", |w| self.dsp_regs.borrow().save_state(w));
        w.leaf("gyro", |w| self.gyro.save_state(w));
        w.leaf("chgp", |w| self.charge_pri.save_state(w));
        w.leaf("chgs", |w| self.charge_sec.save_state(w));
        w.leaf("aafp", |w| self.aaf_pri.save_state(w));
        w.leaf("aafs", |w| self.aaf_sec.save_state(w));
        w.leaf("pgap", |w| self.pga_pri.save_state(w));
        w.leaf("pgas", |w| self.pga_sec.save_state(w));
        w.leaf("adcp", |w| self.adc_pri.save_state(w));
        w.leaf("adcs", |w| self.adc_sec.save_state(w));
        w.leaf("dacd", |w| self.drive_dac.save_state(w));
        w.leaf("dacb", |w| self.rebalance_dac.save_state(w));
        w.leaf("dacr", |w| self.rate_dac.save_state(w));
        w.leaf("vref", |w| self.vref.save_state(w));
        let derived = Self::chain_config(&self.config).agc;
        w.container("chan", |w| self.chain.save_state(w, &derived));
        w.leaf("jtag", |w| self.jtag.save_state(w));
        w.leaf("cpu ", |w| self.cpu.save_state(w));
        w.container("bus ", |w| self.bus.save_state(w));
        w.leaf("flts", |w| self.config.faults.save_state(w));
        w.leaf("supv", |w| self.supervisor.save_state(w));
        w.leaf("kern", |w| {
            w.put_u64(self.tick);
            w.put_f64(self.cpu_cycle_debt);
            w.put_u64(self.monitor_countdown);
            w.put_f64(self.drive_force);
            w.put_f64(self.rebalance_force);
            w.put_f64(self.temperature.0);
            w.put_u32(self.watchdog_resets);
            w.put_bool(self.last_locked);
            w.put_u64(self.last_clips_pri);
            w.put_u64(self.last_clips_sec);
            w.put_u32(self.last_wd_resets);
            w.put_u64(self.last_uart_tx);
            w.put_bool(self.uart_was_idle);
            w.put_u64(self.last_dsp_writes);
            w.put_u64(self.last_afe_writes);
            w.put_bool(self.agc_settled_seen);
            w.put_f64(self.drive_gate);
            w.put_f64(self.pickoff_gate);
            w.put_f64(self.pri_min);
            w.put_f64(self.pri_max);
            w.put_f64(self.sec_min);
            w.put_f64(self.sec_max);
            w.put_u64(self.last_sup_clips);
            w.put_u32(self.last_sup_wd);
            w.put_u64(self.last_spi_errors);
            w.put_u64(self.last_uart_errors);
            w.put_u64(self.last_jtag_errors);
            w.put_u64(self.jtag_probe_errors);
            w.put_u64(self.monitor_ticks);
            w.put_bool(self.cpu_hang_active);
            w.put_bool(self.open_loop_forced);
        });
    }

    /// Restores state saved by [`Platform::save_state`] onto a platform
    /// built from the **same** [`PlatformConfig`](super::PlatformConfig).
    /// After a successful restore, stepping this platform produces
    /// byte-identical traces to stepping the one that was saved.
    ///
    /// Each analog component restores its own programmed settings, so the
    /// AFE register bank is not applied here: a register written since the
    /// last 1 kHz service is applied at the next one, as on the live
    /// platform.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if any section is malformed, truncated,
    /// or structurally incongruent with this platform's configuration, if
    /// the 8051 carries a UART countdown no run leaves, or if the kernel
    /// section holds a monitor countdown, CPU cycle debt, DAC force or
    /// fault gate that no tick can leave. The platform may be left
    /// partially restored on error; callers should discard it (the
    /// checkpoint layer restores into a freshly built platform, so a
    /// failed restore never corrupts a live one).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        r.leaf("afer", |r| self.afe_regs.borrow_mut().load_state(r))?;
        r.leaf("dspr", |r| self.dsp_regs.borrow_mut().load_state(r))?;
        r.leaf("gyro", |r| self.gyro.load_state(r))?;
        r.leaf("chgp", |r| self.charge_pri.load_state(r))?;
        r.leaf("chgs", |r| self.charge_sec.load_state(r))?;
        r.leaf("aafp", |r| self.aaf_pri.load_state(r))?;
        r.leaf("aafs", |r| self.aaf_sec.load_state(r))?;
        r.leaf("pgap", |r| self.pga_pri.load_state(r))?;
        r.leaf("pgas", |r| self.pga_sec.load_state(r))?;
        r.leaf("adcp", |r| self.adc_pri.load_state(r))?;
        r.leaf("adcs", |r| self.adc_sec.load_state(r))?;
        r.leaf("dacd", |r| self.drive_dac.load_state(r))?;
        r.leaf("dacb", |r| self.rebalance_dac.load_state(r))?;
        r.leaf("dacr", |r| self.rate_dac.load_state(r))?;
        r.leaf("vref", |r| self.vref.load_state(r))?;
        r.container("chan", |r| self.chain.load_state(r))?;
        r.leaf("jtag", |r| self.jtag.load_state(r))?;
        r.leaf("cpu ", |r| {
            self.cpu.load_state(r)?;
            self.cpu.check_uart_countdowns()
        })?;
        r.container("bus ", |r| self.bus.load_state(r))?;
        r.leaf("flts", |r| self.config.faults.load_state(r))?;
        r.leaf("supv", |r| self.supervisor.load_state(r))?;
        r.leaf("kern", |r| {
            self.tick = r.take_u64()?;
            let debt = r.take_f64()?;
            let countdown = r.take_u64()?;
            let period = self.monitor_period;
            if countdown == 0 || countdown > period {
                return Err(SnapshotError::Corrupt {
                    context: format!("monitor countdown {countdown} outside 1..={period}"),
                });
            }
            // A tick steps while the debt is at least 1, and no step or
            // retired busy-wait execution spends more than a step can.
            let min_debt = 1.0 - f64::from(MAX_STEP_CYCLES);
            if !(min_debt..1.0).contains(&debt) {
                return Err(SnapshotError::Corrupt {
                    context: format!("CPU cycle debt {debt:?} outside [{min_debt}, 1)"),
                });
            }
            self.cpu_cycle_debt = debt;
            self.monitor_countdown = countdown;
            // Each force is a DAC output over the drive reference.
            let vref = self.config.drive_dac.vref.0;
            for (name, dac, force) in [
                ("drive", &self.drive_dac, &mut self.drive_force),
                ("rebalance", &self.rebalance_dac, &mut self.rebalance_force),
            ] {
                *force = r.take_f64()?;
                let reach = dac.output_bound() / vref;
                if !(force.abs() <= reach) {
                    return Err(SnapshotError::Corrupt {
                        context: format!("{name} force {force:?} outside ±{reach}"),
                    });
                }
            }
            self.temperature = Celsius(r.take_f64()?);
            self.watchdog_resets = r.take_u32()?;
            self.last_locked = r.take_bool()?;
            self.last_clips_pri = r.take_u64()?;
            self.last_clips_sec = r.take_u64()?;
            self.last_wd_resets = r.take_u32()?;
            self.last_uart_tx = r.take_u64()?;
            self.uart_was_idle = r.take_bool()?;
            self.last_dsp_writes = r.take_u64()?;
            self.last_afe_writes = r.take_u64()?;
            self.agc_settled_seen = r.take_bool()?;
            // The gates take only the values the fault edges write.
            self.drive_gate = r.take_f64()?;
            self.pickoff_gate = r.take_f64()?;
            if ![0.0, 1.0].contains(&self.drive_gate)
                || ![-1.0, 0.0, 1.0].contains(&self.pickoff_gate)
            {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "drive gate {:?} / pickoff gate {:?} not one a fault edge writes",
                        self.drive_gate, self.pickoff_gate
                    ),
                });
            }
            self.pri_min = r.take_f64()?;
            self.pri_max = r.take_f64()?;
            self.sec_min = r.take_f64()?;
            self.sec_max = r.take_f64()?;
            self.last_sup_clips = r.take_u64()?;
            self.last_sup_wd = r.take_u32()?;
            self.last_spi_errors = r.take_u64()?;
            self.last_uart_errors = r.take_u64()?;
            self.last_jtag_errors = r.take_u64()?;
            self.jtag_probe_errors = r.take_u64()?;
            self.monitor_ticks = r.take_u64()?;
            self.cpu_hang_active = r.take_bool()?;
            self.open_loop_forced = r.take_bool()?;
            Ok(())
        })?;
        // The fault-edge scratch buffer is transient; never restored.
        self.fault_edges.clear();
        Ok(())
    }

    /// Power-on reset: sensor motion stops, every loop restarts, the CPU
    /// reboots. Models a cold start for turn-on-time measurements.
    pub fn power_on_reset(&mut self) {
        self.gyro.reset();
        self.chain.reset();
        self.drive_force = 0.0;
        self.rebalance_force = 0.0;
        self.aaf_pri.reset();
        self.aaf_sec.reset();
        self.pga_pri.reset();
        self.pga_sec.reset();
        self.cpu.reset();
        self.tick = 0;
        self.cpu_cycle_debt = 0.0;
        self.monitor_countdown = self.monitor_period;
        // The supervisor reboots with the platform; a forced open-loop
        // fallback does not survive a cold start.
        self.supervisor.reset();
        if self.open_loop_forced {
            self.chain.set_mode(self.config.mode);
            self.open_loop_forced = false;
        }
        self.reset_adc_window();
        if self.cpu_hang_active {
            // Latch-up persists through a power cycle only while the
            // fault is scheduled active; re-assert it.
            self.cpu.set_hung(true);
        }
    }
}
