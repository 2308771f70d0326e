//! Run-scale measurement loops: timed runs, turn-on, the Fig. 6 traces,
//! decimated output sampling and the [`RateSensor`] impl that the
//! datasheet harness characterizes.

use super::Platform;
use crate::characterize::RateSensor;
use ascp_sim::trace::{Trace, TraceSet};
use ascp_sim::units::{Celsius, DegPerSec, Seconds};

impl Platform {
    /// Runs for `seconds` of simulated time.
    ///
    /// Duration is converted to DSP ticks by **rounding to the nearest
    /// tick** (a request of 10.2 µs at 250 kHz runs 3 ticks, not 2), so
    /// callers asking for non-integer tick multiples get the closest
    /// realizable duration instead of a silent truncation.
    pub fn run(&mut self, seconds: f64) {
        let ticks = (seconds * self.config.dsp_rate.0).round() as u64;
        self.step_block(ticks);
    }

    /// Runs until PLL lock and AGC settling, returning the turn-on time, or
    /// `None` if `timeout` seconds pass first. This is the Table 1
    /// "turn-on time" measurement.
    pub fn wait_for_ready(&mut self, timeout: f64) -> Option<Seconds> {
        let ticks = (timeout * self.config.dsp_rate.0) as u64;
        let mut settled_streak = 0u32;
        for _ in 0..ticks {
            self.step();
            if self.chain.is_locked() && self.chain.is_settled() {
                settled_streak += 1;
                // Hold for 10 ms before declaring ready.
                if settled_streak >= (0.01 * self.config.dsp_rate.0) as u32 {
                    return Some(Seconds(self.time()));
                }
            } else {
                settled_streak = 0;
            }
        }
        None
    }

    /// Runs for `seconds` recording the Fig. 6 traces (measured PLL/AGC
    /// waveforms at the monitoring cadence), decimated by `trace_div`.
    ///
    /// Like [`Platform::run`], the duration is rounded to the nearest DSP
    /// tick rather than truncated.
    pub fn run_traces(&mut self, seconds: f64, trace_div: u32) -> TraceSet {
        let div = trace_div.max(1);
        let mut amplitude_control = Trace::with_decimation("amplitude_control", div);
        let mut phase_error = Trace::with_decimation("phase_error", div);
        let mut amplitude_error = Trace::with_decimation("amplitude_error", div);
        let mut vco_control = Trace::with_decimation("vco_control", div);
        let mut rate_out = Trace::with_decimation("rate_out_volts", div);
        let ticks = (seconds * self.config.dsp_rate.0).round() as u64;
        // Blocked stepping between observation points: the observable
        // signals are sampled every 50 ticks (the chain's control-update
        // cadence), so advance in whole chunks up to each sample tick.
        let mut left = ticks;
        while left > 0 {
            let chunk = (50 - self.tick % 50).min(left);
            self.step_block(chunk);
            left -= chunk;
            if self.tick.is_multiple_of(50) {
                let t = self.time();
                amplitude_control.push(t, self.chain.drive());
                phase_error.push(t, self.chain.phase_error());
                amplitude_error.push(t, self.chain.config().agc.setpoint - self.chain.envelope());
                vco_control.push(
                    t,
                    (self.chain.frequency() - self.config.gyro.f0.0)
                        / (self.config.gyro.f0.0 * 0.1),
                );
                rate_out.push(t, self.rate_output().0);
            }
        }
        TraceSet::new(vec![
            amplitude_control,
            phase_error,
            amplitude_error,
            vco_control,
            rate_out,
        ])
    }

    /// Collects `n` steady-state rate-output samples (°/s, decoded from the
    /// output DAC) at the demodulated rate, after discarding `settle`
    /// seconds.
    pub fn sample_rate_output(&mut self, settle: f64, n: usize) -> Vec<f64> {
        self.sample_decimated(settle, n, Self::rate_output_dps)
    }

    /// Runs `settle` seconds, then reads `read` at each of the next `n`
    /// decimated output ticks, jumping straight from one to the next.
    fn sample_decimated(&mut self, settle: f64, n: usize, read: fn(&Self) -> f64) -> Vec<f64> {
        self.run(settle);
        let decim = u64::from(self.chain.config().demod_decimation);
        (0..n)
            .map(|_| {
                self.step_block(decim - self.tick % decim);
                read(self)
            })
            .collect()
    }
}

impl RateSensor for Platform {
    fn name(&self) -> &str {
        "SensorDynamics ASCP (this work)"
    }

    fn set_rate(&mut self, rate: DegPerSec) {
        Platform::set_rate(self, rate);
    }

    fn set_temperature(&mut self, t: Celsius) {
        Platform::set_temperature(self, t);
    }

    fn turn_on(&mut self, timeout: f64) -> Option<Seconds> {
        self.power_on_reset();
        self.wait_for_ready(timeout)
    }

    fn sample_output(&mut self, settle: f64, n: usize) -> Vec<f64> {
        self.sample_decimated(settle, n, |p| p.rate_output().0)
    }

    fn output_sample_rate(&self) -> f64 {
        self.config.dsp_rate.0 / f64::from(self.chain.config().demod_decimation)
    }

    fn sample_output_modulated(
        &mut self,
        freq: f64,
        amp: DegPerSec,
        settle: f64,
        n: usize,
    ) -> Vec<f64> {
        let w = 2.0 * std::f64::consts::PI * freq;
        let decim = u64::from(self.chain.config().demod_decimation);
        let dsp_rate = self.config.dsp_rate.0;
        let mut out = Vec::with_capacity(n);
        let settle_ticks = (settle * dsp_rate) as u64;
        let mut k = 0u64;
        while out.len() < n {
            let t = k as f64 / dsp_rate;
            self.gyro.set_rate(DegPerSec(amp.0 * (w * t).sin()));
            self.step();
            if k >= settle_ticks && self.tick.is_multiple_of(decim) {
                out.push(self.rate_output().0);
            }
            k += 1;
        }
        self.gyro.set_rate(DegPerSec(0.0));
        out
    }
}
