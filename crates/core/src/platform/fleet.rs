//! The lockstep fleet: N platforms stepped together through
//! structure-of-arrays lane kernels, bit-identical to scalar stepping.

use super::Platform;
use ascp_afe::adc::{AdcLanes, SarAdc};
use ascp_afe::amp::{ChargeAmplifier, ChargeLanes, Pga, PgaLanes};
use ascp_afe::dac::{Dac, DacLanes};
use ascp_afe::filter::{AafLanes, AntiAliasFilter};
use ascp_dsp::demod::{DemodLanes, IqSample};
use ascp_dsp::fixed::Q15;
use ascp_mems::gyro::GyroLanes;

/// A platform set that cannot run as a lockstep fleet, with the reason and
/// the platforms handed back so the caller can fall to scalar execution.
#[derive(Debug)]
pub struct FleetIneligible {
    /// Human-readable reason the fleet rejected the set.
    pub reason: String,
    /// The untouched platforms, returned for per-platform stepping.
    pub platforms: Vec<Platform>,
}

impl std::fmt::Display for FleetIneligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "platforms ineligible for fleet execution: {}",
            self.reason
        )
    }
}

/// The hot structure-of-arrays kernels of a fleet, extracted together so a
/// monitor-boundary re-extraction is one call.
///
/// Same-type component pairs are **fused** into one wide kernel — the
/// primary and secondary analog paths share a 2N-lane kernel (lanes
/// `0..N` primary, `N..2N` secondary) and the three DACs share a 3N-lane
/// kernel (drive, rebalance, rate) — so each per-tick batched call runs
/// one longer loop instead of two or three short ones: fewer dispatch
/// overheads, better pipelining of the latency-bound noise transforms.
/// Per-lane state is independent, so fusion cannot change any lane's bits.
struct FleetKernels {
    gyro: GyroLanes,
    /// `[charge_pri | charge_sec]`, 2N lanes.
    charge: ChargeLanes,
    /// `[aaf_pri | aaf_sec]`, 2N lanes.
    aaf: AafLanes,
    /// `[pga_pri | pga_sec]`, 2N lanes.
    pga: PgaLanes,
    /// `[adc_pri | adc_sec]`, 2N lanes.
    adc: AdcLanes,
    demod: DemodLanes,
    /// `[drive | rebalance | rate]`, 3N lanes.
    dac: DacLanes,
}

impl FleetKernels {
    /// Extracts every hot kernel; `Err` names the first component whose
    /// lanes are not extractable (mixed noise phase, an active ADC fault,
    /// non-uniform decimator state). Fusion makes the phase-uniformity
    /// requirement span the primary *and* secondary populations (and all
    /// three DACs); platforms stepped from construction always satisfy it.
    fn extract(platforms: &[Platform], sub_dt: f64, dsp_dt: f64) -> Result<Self, String> {
        let p = platforms;
        Ok(Self {
            gyro: GyroLanes::extract(p.iter().map(|p| &p.gyro), sub_dt)
                .ok_or("gyro noise lanes not phase-uniform")?,
            charge: ChargeLanes::extract(
                p.iter()
                    .map(|p| &p.charge_pri)
                    .chain(p.iter().map(|p| &p.charge_sec)),
            )
            .ok_or("charge-amp lanes not phase-uniform")?,
            aaf: AafLanes::extract(
                p.iter()
                    .map(|p| &p.aaf_pri)
                    .chain(p.iter().map(|p| &p.aaf_sec)),
            ),
            pga: PgaLanes::extract(
                p.iter()
                    .map(|p| &p.pga_pri)
                    .chain(p.iter().map(|p| &p.pga_sec)),
                dsp_dt,
            )
            .ok_or("PGA lanes not phase-uniform")?,
            adc: AdcLanes::extract(
                p.iter()
                    .map(|p| &p.adc_pri)
                    .chain(p.iter().map(|p| &p.adc_sec)),
            )
            .ok_or("ADC lanes faulted or not phase-uniform")?,
            demod: DemodLanes::extract(p.iter().map(|p| p.chain.demod()))
                .ok_or("demodulator lanes not decimation-uniform")?,
            dac: DacLanes::extract(
                p.iter()
                    .map(|p| &p.drive_dac)
                    .chain(p.iter().map(|p| &p.rebalance_dac))
                    .chain(p.iter().map(|p| &p.rate_dac)),
            )
            .ok_or("DAC lanes not phase-uniform")?,
        })
    }

    /// Writes every kernel's state back into the platforms' components.
    /// The fused kernels restore through collected field borrows so the
    /// primary/secondary (and per-DAC) segments land on the right
    /// components in lane order.
    fn restore(&self, platforms: &mut [Platform]) {
        let n = platforms.len();
        self.gyro.restore(platforms.iter_mut().map(|p| &mut p.gyro));
        self.demod
            .restore(platforms.iter_mut().map(|p| p.chain.demod_mut()));
        let mut chg: Vec<&mut ChargeAmplifier> = Vec::with_capacity(2 * n);
        let mut aaf: Vec<&mut AntiAliasFilter> = Vec::with_capacity(2 * n);
        let mut pga: Vec<&mut Pga> = Vec::with_capacity(2 * n);
        let mut adc: Vec<&mut SarAdc> = Vec::with_capacity(2 * n);
        let mut dac: Vec<&mut Dac> = Vec::with_capacity(3 * n);
        let mut sec_chg: Vec<&mut ChargeAmplifier> = Vec::with_capacity(n);
        let mut sec_aaf: Vec<&mut AntiAliasFilter> = Vec::with_capacity(n);
        let mut sec_pga: Vec<&mut Pga> = Vec::with_capacity(n);
        let mut sec_adc: Vec<&mut SarAdc> = Vec::with_capacity(n);
        let mut reb_dac: Vec<&mut Dac> = Vec::with_capacity(n);
        let mut rate_dac: Vec<&mut Dac> = Vec::with_capacity(n);
        for p in platforms.iter_mut() {
            chg.push(&mut p.charge_pri);
            sec_chg.push(&mut p.charge_sec);
            aaf.push(&mut p.aaf_pri);
            sec_aaf.push(&mut p.aaf_sec);
            pga.push(&mut p.pga_pri);
            sec_pga.push(&mut p.pga_sec);
            adc.push(&mut p.adc_pri);
            sec_adc.push(&mut p.adc_sec);
            dac.push(&mut p.drive_dac);
            reb_dac.push(&mut p.rebalance_dac);
            rate_dac.push(&mut p.rate_dac);
        }
        chg.append(&mut sec_chg);
        aaf.append(&mut sec_aaf);
        pga.append(&mut sec_pga);
        adc.append(&mut sec_adc);
        dac.append(&mut reb_dac);
        dac.append(&mut rate_dac);
        self.charge.restore(chg.into_iter());
        self.aaf.restore(aaf.into_iter());
        self.pga.restore(pga.into_iter());
        self.adc.restore(adc.into_iter());
        self.dac.restore(dac.into_iter());
    }

    /// Monitor-boundary re-extraction: everything is re-read from the
    /// platforms (cheap, O(lanes) per kernel) except the ADC kernel,
    /// whose seeded DNL tables are refreshed in place unless a converter
    /// was rebuilt at a new resolution ([`AdcLanes::refresh`]).
    fn re_extract(&mut self, platforms: &[Platform], sub_dt: f64, dsp_dt: f64) {
        let p = platforms;
        self.gyro = GyroLanes::extract(p.iter().map(|p| &p.gyro), sub_dt)
            .expect("lockstep lanes stay phase-uniform");
        self.charge = ChargeLanes::extract(
            p.iter()
                .map(|p| &p.charge_pri)
                .chain(p.iter().map(|p| &p.charge_sec)),
        )
        .expect("lockstep lanes stay phase-uniform");
        self.aaf = AafLanes::extract(
            p.iter()
                .map(|p| &p.aaf_pri)
                .chain(p.iter().map(|p| &p.aaf_sec)),
        );
        self.pga = PgaLanes::extract(
            p.iter()
                .map(|p| &p.pga_pri)
                .chain(p.iter().map(|p| &p.pga_sec)),
            dsp_dt,
        )
        .expect("lockstep lanes stay phase-uniform");
        if !self.adc.refresh(
            p.iter()
                .map(|p| &p.adc_pri)
                .chain(p.iter().map(|p| &p.adc_sec)),
        ) {
            self.adc = AdcLanes::extract(
                p.iter()
                    .map(|p| &p.adc_pri)
                    .chain(p.iter().map(|p| &p.adc_sec)),
            )
            .expect("fleet-run ADCs stay fault-free and phase-uniform");
        }
        self.demod = DemodLanes::extract(p.iter().map(|p| p.chain.demod()))
            .expect("lockstep lanes stay decimation-uniform");
        self.dac = DacLanes::extract(
            p.iter()
                .map(|p| &p.drive_dac)
                .chain(p.iter().map(|p| &p.rebalance_dac))
                .chain(p.iter().map(|p| &p.rate_dac)),
        )
        .expect("lockstep lanes stay phase-uniform");
    }
}

/// N platforms stepping in lockstep with structure-of-arrays state for the
/// hot tick kernels.
///
/// The fleet batches the per-tick analog/mixed-signal work — resonator
/// propagation, charge conversion, anti-alias filtering, PGA, ADC, the
/// demodulator's decimating FIR pair, and the three DACs — across lanes in
/// contiguous arrays so the per-lane arithmetic auto-vectorizes, while the
/// cold components (8051, JTAG, supervisor, register banks, conditioning
/// chain control law) stay per-platform and are serviced at the monitoring
/// cadence exactly as [`Platform::step`] would.
///
/// # Determinism contract
///
/// Stepping a fleet is **bit-identical** to stepping each member platform
/// individually: every lane kernel transcribes the scalar expression
/// shapes and every noise generator draws in the same per-tick order, so
/// [`Platform::save_state`] bytes agree after any number of ticks (the
/// campaign's Monte-Carlo CSV contract builds on this).
///
/// # Eligibility
///
/// [`PlatformFleet::new`] rejects sets it cannot run in lockstep —
/// mismatched rates or monitor phases, an enabled 8051 (the CPU slice is
/// inherently serial), scheduled fault plans, armed flight recorders or
/// span traces, or components whose lane state is not uniform. Rejection
/// returns the platforms for scalar execution.
pub struct PlatformFleet {
    platforms: Vec<Platform>,
    k: FleetKernels,
    // Uniform run invariants (validated at construction).
    dsp_dt: f64,
    sub_dt: f64,
    oversample: u32,
    monitor_countdown: u64,
    tick: u64,
    dsp_rate: f64,
    // Per-lane mirrors of Platform hot-path fields.
    drive_force: Vec<f64>,
    rebalance_force: Vec<f64>,
    sup_enabled: Vec<bool>,
    safe_output: Vec<bool>,
    vref_drive: Vec<f64>,
    pri_min: Vec<f64>,
    pri_max: Vec<f64>,
    sec_min: Vec<f64>,
    sec_max: Vec<f64>,
    // Per-lane scratch, allocated once. The analog buffers are 2N wide
    // (`[primary | secondary]`) and the DAC buffers 3N wide
    // (`[drive | rebalance | rate]`), matching the fused kernels.
    pick: Vec<f64>,
    chg: Vec<f64>,
    v: Vec<f64>,
    amp: Vec<f64>,
    q: Vec<i32>,
    s_ref: Vec<Q15>,
    c_ref: Vec<Q15>,
    x_sec: Vec<Q15>,
    p_drive: Vec<Q15>,
    iq_out: Vec<IqSample>,
    raw: Vec<i32>,
    dac_out: Vec<f64>,
}

impl PlatformFleet {
    /// Builds a lockstep fleet over `platforms`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetIneligible`] — with the platforms handed back — when
    /// the set cannot run in lockstep; see the type-level eligibility
    /// notes.
    pub fn new(platforms: Vec<Platform>) -> Result<Self, FleetIneligible> {
        if let Err(reason) = Self::check_eligibility(&platforms) {
            return Err(FleetIneligible { reason, platforms });
        }
        let p0 = &platforms[0];
        let (dsp_dt, sub_dt, oversample) = (p0.dsp_dt, p0.sub_dt, p0.config.analog_oversample);
        let (monitor_countdown, tick) = (p0.monitor_countdown, p0.tick);
        let dsp_rate = p0.config.dsp_rate.0;
        let k = match FleetKernels::extract(&platforms, sub_dt, dsp_dt) {
            Ok(k) => k,
            Err(reason) => {
                return Err(FleetIneligible {
                    reason: reason.to_owned(),
                    platforms,
                })
            }
        };
        let n = platforms.len();
        let mut fleet = Self {
            k,
            dsp_dt,
            sub_dt,
            oversample,
            monitor_countdown,
            tick,
            dsp_rate,
            drive_force: Vec::with_capacity(n),
            rebalance_force: Vec::with_capacity(n),
            sup_enabled: Vec::with_capacity(n),
            safe_output: Vec::with_capacity(n),
            vref_drive: Vec::with_capacity(n),
            pri_min: Vec::with_capacity(n),
            pri_max: Vec::with_capacity(n),
            sec_min: Vec::with_capacity(n),
            sec_max: Vec::with_capacity(n),
            pick: vec![0.0; 2 * n],
            chg: vec![0.0; 2 * n],
            v: vec![0.0; 2 * n],
            amp: vec![0.0; 2 * n],
            q: vec![0; 2 * n],
            s_ref: vec![Q15::ZERO; n],
            c_ref: vec![Q15::ZERO; n],
            x_sec: vec![Q15::ZERO; n],
            p_drive: vec![Q15::ZERO; n],
            iq_out: vec![IqSample::default(); n],
            raw: vec![0; 3 * n],
            dac_out: vec![0.0; 3 * n],
            platforms,
        };
        for p in &fleet.platforms {
            fleet.drive_force.push(p.drive_force);
            fleet.rebalance_force.push(p.rebalance_force);
            fleet.sup_enabled.push(p.config.supervisor.enabled);
            fleet.safe_output.push(p.supervisor.wants_safe_output());
            fleet.vref_drive.push(p.config.drive_dac.vref.0);
            fleet.pri_min.push(p.pri_min);
            fleet.pri_max.push(p.pri_max);
            fleet.sec_min.push(p.sec_min);
            fleet.sec_max.push(p.sec_max);
        }
        Ok(fleet)
    }

    /// Static lockstep preconditions (everything except lane extraction).
    fn check_eligibility(platforms: &[Platform]) -> Result<(), String> {
        let Some(p0) = platforms.first() else {
            return Err("fleet needs at least one platform".into());
        };
        for (l, p) in platforms.iter().enumerate() {
            let c = &p.config;
            if c.dsp_rate != p0.config.dsp_rate
                || c.analog_oversample != p0.config.analog_oversample
            {
                return Err(format!("lane {l}: mismatched DSP rate or oversample"));
            }
            if p.tick != p0.tick || p.monitor_countdown != p0.monitor_countdown {
                return Err(format!("lane {l}: not tick/monitor-phase aligned"));
            }
            if c.cpu_enabled {
                return Err(format!("lane {l}: monitor CPU enabled (serial component)"));
            }
            if p.faults_active || !c.faults.is_empty() {
                return Err(format!("lane {l}: scheduled fault plan"));
            }
            if p.recorder.is_some() {
                return Err(format!("lane {l}: flight recorder armed"));
            }
            if p.trace.is_some() {
                return Err(format!("lane {l}: span trace attached"));
            }
            if p.drive_gate != 1.0 || p.pickoff_gate != 1.0 {
                return Err(format!("lane {l}: gated drive or pickoff path"));
            }
            if !p.chain.is_enabled() {
                return Err(format!("lane {l}: conditioning chain disabled"));
            }
        }
        Ok(())
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.platforms.len()
    }

    /// DSP ticks executed (uniform across lanes).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Simulated time, seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.tick as f64 / self.dsp_rate
    }

    /// Rate output of one lane decoded to °/s — byte-identical to
    /// [`Platform::rate_output_dps`] on the member platform.
    #[must_use]
    pub fn rate_output_dps(&self, lane: usize) -> f64 {
        // Rate DACs occupy the last third of the fused DAC kernel.
        let held = self.k.dac.held_outputs()[2 * self.platforms.len() + lane];
        let mid = self.k.dac.midscales()[2 * self.platforms.len() + lane];
        (held - mid) / 0.005
    }

    /// Advances every lane one DSP tick.
    pub fn step(&mut self) {
        self.step_block(1);
    }

    /// Advances every lane `n` DSP ticks in lockstep.
    pub fn step_block(&mut self, n: u64) {
        for _ in 0..n {
            self.tick_lanes();
        }
    }

    /// One batched DSP tick across all lanes (the SoA transcription of
    /// [`Platform::step`]'s tick body for fault-free, CPU-off platforms).
    #[inline]
    fn tick_lanes(&mut self) {
        let n = self.platforms.len();
        // Analog solver substeps with held DAC outputs. The charge/AAF
        // kernels run once over the fused 2N `[pri | sec]` population.
        for _ in 0..self.oversample {
            let (pick_pri, pick_sec) = self.pick.split_at_mut(n);
            self.k
                .gyro
                .step(&self.drive_force, &self.rebalance_force, pick_pri, pick_sec);
            self.k.charge.convert(&self.pick, &mut self.chg);
            self.k.aaf.process(&self.chg, self.sub_dt, &mut self.v);
        }

        // Acquisition at the DSP rate (fused 2N kernels).
        self.k.pga.process(&self.v, &mut self.amp);
        self.k.adc.convert_q15(&self.amp, &mut self.q);
        for l in 0..n {
            if self.sup_enabled[l] {
                let pf = Q15::from_raw(self.q[l]).to_f64();
                let sf = Q15::from_raw(self.q[n + l]).to_f64();
                self.pri_min[l] = self.pri_min[l].min(pf);
                self.pri_max[l] = self.pri_max[l].max(pf);
                self.sec_min[l] = self.sec_min[l].min(sf);
                self.sec_max[l] = self.sec_max[l].max(sf);
            }
        }

        // Hardwired DSP: the per-lane control law (PLL, AGC, loop filters)
        // stays AoS; the decimating-FIR demodulator runs batched between
        // its two halves.
        for (l, p) in self.platforms.iter_mut().enumerate() {
            let (s, c, primary_drive) = p.chain.primary_stage(Q15::from_raw(self.q[l]));
            self.s_ref[l] = s;
            self.c_ref[l] = c;
            self.p_drive[l] = primary_drive;
            self.x_sec[l] = Q15::from_raw(self.q[n + l]);
        }
        let emitted = self
            .k
            .demod
            .process(&self.x_sec, &self.s_ref, &self.c_ref, &mut self.iq_out);
        for (l, p) in self.platforms.iter_mut().enumerate() {
            let demod_out = if emitted { Some(self.iq_out[l]) } else { None };
            let drive =
                p.chain
                    .finish_stage(demod_out, self.s_ref[l], self.c_ref[l], self.p_drive[l]);
            self.raw[l] = drive.primary.raw();
            self.raw[n + l] = drive.secondary.raw();
            let rate_word = if self.safe_output[l] {
                Q15::ZERO
            } else {
                drive.rate_out
            };
            self.raw[2 * n + l] = rate_word.raw();
            // Real-time SRAM capture of the rate stream.
            p.bus
                .sram
                .capture(drive.rate_out.raw().clamp(-32768, 32767) as i16 as u16);
        }

        // One fused DAC write over `[drive | rebalance | rate]` (forces
        // normalized to DAC full scale; both loop forces use the drive
        // vref, as in the scalar path). The gates are 1.0 by eligibility,
        // so the scalar `* gate` factors are identity.
        self.k.dac.write_q15(&self.raw, &mut self.dac_out);
        for l in 0..n {
            self.drive_force[l] = self.dac_out[l] / self.vref_drive[l];
            self.rebalance_force[l] = self.dac_out[n + l] / self.vref_drive[l];
        }

        self.tick += 1;
        self.monitor_countdown -= 1;
        if self.monitor_countdown == 0 {
            self.monitor_boundary();
        }
    }

    /// Monitoring-cadence boundary: write the batched state back, run each
    /// platform's [`Platform::monitor_service`] (registers, AFE, probes,
    /// supervisor, telemetry — the cold AoS path), then re-extract.
    fn monitor_boundary(&mut self) {
        self.sync_back();
        for p in &mut self.platforms {
            p.monitor_service();
        }
        self.resync_after_service();
    }

    /// Writes every lane kernel and scalar mirror back into the member
    /// platforms, leaving them byte-identical to individually stepped ones.
    fn sync_back(&mut self) {
        self.k.restore(&mut self.platforms);
        for (l, p) in self.platforms.iter_mut().enumerate() {
            p.tick = self.tick;
            p.monitor_countdown = self.monitor_countdown;
            p.drive_force = self.drive_force[l];
            p.rebalance_force = self.rebalance_force[l];
            p.pri_min = self.pri_min[l];
            p.pri_max = self.pri_max[l];
            p.sec_min = self.sec_min[l];
            p.sec_max = self.sec_max[l];
        }
    }

    /// Re-extracts kernels and refreshes the cached per-lane mirrors after
    /// the platforms were serviced (or mutated by the caller).
    fn resync_after_service(&mut self) {
        self.k.re_extract(&self.platforms, self.sub_dt, self.dsp_dt);
        self.monitor_countdown = self.platforms[0].monitor_countdown;
        self.tick = self.platforms[0].tick;
        for (l, p) in self.platforms.iter().enumerate() {
            self.safe_output[l] = p.supervisor.wants_safe_output();
            self.sup_enabled[l] = p.config.supervisor.enabled;
            self.drive_force[l] = p.drive_force;
            self.rebalance_force[l] = p.rebalance_force;
            self.pri_min[l] = p.pri_min;
            self.pri_max[l] = p.pri_max;
            self.sec_min[l] = p.sec_min;
            self.sec_max[l] = p.sec_max;
        }
    }

    /// Applies `f` to every member platform with the batched state synced
    /// back first (stimulus changes between lockstep segments — rate
    /// steps, temperature points).
    ///
    /// # Panics
    ///
    /// Panics if the closure breaks fleet eligibility (injects a fault,
    /// enables the CPU, desynchronizes tick phase): lane re-extraction is
    /// infallible only under the lockstep invariants.
    pub fn for_each_platform(&mut self, mut f: impl FnMut(&mut Platform)) {
        self.sync_back();
        for p in &mut self.platforms {
            f(p);
        }
        if let Err(reason) = Self::check_eligibility(&self.platforms) {
            panic!("fleet closure broke lockstep eligibility: {reason}");
        }
        self.resync_after_service();
    }

    /// Read access to one member platform **after** syncing the batched
    /// state back, so every observable matches a scalar-stepped platform.
    pub fn platform_synced(&mut self, lane: usize) -> &Platform {
        self.sync_back();
        &self.platforms[lane]
    }

    /// Dissolves the fleet, returning the member platforms with all
    /// batched state written back — each byte-identical (per
    /// [`Platform::save_state`]) to a platform stepped individually.
    #[must_use]
    pub fn into_platforms(mut self) -> Vec<Platform> {
        self.sync_back();
        self.platforms
    }
}
