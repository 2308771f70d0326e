//! Cross-sensor datasheet report — the paper's Table 1 across families.
//!
//! The paper characterizes one sensor (the gyro) in a datasheet-style
//! table. With the generic [`crate::frontend::SensorChannel`] the same
//! campaign binary sweeps *several* sensor families; this module renders
//! the merged results as a cross-sensor Markdown/CSV report: one column
//! per device, one row per parameter (full scale, sensitivity, linearity,
//! noise density, zero offset) plus the per-device wire-fault detection
//! coverage the dbus-adc status taxonomy introduced.
//!
//! The report is plain data in, strings out: the `sensor_datasheet` bench
//! bin builds [`SensorColumn`]s from campaign outcomes and commits the
//! rendered `DATASHEET.md` as a repository artifact.

use std::fmt::Write as _;

/// Detection result for one wire-fault class on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverage {
    /// Fault-class label (`wire_not_connected`, ...).
    pub class: String,
    /// Whether the channel supervisor latched the matching status.
    pub detected: bool,
    /// Detection latency in milliseconds (negative when undetected).
    pub latency_ms: f64,
}

/// One device column of the cross-sensor report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensorColumn {
    /// Device name (column header).
    pub device: String,
    /// Engineering unit of the conditioned output.
    pub unit: String,
    /// Human-readable full-scale range (e.g. `"20..300 kPa"`).
    pub full_scale: String,
    /// Front-end sensitivity, volts per engineering unit.
    pub sensitivity_v_per_eu: Option<f64>,
    /// Conditioned transfer slope (ideal 1.0).
    pub transfer_slope: Option<f64>,
    /// Worst transfer residual, % of full scale.
    pub linearity_pct_fs: Option<f64>,
    /// In-band output noise density, engineering units per √Hz.
    pub noise_density_eu_rthz: Option<f64>,
    /// Zero/offset error, engineering units.
    pub offset_eu: Option<f64>,
    /// Wire-fault detection results, catalog order.
    pub fault_coverage: Vec<FaultCoverage>,
}

impl SensorColumn {
    /// Whether the column holds a characterization: a sensitivity and a
    /// finite, positive noise density. A density of 0 is an estimator that
    /// saw no noise, a failed measurement rather than a quiet sensor.
    #[must_use]
    pub fn characterized(&self) -> bool {
        let density = self.noise_density_eu_rthz;
        self.sensitivity_v_per_eu.is_some() && density.is_some_and(|d| d.is_finite() && d > 0.0)
    }
}

/// The assembled cross-sensor report.
#[derive(Debug, Clone, Default)]
pub struct CrossSensorReport {
    /// Device columns, in sweep order.
    pub columns: Vec<SensorColumn>,
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => fmt_sig(x),
        None => "—".to_owned(),
    }
}

/// Four significant digits, plain notation where reasonable.
fn fmt_sig(x: f64) -> String {
    if x == 0.0 {
        return "0".to_owned();
    }
    let mag = x.abs();
    if (1.0e-3..1.0e5).contains(&mag) {
        let decimals = (3 - mag.log10().floor() as i32).clamp(0, 6) as usize;
        format!("{x:.decimals$}")
    } else {
        format!("{x:.3e}")
    }
}

impl CrossSensorReport {
    /// Appends a device column.
    pub fn push(&mut self, column: SensorColumn) {
        self.columns.push(column);
    }

    /// Every fault class appearing in any column, first-seen order.
    #[must_use]
    pub fn fault_classes(&self) -> Vec<String> {
        let mut classes: Vec<String> = Vec::new();
        for col in &self.columns {
            for fc in &col.fault_coverage {
                if !classes.contains(&fc.class) {
                    classes.push(fc.class.clone());
                }
            }
        }
        classes
    }

    /// Renders the Markdown report (one column per device, Table-1 style).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str("# Cross-sensor datasheet\n\n");
        md.push_str(
            "One conditioning platform, many sensors: every column below was \
             characterized by the same campaign binary through the same AFE/DSP \
             IP portfolio (`cargo run --release -p ascp-bench --bin sensor_datasheet`).\n\n",
        );

        let mut header = String::from("| Parameter |");
        let mut rule = String::from("|---|");
        for col in &self.columns {
            let _ = write!(header, " {} |", col.device);
            rule.push_str("---|");
        }
        md.push_str(&header);
        md.push('\n');
        md.push_str(&rule);
        md.push('\n');

        let row = |md: &mut String, label: &str, cells: Vec<String>| {
            let mut line = format!("| {label} |");
            for c in cells {
                let _ = write!(line, " {c} |");
            }
            md.push_str(&line);
            md.push('\n');
        };

        row(
            &mut md,
            "Output unit",
            self.columns.iter().map(|c| c.unit.clone()).collect(),
        );
        row(
            &mut md,
            "Full scale",
            self.columns.iter().map(|c| c.full_scale.clone()).collect(),
        );
        row(
            &mut md,
            "Sensitivity (V per unit)",
            self.columns
                .iter()
                .map(|c| fmt_opt(c.sensitivity_v_per_eu))
                .collect(),
        );
        row(
            &mut md,
            "Transfer slope (ideal 1)",
            self.columns
                .iter()
                .map(|c| fmt_opt(c.transfer_slope))
                .collect(),
        );
        row(
            &mut md,
            "Linearity (% FS)",
            self.columns
                .iter()
                .map(|c| fmt_opt(c.linearity_pct_fs))
                .collect(),
        );
        row(
            &mut md,
            "Noise density (unit/√Hz)",
            self.columns
                .iter()
                .map(|c| fmt_opt(c.noise_density_eu_rthz))
                .collect(),
        );
        row(
            &mut md,
            "Zero/offset error (unit)",
            self.columns.iter().map(|c| fmt_opt(c.offset_eu)).collect(),
        );

        for class in self.fault_classes() {
            let cells = self
                .columns
                .iter()
                .map(|c| {
                    c.fault_coverage
                        .iter()
                        .find(|fc| fc.class == class)
                        .map_or_else(
                            || "n/a".to_owned(),
                            |fc| {
                                if fc.detected {
                                    format!("detected ({} ms)", fmt_sig(fc.latency_ms))
                                } else {
                                    "undetected".to_owned()
                                }
                            },
                        )
                })
                .collect();
            row(&mut md, &format!("Fault: {class}"), cells);
        }

        let cells = self
            .columns
            .iter()
            .map(|c| {
                let hit = c.fault_coverage.iter().filter(|fc| fc.detected).count();
                format!("{hit}/{}", c.fault_coverage.len())
            })
            .collect();
        row(&mut md, "Fault classes detected", cells);
        md
    }

    /// Renders the long-format CSV (`device,parameter,value`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("device,parameter,value\n");
        for col in &self.columns {
            let mut num = |name: &str, v: Option<f64>| {
                if let Some(x) = v {
                    let _ = writeln!(csv, "{},{name},{x}", col.device);
                }
            };
            num("sensitivity_v_per_eu", col.sensitivity_v_per_eu);
            num("transfer_slope", col.transfer_slope);
            num("linearity_pct_fs", col.linearity_pct_fs);
            num("noise_density_eu_rthz", col.noise_density_eu_rthz);
            num("offset_eu", col.offset_eu);
            for fc in &col.fault_coverage {
                let _ = writeln!(
                    csv,
                    "{},fault_detected.{},{}",
                    col.device,
                    fc.class,
                    u8::from(fc.detected)
                );
                let _ = writeln!(
                    csv,
                    "{},fault_latency_ms.{},{}",
                    col.device, fc.class, fc.latency_ms
                );
            }
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CrossSensorReport {
        let mut rep = CrossSensorReport::default();
        rep.push(SensorColumn {
            device: "map".into(),
            unit: "kPa".into(),
            full_scale: "20..300 kPa".into(),
            sensitivity_v_per_eu: Some(0.0107),
            transfer_slope: Some(1.001),
            linearity_pct_fs: Some(0.12),
            noise_density_eu_rthz: Some(0.03),
            offset_eu: Some(-0.4),
            fault_coverage: vec![
                FaultCoverage {
                    class: "wire_not_connected".into(),
                    detected: true,
                    latency_ms: 4.0,
                },
                FaultCoverage {
                    class: "wire_short_to_ground".into(),
                    detected: false,
                    latency_ms: -1.0,
                },
            ],
        });
        rep
    }

    #[test]
    fn markdown_has_columns_and_fault_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("| Parameter | map |"));
        assert!(md.contains("Fault: wire_not_connected"));
        assert!(md.contains("detected (4.000 ms)"));
        assert!(md.contains("undetected"));
        assert!(md.contains("| Fault classes detected | 1/2 |"));
    }

    #[test]
    fn csv_is_long_format() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("device,parameter,value\n"));
        assert!(csv.contains("map,fault_detected.wire_not_connected,1"));
        assert!(csv.contains("map,fault_detected.wire_short_to_ground,0"));
        assert!(csv.contains("map,sensitivity_v_per_eu,0.0107"));
    }

    #[test]
    fn missing_values_render_as_dash() {
        let mut rep = CrossSensorReport::default();
        rep.push(SensorColumn {
            device: "bare".into(),
            unit: "x".into(),
            full_scale: "0..1".into(),
            ..SensorColumn::default()
        });
        let md = rep.to_markdown();
        assert!(md.contains("| Sensitivity (V per unit) | — |"));
    }

    /// A noise density that is missing, zero, negative or not finite fails
    /// the characterization, as does a missing sensitivity.
    #[test]
    fn characterized_needs_a_positive_finite_noise_density() {
        let col = sample().columns.remove(0);
        assert!(col.characterized());
        for density in [
            None,
            Some(0.0),
            Some(-1.0e-4),
            Some(f64::NAN),
            Some(f64::INFINITY),
        ] {
            let bad = SensorColumn {
                noise_density_eu_rthz: density,
                ..col.clone()
            };
            assert!(!bad.characterized(), "{density:?}");
        }
        let unscaled = SensorColumn {
            sensitivity_v_per_eu: None,
            ..col
        };
        assert!(!unscaled.characterized());
    }
}
