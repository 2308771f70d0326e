//! Campaign coverage accounting: fault class × supervisor transition.
//!
//! A fault campaign is only as good as the state space it exercises. This
//! module folds finished [`ScenarioOutcome`]s
//! into a coverage matrix whose rows are fault classes (the eleven
//! [`FaultKind`] labels plus `"none"` for fault-free
//! scenarios) and whose columns are the canonical supervisor FSM edges
//! ([`FSM_EDGES`]). A cell records which
//! scenarios drove that fault class through that transition; empty cells are
//! untested behaviour, reported explicitly instead of silently.
//!
//! The matrix is derived purely from deterministic outcome fields
//! (`fault_classes`, `transitions`), so it is bit-stable across thread
//! counts and warm starts, and its CSV long form doubles as a coverage
//! baseline: [`CoverageMatrix::regressions`] diffs a current run against a
//! committed baseline so CI can fail when a previously-exercised cell goes
//! dark.

use crate::campaign::ScenarioOutcome;
use crate::supervisor::FSM_EDGES;
use ascp_sim::fault::FaultKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Row label for scenarios that inject no faults at all.
pub const NO_FAULT_CLASS: &str = "none";

/// Header line of the long-form CSV ([`CoverageMatrix::to_csv`]).
const CSV_HEADER: &str = "scenario,fault_class,transition";

/// A coverage baseline that is not a [`CoverageMatrix::to_csv`] dump: the
/// header is missing, or a row lacks one of its three fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line number of the offending line.
    pub line: usize,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 1 {
            write!(f, "coverage baseline lacks the `{CSV_HEADER}` header")
        } else {
            write!(
                f,
                "coverage baseline line {}: expected three non-empty fields `{CSV_HEADER}`",
                self.line
            )
        }
    }
}

impl std::error::Error for BaselineError {}

/// Fault-class × supervisor-transition coverage matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMatrix {
    /// Row universe: every known fault class, plus observed extras.
    classes: Vec<String>,
    /// Column universe: every canonical FSM edge, plus observed extras.
    transitions: Vec<(String, String)>,
    /// `(class, "from->to")` → scenario names that exercised the cell.
    cells: BTreeMap<(String, String), BTreeSet<String>>,
    /// Scenario count folded in.
    scenarios: usize,
}

fn edge_key(from: &str, to: &str) -> String {
    format!("{from}->{to}")
}

impl CoverageMatrix {
    /// Builds the matrix from finished scenario outcomes.
    ///
    /// Every transition a scenario observed is credited to every fault
    /// class that scenario injected (or to [`NO_FAULT_CLASS`] when it
    /// injected none): the matrix answers "under which fault conditions has
    /// this supervisor edge been seen", not "which fault caused it".
    #[must_use]
    pub fn from_outcomes(outcomes: &[ScenarioOutcome]) -> Self {
        let mut m = Self {
            classes: FaultKind::ALL_LABELS
                .iter()
                .map(|&s| s.to_owned())
                .collect(),
            transitions: FSM_EDGES
                .iter()
                .map(|&(f, t)| (f.to_owned(), t.to_owned()))
                .collect(),
            cells: BTreeMap::new(),
            scenarios: outcomes.len(),
        };
        for out in outcomes {
            let classes: Vec<&str> = if out.fault_classes.is_empty() {
                vec![NO_FAULT_CLASS]
            } else {
                out.fault_classes.clone()
            };
            for class in &classes {
                if !m.classes.iter().any(|c| c == class) {
                    m.classes.push((*class).to_owned());
                }
            }
            for &(from, to) in &out.transitions {
                if !m.transitions.iter().any(|(f, t)| f == from && t == to) {
                    m.transitions.push((from.to_owned(), to.to_owned()));
                }
                for class in &classes {
                    m.cells
                        .entry(((*class).to_owned(), edge_key(from, to)))
                        .or_default()
                        .insert(out.name.clone());
                }
            }
        }
        m
    }

    /// Number of scenarios folded into the matrix.
    #[must_use]
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Row labels (known fault classes first, then observed extras).
    #[must_use]
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Scenarios credited to a `(class, from, to)` cell, empty when dark.
    #[must_use]
    pub fn cell(&self, class: &str, from: &str, to: &str) -> Vec<&str> {
        self.cells
            .get(&(class.to_owned(), edge_key(from, to)))
            .map(|set| set.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Fault classes exercised by at least one scenario transition.
    #[must_use]
    pub fn exercised_classes(&self) -> Vec<&str> {
        self.classes
            .iter()
            .filter(|class| self.cells.keys().any(|(c, _)| c == *class))
            .map(String::as_str)
            .collect()
    }

    /// `(class, transition)` cells with no covering scenario.
    #[must_use]
    pub fn unexercised(&self) -> Vec<(String, String)> {
        let mut dark = Vec::new();
        for class in &self.classes {
            for (from, to) in &self.transitions {
                let key = (class.clone(), edge_key(from, to));
                if !self.cells.contains_key(&key) {
                    dark.push(key);
                }
            }
        }
        dark
    }

    /// Renders the matrix as a GitHub-flavoured markdown table.
    ///
    /// Cells show the number of covering scenarios; `·` marks dark cells.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# Coverage matrix ({} scenarios, {}/{} fault classes exercised)",
            self.scenarios,
            self.exercised_classes().len(),
            self.classes.len(),
        );
        s.push('\n');
        s.push_str("| fault class |");
        for (from, to) in &self.transitions {
            let _ = write!(s, " {from}→{to} |");
        }
        s.push('\n');
        s.push_str("|---|");
        for _ in &self.transitions {
            s.push_str("---|");
        }
        s.push('\n');
        for class in &self.classes {
            let _ = write!(s, "| `{class}` |");
            for (from, to) in &self.transitions {
                let key = (class.clone(), edge_key(from, to));
                match self.cells.get(&key) {
                    Some(set) => {
                        let _ = write!(s, " {} |", set.len());
                    }
                    None => s.push_str(" · |"),
                }
            }
            s.push('\n');
        }
        let dark = self.unexercised();
        let _ = writeln!(
            s,
            "\n{} of {} cells exercised.",
            self.classes.len() * self.transitions.len() - dark.len(),
            self.classes.len() * self.transitions.len(),
        );
        s
    }

    /// Long-form CSV: one `scenario,fault_class,transition` row per credit.
    ///
    /// Rows are sorted, so the CSV is byte-stable and diffs cleanly; it is
    /// also the baseline format consumed by [`Self::regressions`].
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for ((class, edge), scenarios) in &self.cells {
            for scenario in scenarios {
                rows.push(format!("{scenario},{class},{edge}"));
            }
        }
        rows.sort();
        let mut s = format!("{CSV_HEADER}\n");
        for row in rows {
            s.push_str(&row);
            s.push('\n');
        }
        s
    }

    /// `(fault_class, transition)` pairs covered in `baseline_csv` (a prior
    /// [`Self::to_csv`] dump) but dark in this matrix.
    ///
    /// Scenario names are deliberately ignored: renaming or merging
    /// scenarios is fine as long as the *cell* stays exercised.
    ///
    /// # Errors
    ///
    /// [`BaselineError`] when the baseline lacks the header or a row lacks
    /// one of its three fields: a baseline that checks nothing must not
    /// pass as one that found no regression. A header-only baseline is
    /// valid (it covers no cell).
    pub fn regressions(&self, baseline_csv: &str) -> Result<Vec<(String, String)>, BaselineError> {
        let mut lines = baseline_csv.lines();
        if lines.next().map(str::trim) != Some(CSV_HEADER) {
            return Err(BaselineError { line: 1 });
        }
        let current: BTreeSet<(&str, &str)> = self
            .cells
            .keys()
            .map(|(class, edge)| (class.as_str(), edge.as_str()))
            .collect();
        let mut lost = BTreeSet::new();
        for (i, line) in lines.enumerate() {
            let fields: Vec<&str> = line.splitn(3, ',').map(str::trim).collect();
            let [_scenario, class, edge] = fields[..] else {
                return Err(BaselineError { line: i + 2 });
            };
            if fields.iter().any(|f| f.is_empty()) {
                return Err(BaselineError { line: i + 2 });
            }
            if !current.contains(&(class, edge)) {
                lost.insert((class.to_owned(), edge.to_owned()));
            }
        }
        Ok(lost.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_baselines_are_errors() {
        let m = CoverageMatrix::default();
        assert_eq!(m.regressions("garbage"), Err(BaselineError { line: 1 }));
        assert_eq!(m.regressions(""), Err(BaselineError { line: 1 }));
        let short_row = format!("{CSV_HEADER}\ns,adc_overload,init->normal\ns,adc_overload\n");
        assert_eq!(m.regressions(&short_row), Err(BaselineError { line: 3 }));
        let empty_field = format!("{CSV_HEADER}\ns,,init->normal\n");
        assert_eq!(m.regressions(&empty_field), Err(BaselineError { line: 2 }));
    }

    #[test]
    fn header_only_baseline_covers_nothing() {
        let m = CoverageMatrix::default();
        assert_eq!(m.regressions(&format!("{CSV_HEADER}\n")), Ok(Vec::new()));
    }
}
