//! SLO regression gates over committed percentile baselines.
//!
//! A baseline file (`rl-slo/v1`) commits the percentile ceilings a workload
//! is allowed to exhibit, plus a relative tolerance:
//!
//! ```json
//! {"schema": "rl-slo/v1",
//!  "tolerance_pct": 25,
//!  "families": {
//!    "serve/queue_wait_us": {"p50": 200, "p99": 5000},
//!    "serve/job_wall_us":   {"p99": 1500000}}}
//! ```
//!
//! `rlcheck slo <baseline.json> --dir <journal>` evaluates the journal's
//! merged histograms against the baseline: an observed percentile above
//! `ceiling · (1 + tolerance_pct/100)` is a violation and the command exits
//! nonzero — the CI regression gate. A family present in the baseline but
//! absent from the journal is also a violation (a silently-vanished metric
//! must not pass the gate); extra observed families are ignored, so adding
//! instrumentation never breaks an existing baseline.

use rl_json::{FromJson, Json, JsonError};

use crate::hist::HistogramSnapshot;

/// The schema tag baseline files must carry.
pub const SLO_SCHEMA: &str = "rl-slo/v1";

/// One family's committed ceilings (all optional, in the histogram's unit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloCeilings {
    /// Ceiling on the estimated median.
    pub p50: Option<u64>,
    /// Ceiling on the estimated 90th percentile.
    pub p90: Option<u64>,
    /// Ceiling on the estimated 99th percentile.
    pub p99: Option<u64>,
    /// Ceiling on the observed maximum.
    pub max: Option<u64>,
}

/// A parsed `rl-slo/v1` baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBaseline {
    /// Allowed relative overshoot, in percent (e.g. 25 allows 1.25×).
    pub tolerance_pct: u64,
    /// Ceilings per histogram family.
    pub families: Vec<(String, SloCeilings)>,
}

impl FromJson for SloBaseline {
    fn from_json(value: &Json) -> Result<SloBaseline, JsonError> {
        let schema = String::from_json(value.field("schema")?)?;
        if schema != SLO_SCHEMA {
            return Err(JsonError::custom(format!(
                "unsupported baseline schema {schema:?} (expected {SLO_SCHEMA:?})"
            )));
        }
        let tolerance_pct = match value.get("tolerance_pct") {
            Some(v) => u64::from_json(v)?,
            None => 0,
        };
        let Json::Obj(fields) = value.field("families")? else {
            return Err(JsonError::custom("families must be an object"));
        };
        let mut families = Vec::with_capacity(fields.len());
        for (name, ceilings) in fields {
            let mut c = SloCeilings::default();
            for (key, slot) in [
                ("p50", &mut c.p50),
                ("p90", &mut c.p90),
                ("p99", &mut c.p99),
                ("max", &mut c.max),
            ] {
                if let Some(v) = ceilings.get(key) {
                    *slot = Some(u64::from_json(v)?);
                }
            }
            families.push((name.clone(), c));
        }
        Ok(SloBaseline {
            tolerance_pct,
            families,
        })
    }
}

/// Parses a baseline file's text.
pub fn parse_baseline(text: &str) -> Result<SloBaseline, String> {
    rl_json::from_str::<SloBaseline>(text).map_err(|e| e.to_string())
}

/// Evaluates observed histograms against a baseline. Returns the violation
/// report lines — empty means the gate passes.
pub fn evaluate(baseline: &SloBaseline, observed: &[(String, HistogramSnapshot)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (family, ceilings) in &baseline.families {
        let Some((_, snap)) = observed.iter().find(|(name, _)| name == family) else {
            violations.push(format!(
                "{family}: no samples observed (family missing from the journal)"
            ));
            continue;
        };
        let checks = [
            ("p50", ceilings.p50, snap.p50()),
            ("p90", ceilings.p90, snap.p90()),
            ("p99", ceilings.p99, snap.p99()),
            ("max", ceilings.max, snap.max),
        ];
        for (what, ceiling, got) in checks {
            let Some(ceiling) = ceiling else { continue };
            let allowed = ceiling.saturating_add(ceiling * baseline.tolerance_pct / 100);
            if got > allowed {
                violations.push(format!(
                    "{family}: {what} = {got} exceeds baseline {ceiling} \
                     (+{}% tolerance → {allowed})",
                    baseline.tolerance_pct
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    const BASELINE: &str = r#"{"schema": "rl-slo/v1", "tolerance_pct": 25,
        "families": {"serve/queue_wait_us": {"p50": 100, "p99": 1000}}}"#;

    fn observed(values: &[u64]) -> Vec<(String, HistogramSnapshot)> {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        vec![("serve/queue_wait_us".to_owned(), h.snapshot())]
    }

    #[test]
    fn baseline_parses_and_passes_within_tolerance() {
        let b = parse_baseline(BASELINE).unwrap();
        assert_eq!(b.tolerance_pct, 25);
        assert_eq!(b.families.len(), 1);
        assert_eq!(b.families[0].1.p50, Some(100));
        assert_eq!(b.families[0].1.p90, None);
        // p50 = 60, p99 ≤ 1000: inside the ceilings.
        assert!(evaluate(&b, &observed(&[30, 60, 900])).is_empty());
    }

    #[test]
    fn injected_p99_regression_fails_the_gate() {
        let b = parse_baseline(BASELINE).unwrap();
        // p99 lands on the 50_000 outlier: far beyond 1000 * 1.25.
        let violations = evaluate(&b, &observed(&[10, 20, 50_000]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("p99"));
        assert!(violations[0].contains("exceeds baseline 1000"));
    }

    #[test]
    fn missing_family_is_a_violation_and_bad_schema_errors() {
        let b = parse_baseline(BASELINE).unwrap();
        let violations = evaluate(&b, &[]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"));
        assert!(parse_baseline(r#"{"schema": "rl-slo/v2", "families": {}}"#).is_err());
        assert!(parse_baseline("not json").is_err());
    }
}
