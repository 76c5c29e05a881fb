//! `BENCHMARK.json` as the program sees it.
//!
//! The file is the single list of workload and metric names, units,
//! directions and bounds. It is compiled in, so the binary and the file the
//! driver reads cannot drift apart.

use crate::json::Json;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Metrics built only from the simulator's and the solver's own
    /// counters repeat exactly under one seed; their units mark them.
    pub fn is_exact(&self) -> bool {
        self.unit.starts_with("count") || self.unit == "ticks" || self.unit == "share"
    }
}

/// The parsed file.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

const SOURCE: &str = include_str!("../../BENCHMARK.json");

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(SOURCE).expect("BENCHMARK.json is checked by this crate's tests")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_file_meets_the_contract_limits() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!(SOURCE.len() <= 64 * 1024);

        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(
                b <= setup.bound.unwrap(),
                "setup_s carries the largest bound"
            );
        }

        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(
                spec.end_to_end
                    .iter()
                    .chain(&spec.per_layer)
                    .map(|m| &m.name),
            )
            .collect();
        for n in &names {
            let ok = n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad name {n:?}");
        }
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");

        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let ok = !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "{}: bad unit {:?}", m.name, m.unit);
        }
    }

    #[test]
    fn exactness_follows_the_unit() {
        let spec = Spec::load();
        for (name, exact) in [
            ("msgs_per_commit", true),
            ("ticks_per_commit", true),
            ("sim.engine.cache_hit_share", true),
            ("sim.engine.delegation_msg_ratio", true),
            ("sim.engine.delegation_wall_ratio", false),
            ("sim.threaded.aborts_per_commit", false),
            ("ops_per_s", false),
            ("trace.overhead_share", false),
        ] {
            assert_eq!(spec.metric(name).unwrap().is_exact(), exact, "{name}");
        }
    }

    #[test]
    fn parse_reports_what_is_missing() {
        assert!(Spec::parse("{}").unwrap_err().contains("run_seconds"));
        let bad = r#"{"run_seconds": 1, "workloads": [], "end_to_end":
            [{"name": "x", "unit": "s", "better": "sideways"}], "per_layer": []}"#;
        assert!(Spec::parse(bad).unwrap_err().contains("sideways"));
    }
}
