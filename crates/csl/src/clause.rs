//! CSL clause grammar.
//!
//! An annotation payload is a sequence of whitespace-separated clauses;
//! parenthesised clause arguments may not contain spaces. Quantities
//! carry units: time in `us`/`ms`/`s` (stored as microseconds), energy in
//! `pj`/`nj`/`uj`/`mj`/`j` (stored as picojoules).
//!
//! Security clauses come in two strengths:
//!
//! * `security(ct)` (aliases `constant_time`, `leakfree`) — the task's
//!   *code* must be constant-time with respect to its `secret(...)`
//!   parameters; the workflow ladderises the function and measures the
//!   residual leakage.
//! * `security_floor(n)` — the task's *placement* must use an execution
//!   option of countermeasure rung ≥ `n` (`0` = unhardened, `1` =
//!   ladderised). The coordination layer filters below-floor options
//!   before scheduling, so the floor binds even when a tuned Pareto
//!   front offers cheaper unhardened variants.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A time quantity in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct TimeValue(pub f64);

impl TimeValue {
    /// Parse `"5ms"`, `"250us"`, `"1s"`.
    ///
    /// # Errors
    /// Returns the offending text when the number or unit is malformed.
    pub fn parse(text: &str) -> Result<TimeValue, ClauseParseError> {
        let (num, unit) = split_unit(text);
        let value: f64 = num
            .parse()
            .map_err(|_| ClauseParseError::BadQuantity(text.to_string()))?;
        let scale = match unit {
            "us" => 1.0,
            "ms" => 1e3,
            "s" => 1e6,
            _ => return Err(ClauseParseError::BadUnit(text.to_string())),
        };
        if value.is_nan() || value < 0.0 {
            return Err(ClauseParseError::BadQuantity(text.to_string()));
        }
        Ok(TimeValue(value * scale))
    }

    /// Microseconds.
    pub fn as_us(self) -> f64 {
        self.0
    }

    /// Milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 / 1e3
    }
}

impl fmt::Display for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{}s", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{}ms", self.0 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An energy quantity in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct EnergyValue(pub f64);

impl EnergyValue {
    /// Parse `"3mJ"`, `"1500uJ"`, `"2nJ"`, `"150pJ"` (unit case
    /// insensitive).
    ///
    /// # Errors
    /// Returns the offending text when the number or unit is malformed.
    pub fn parse(text: &str) -> Result<EnergyValue, ClauseParseError> {
        let (num, unit) = split_unit(text);
        let value: f64 = num
            .parse()
            .map_err(|_| ClauseParseError::BadQuantity(text.to_string()))?;
        let scale = match unit.to_ascii_lowercase().as_str() {
            "pj" => 1.0,
            "nj" => 1e3,
            "uj" => 1e6,
            "mj" => 1e9,
            "j" => 1e12,
            _ => return Err(ClauseParseError::BadUnit(text.to_string())),
        };
        if value.is_nan() || value < 0.0 {
            return Err(ClauseParseError::BadQuantity(text.to_string()));
        }
        Ok(EnergyValue(value * scale))
    }

    /// Picojoules.
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for EnergyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{}mJ", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{}uJ", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{}nJ", self.0 / 1e3)
        } else {
            write!(f, "{}pJ", self.0)
        }
    }
}

fn split_unit(text: &str) -> (&str, &str) {
    let split = text
        .find(|c: char| c.is_ascii_alphabetic())
        .unwrap_or(text.len());
    (&text[..split], &text[split..])
}

/// Security requirement levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecurityReq {
    /// The task must be constant-time/power with respect to its secrets
    /// (enforced via ladderisation + leakage assessment).
    ConstantTime,
}

/// One parsed CSL clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CslClause {
    /// `task <name>` — marks a task entry point.
    Task(String),
    /// `period(10ms)`.
    Period(TimeValue),
    /// `deadline(10ms)`.
    Deadline(TimeValue),
    /// `wcet_budget(2ms)`.
    WcetBudget(TimeValue),
    /// `energy_budget(3mJ)`.
    EnergyBudget(EnergyValue),
    /// `security(ct)`.
    Security(SecurityReq),
    /// `security_floor(n)` — minimum countermeasure rung the scheduler
    /// may place: every execution option offered for the task must carry
    /// `security_level ≥ n` (rung 0 = no hardening, rung 1 =
    /// ladderised). Options below the floor are filtered out at task-set
    /// construction, so a below-floor variant can never be scheduled.
    SecurityFloor(u32),
    /// `secret(param)`.
    Secret(String),
    /// `after(a, b, ...)` — dependency edges.
    After(Vec<String>),
    /// `reliability(k)` — the task re-executes up to `k` times on fault
    /// detection; the scheduler must reserve slack for every recovery
    /// run inside the deadline.
    Reliability(u32),
    /// `degraded_deadline(48ms)` — the relaxed deadline the task may
    /// fall back to in degraded mode when the nominal contract is
    /// unschedulable.
    DegradedDeadline(TimeValue),
    /// `loop bound(n)` — owned by the front-end; carried through
    /// untouched.
    LoopBound(u32),
}

/// Clause parsing errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClauseParseError {
    /// A clause keyword that the grammar does not know.
    UnknownClause(String),
    /// A malformed number.
    BadQuantity(String),
    /// A malformed or missing unit.
    BadUnit(String),
    /// Malformed parentheses/arguments.
    Malformed(String),
}

impl fmt::Display for ClauseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClauseParseError::UnknownClause(s) => write!(f, "unknown CSL clause `{s}`"),
            ClauseParseError::BadQuantity(s) => write!(f, "malformed quantity `{s}`"),
            ClauseParseError::BadUnit(s) => write!(f, "unknown unit in `{s}`"),
            ClauseParseError::Malformed(s) => write!(f, "malformed clause `{s}`"),
        }
    }
}

impl std::error::Error for ClauseParseError {}

/// Split an annotation payload into raw clause tokens: a word optionally
/// followed by a parenthesised argument (which may contain commas but not
/// nested parens).
fn tokenize(payload: &str) -> Result<Vec<(String, Option<String>)>, ClauseParseError> {
    let mut out = Vec::new();
    let bytes = payload.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'(' {
            i += 1;
        }
        let word = payload[start..i].to_string();
        if word.is_empty() {
            return Err(ClauseParseError::Malformed(payload.to_string()));
        }
        let arg = if i < bytes.len() && bytes[i] == b'(' {
            let close = payload[i..]
                .find(')')
                .ok_or_else(|| ClauseParseError::Malformed(payload.to_string()))?;
            let inner = payload[i + 1..i + close].to_string();
            i += close + 1;
            Some(inner)
        } else {
            None
        };
        out.push((word, arg));
    }
    Ok(out)
}

/// Parse a full annotation payload into clauses.
///
/// # Errors
/// See [`ClauseParseError`]; unknown keywords are rejected so typos in
/// contracts cannot silently weaken them.
pub fn parse_clauses(payload: &str) -> Result<Vec<CslClause>, ClauseParseError> {
    let tokens = tokenize(payload)?;
    let mut clauses = Vec::new();
    let mut iter = tokens.into_iter().peekable();
    while let Some((word, arg)) = iter.next() {
        let need =
            |arg: Option<String>| arg.ok_or_else(|| ClauseParseError::Malformed(word_err(&word)));
        fn word_err(w: &str) -> String {
            format!("{w}: missing argument")
        }
        let clause = match word.as_str() {
            "task" => {
                // `task name` — the name is the next bare token.
                match arg {
                    Some(name) => CslClause::Task(name),
                    None => {
                        let Some((name, None)) = iter.next() else {
                            return Err(ClauseParseError::Malformed("task: missing name".into()));
                        };
                        CslClause::Task(name)
                    }
                }
            }
            "period" => CslClause::Period(TimeValue::parse(need(arg)?.trim())?),
            "deadline" => CslClause::Deadline(TimeValue::parse(need(arg)?.trim())?),
            "wcet_budget" => CslClause::WcetBudget(TimeValue::parse(need(arg)?.trim())?),
            "energy_budget" => CslClause::EnergyBudget(EnergyValue::parse(need(arg)?.trim())?),
            "security" => {
                let level = need(arg)?;
                match level.trim() {
                    "ct" | "constant_time" | "leakfree" => {
                        CslClause::Security(SecurityReq::ConstantTime)
                    }
                    other => {
                        return Err(ClauseParseError::UnknownClause(format!(
                            "security({other})"
                        )))
                    }
                }
            }
            "security_floor" => {
                let n: u32 = need(arg)?
                    .trim()
                    .parse()
                    .map_err(|_| ClauseParseError::BadQuantity("security_floor".into()))?;
                CslClause::SecurityFloor(n)
            }
            "secret" => CslClause::Secret(need(arg)?.trim().to_string()),
            "reliability" => {
                let k: u32 = need(arg)?
                    .trim()
                    .parse()
                    .map_err(|_| ClauseParseError::BadQuantity("reliability".into()))?;
                CslClause::Reliability(k)
            }
            "degraded_deadline" => {
                CslClause::DegradedDeadline(TimeValue::parse(need(arg)?.trim())?)
            }
            "after" => {
                let list = need(arg)?;
                let deps: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if deps.is_empty() {
                    return Err(ClauseParseError::Malformed("after()".into()));
                }
                CslClause::After(deps)
            }
            "loop" => {
                // `loop bound(n)` — two tokens.
                let Some((kw, barg)) = iter.next() else {
                    return Err(ClauseParseError::Malformed("loop: missing bound".into()));
                };
                if kw != "bound" {
                    return Err(ClauseParseError::UnknownClause(format!("loop {kw}")));
                }
                let n: u32 = barg
                    .ok_or_else(|| ClauseParseError::Malformed("loop bound: missing".into()))?
                    .trim()
                    .parse()
                    .map_err(|_| ClauseParseError::BadQuantity("loop bound".into()))?;
                CslClause::LoopBound(n)
            }
            other => return Err(ClauseParseError::UnknownClause(other.to_string())),
        };
        clauses.push(clause);
    }
    Ok(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_units_parse_and_scale() {
        assert_eq!(TimeValue::parse("250us").expect("us").as_us(), 250.0);
        assert_eq!(TimeValue::parse("5ms").expect("ms").as_us(), 5000.0);
        assert_eq!(TimeValue::parse("1s").expect("s").as_us(), 1e6);
        assert_eq!(TimeValue::parse("1.5ms").expect("frac").as_us(), 1500.0);
        assert!(TimeValue::parse("5min").is_err());
        assert!(TimeValue::parse("ms").is_err());
        assert!(TimeValue::parse("-3ms").is_err());
    }

    #[test]
    fn energy_units_parse_and_scale() {
        assert_eq!(EnergyValue::parse("3mJ").expect("mJ").as_pj(), 3e9);
        assert_eq!(EnergyValue::parse("1500uJ").expect("uJ").as_pj(), 1.5e9);
        assert_eq!(EnergyValue::parse("2nJ").expect("nJ").as_pj(), 2000.0);
        assert_eq!(EnergyValue::parse("7pj").expect("pj").as_pj(), 7.0);
        assert!(EnergyValue::parse("3kWh").is_err());
    }

    #[test]
    fn display_round_trips_sensible_units() {
        assert_eq!(TimeValue::parse("5ms").expect("ms").to_string(), "5ms");
        assert_eq!(EnergyValue::parse("3mJ").expect("mJ").to_string(), "3mJ");
        assert_eq!(
            EnergyValue::parse("1500uJ").expect("uJ").to_string(),
            "1.5mJ"
        );
    }

    #[test]
    fn full_task_annotation_parses() {
        let clauses = parse_clauses(
            "task encrypt after(capture, fetch) period(40ms) deadline(40ms) \
             wcet_budget(2ms) energy_budget(1500uJ) security(ct) secret(key)",
        )
        .expect("parse");
        assert_eq!(clauses[0], CslClause::Task("encrypt".into()));
        assert_eq!(
            clauses[1],
            CslClause::After(vec!["capture".into(), "fetch".into()])
        );
        assert!(matches!(clauses[4], CslClause::WcetBudget(t) if t.as_ms() == 2.0));
        assert!(matches!(clauses[5], CslClause::EnergyBudget(e) if e.as_uj() == 1500.0));
        assert_eq!(clauses[6], CslClause::Security(SecurityReq::ConstantTime));
        assert_eq!(clauses[7], CslClause::Secret("key".into()));
    }

    #[test]
    fn task_name_as_bare_word() {
        let clauses = parse_clauses("task capture period(10ms)").expect("parse");
        assert_eq!(clauses[0], CslClause::Task("capture".into()));
    }

    #[test]
    fn loop_bound_clause() {
        let clauses = parse_clauses("loop bound(64)").expect("parse");
        assert_eq!(clauses, vec![CslClause::LoopBound(64)]);
    }

    #[test]
    fn reliability_and_degraded_deadline_clauses() {
        let clauses =
            parse_clauses("task encrypt reliability(2) degraded_deadline(48ms)").expect("parse");
        assert_eq!(clauses[1], CslClause::Reliability(2));
        assert!(matches!(clauses[2], CslClause::DegradedDeadline(t) if t.as_ms() == 48.0));
        assert!(parse_clauses("reliability(two)").is_err());
        assert!(parse_clauses("reliability").is_err());
        assert!(parse_clauses("degraded_deadline(5min)").is_err());
    }

    #[test]
    fn unknown_clause_rejected() {
        assert!(matches!(
            parse_clauses("tusk capture"),
            Err(ClauseParseError::UnknownClause(_))
        ));
        assert!(parse_clauses("security(rot13)").is_err());
    }

    #[test]
    fn security_floor_clause() {
        let clauses = parse_clauses("task encrypt security(ct) security_floor(1) secret(key)")
            .expect("parse");
        assert_eq!(clauses[1], CslClause::Security(SecurityReq::ConstantTime));
        assert_eq!(clauses[2], CslClause::SecurityFloor(1));
        assert_eq!(
            parse_clauses("security_floor(0)").expect("rung 0 is legal"),
            vec![CslClause::SecurityFloor(0)]
        );
        assert!(parse_clauses("security_floor(one)").is_err());
        assert!(parse_clauses("security_floor(-1)").is_err());
        assert!(parse_clauses("security_floor").is_err());
    }

    #[test]
    fn malformed_parens_rejected() {
        assert!(parse_clauses("period(10ms").is_err());
        assert!(parse_clauses("after()").is_err());
        assert!(parse_clauses("period").is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn clause_parser_never_panics(payload in "\\PC{0,120}") {
            let _ = parse_clauses(&payload);
        }

        #[test]
        fn time_value_round_trip_us(v in 0.0f64..1e9) {
            let t = TimeValue::parse(&format!("{v}us")).expect("parse");
            prop_assert!((t.as_us() - v).abs() < 1e-6 * v.max(1.0));
        }
    }
}
