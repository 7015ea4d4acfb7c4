//! Declarative workload scenarios: a TOML spec parsed into a typed
//! [`ScenarioSpec`] and compiled into a composing [`ScenarioStream`].
//!
//! Nine PRs of backends, layouts, shards, and tenant arenas were still
//! exercised by hand-coded generators and bench configs. A scenario file
//! replaces that with a committed, reproducible description of
//!
//! * the **traffic mix** — weighted sub-streams of organic uniques, Zipf
//!   repeats, botnet bursts, flash crowds, and crawler sweeps, each on a
//!   disjoint id namespace (see [`crate::gen::ids`]) so composition
//!   keeps exact duplicate semantics;
//! * **duplicate injection** — a controlled re-emission rate with a
//!   bounded lag, the guaranteed-duplicate ground truth;
//! * the **window model** — count-based or time-based, with a diurnal
//!   tick-gap ramp for the latter;
//! * an optional **tenant remap** — ads redrawn from a Zipf tenant
//!   universe, the multi-tenant arena workload;
//! * a **sweep grid** — the (algo, memory, k, Q, layout, shards, batch,
//!   dispatch) cartesian product the sweep driver brute-forces, with
//!   `algo = "auto"` resolved from the `cfd-analysis` closed forms;
//! * **ratio gates** — `[[gates]]` floors on the median throughput of
//!   one axis value over another, which the benchmark specs under
//!   `scenarios/bench_*.toml` declare instead of hand-coded checks.
//!
//! The dependency shims vendored for the offline build do not include a
//! TOML crate, so this module carries its own parser for the subset the
//! spec needs (tables, arrays of tables, strings/ints/floats/bools,
//! homogeneous inline arrays, comments). Errors name the offending
//! field path (`traffic.mix[1].skew: ...`), unknown keys are rejected,
//! and [`ScenarioSpec::to_toml`] emits a canonical form that parses
//! back to an equal spec.

use crate::click::{AdId, Click, ClickId, PublisherId};
use crate::gen::ids::NS_SCENARIO_BASE;
use crate::gen::{
    botnet::{BotnetConfig, BotnetStream},
    crawler::CrawlerStream,
    flashcrowd::{FlashCrowdConfig, FlashCrowdStream},
    unique::UniqueClickStream,
    zipf::{ZipfClickStream, ZipfSampler},
};
use cfd_hash::mix::splitmix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// A spec rejection, naming the field (or line) that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted field path (`traffic.mix[1].skew`) or `line N` for syntax
    /// errors.
    pub path: String,
    /// What was wrong with it.
    pub message: String,
}

impl ScenarioError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------
// Minimal TOML subset
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    /// Wide enough for the full `u64` range (seeds) plus negatives,
    /// so `to_toml` output always re-parses.
    Int(i128),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
}

#[derive(Debug, Clone, Default)]
struct Table {
    entries: Vec<(String, Node)>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Value),
    Table(Table),
    /// An array of tables (`[[a.b]]` headers).
    Many(Vec<Table>),
}

impl Table {
    fn get(&self, key: &str) -> Option<&Node> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, n)| n)
    }
}

/// Truncates the comment off a line, respecting `#` inside strings.
fn strip_comment(line: &str) -> &str {
    let (mut in_str, mut escaped) = (false, false);
    for (i, ch) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
        } else if ch == '"' {
            in_str = true;
        } else if ch == '#' {
            return &line[..i];
        }
    }
    line
}

fn parse_string(s: &str, at: &str) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1); // past the opening quote
    loop {
        let Some((i, ch)) = chars.next() else {
            return Err(ScenarioError::new(at, "unterminated string"));
        };
        match ch {
            '"' => {
                if s[i + 1..].trim().is_empty() {
                    return Ok(out);
                }
                return Err(ScenarioError::new(at, "trailing characters after string"));
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                _ => return Err(ScenarioError::new(at, "bad escape in string")),
            },
            _ => out.push(ch),
        }
    }
}

/// Splits a `[a, b, c]` body at top-level commas (commas inside strings
/// don't count). Nested arrays are not part of the subset.
fn split_array_items(body: &str, at: &str) -> Result<Vec<String>, ScenarioError> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let (mut in_str, mut escaped) = (false, false);
    for ch in body.chars() {
        if in_str {
            cur.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
        } else {
            match ch {
                '"' => {
                    in_str = true;
                    cur.push(ch);
                }
                '[' => return Err(ScenarioError::new(at, "nested arrays are not supported")),
                ',' => {
                    items.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => cur.push(ch),
            }
        }
    }
    if in_str {
        return Err(ScenarioError::new(at, "unterminated string in array"));
    }
    if !cur.trim().is_empty() {
        items.push(cur);
    } else if !items.is_empty() {
        // a trailing comma left an empty tail; that's fine
    }
    Ok(items)
}

fn parse_value(s: &str, at: &str) -> Result<Value, ScenarioError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(ScenarioError::new(at, "missing value"));
    }
    if s.starts_with('"') {
        return Ok(Value::Str(parse_string(s, at)?));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(ScenarioError::new(at, "unterminated array"));
        };
        let mut vals = Vec::new();
        for item in split_array_items(body, at)? {
            vals.push(parse_value(&item, at)?);
        }
        return Ok(Value::Array(vals));
    }
    let digits: String = s.chars().filter(|&c| c != '_').collect();
    if digits.contains(['.', 'e', 'E']) {
        if let Ok(f) = digits.parse::<f64>() {
            return Ok(Value::Float(f));
        }
    } else if let Ok(i) = digits.parse::<i128>() {
        return Ok(Value::Int(i));
    }
    Err(ScenarioError::new(at, format!("cannot parse value `{s}`")))
}

/// Walks (creating as needed) to the table at `path`, descending into
/// the *last* element of any array-of-tables on the way.
fn table_at<'t>(
    mut table: &'t mut Table,
    path: &[String],
    at: &str,
) -> Result<&'t mut Table, ScenarioError> {
    for seg in path {
        let idx = table.entries.iter().position(|(k, _)| k == seg);
        let idx = match idx {
            Some(i) => i,
            None => {
                table
                    .entries
                    .push((seg.clone(), Node::Table(Table::default())));
                table.entries.len() - 1
            }
        };
        table = match &mut table.entries[idx].1 {
            Node::Table(t) => t,
            Node::Many(v) => v.last_mut().expect("array-of-tables is never empty"),
            Node::Leaf(_) => {
                return Err(ScenarioError::new(
                    at,
                    format!("`{seg}` is a value, not a table"),
                ));
            }
        };
    }
    Ok(table)
}

fn parse_document(text: &str) -> Result<Table, ScenarioError> {
    let mut root = Table::default();
    let mut current: Vec<String> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let at = format!("line {}", lineno + 1);
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix("[[") {
            let Some(body) = body.strip_suffix("]]") else {
                return Err(ScenarioError::new(at, "malformed [[table]] header"));
            };
            let path: Vec<String> = body.split('.').map(|s| s.trim().to_owned()).collect();
            if path.iter().any(String::is_empty) {
                return Err(ScenarioError::new(at, "empty segment in table header"));
            }
            let (last, parents) = path.split_last().expect("split never yields empty");
            let parent = table_at(&mut root, parents, &at)?;
            match parent.entries.iter_mut().find(|(k, _)| k == last) {
                None => parent
                    .entries
                    .push((last.clone(), Node::Many(vec![Table::default()]))),
                Some((_, Node::Many(v))) => v.push(Table::default()),
                Some(_) => {
                    return Err(ScenarioError::new(
                        at,
                        format!("`{last}` is not an array of tables"),
                    ));
                }
            }
            current = path;
        } else if let Some(body) = line.strip_prefix('[') {
            let Some(body) = body.strip_suffix(']') else {
                return Err(ScenarioError::new(at, "malformed [table] header"));
            };
            let path: Vec<String> = body.split('.').map(|s| s.trim().to_owned()).collect();
            if path.iter().any(String::is_empty) {
                return Err(ScenarioError::new(at, "empty segment in table header"));
            }
            table_at(&mut root, &path, &at)?;
            current = path;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() {
                return Err(ScenarioError::new(at, "missing key before `=`"));
            }
            let table = table_at(&mut root, &current, &at)?;
            if table.get(key).is_some() {
                return Err(ScenarioError::new(at, format!("duplicate key `{key}`")));
            }
            let value = parse_value(value, &at)?;
            table.entries.push((key.to_owned(), Node::Leaf(value)));
        } else {
            return Err(ScenarioError::new(at, "expected `key = value` or a header"));
        }
    }
    Ok(root)
}

// ---------------------------------------------------------------------
// Typed extraction
// ---------------------------------------------------------------------

/// A cursor over one table, carrying the dotted path for error messages.
struct Sect<'a> {
    path: String,
    table: &'a Table,
}

impl<'a> Sect<'a> {
    fn err(&self, key: &str, msg: impl Into<String>) -> ScenarioError {
        let path = if self.path.is_empty() {
            key.to_owned()
        } else if key.is_empty() {
            self.path.clone()
        } else {
            format!("{}.{key}", self.path)
        };
        ScenarioError::new(path, msg)
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for (k, _) in &self.table.entries {
            if !allowed.contains(&k.as_str()) {
                return Err(self.err(k, "unknown key"));
            }
        }
        Ok(())
    }

    fn value(&self, key: &str) -> Result<Option<&'a Value>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Node::Leaf(v)) => Ok(Some(v)),
            Some(_) => Err(self.err(key, "expected a value, found a table")),
        }
    }

    fn str(&self, key: &str, default: &str) -> Result<String, ScenarioError> {
        match self.value(key)? {
            None => Ok(default.to_owned()),
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(_) => Err(self.err(key, "expected a string")),
        }
    }

    fn required_str(&self, key: &str) -> Result<String, ScenarioError> {
        match self.value(key)? {
            None => Err(self.err(key, "required key is missing")),
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(_) => Err(self.err(key, "expected a string")),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.value(key)? {
            None => Ok(default),
            Some(Value::Int(i)) if *i < 0 => Err(self.err(key, "must not be negative")),
            Some(Value::Int(i)) => {
                u64::try_from(*i).map_err(|_| self.err(key, "does not fit in 64 bits"))
            }
            Some(_) => Err(self.err(key, "expected an integer")),
        }
    }

    fn positive_u64(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        let v = self.u64(key, default)?;
        if v == 0 {
            return Err(self.err(key, "must be at least 1"));
        }
        Ok(v)
    }

    fn positive_usize(&self, key: &str, default: usize) -> Result<usize, ScenarioError> {
        Ok(self.positive_u64(key, default as u64)? as usize)
    }

    fn positive_u32(&self, key: &str, default: u32) -> Result<u32, ScenarioError> {
        let v = self.positive_u64(key, u64::from(default))?;
        u32::try_from(v).map_err(|_| self.err(key, "does not fit in 32 bits"))
    }

    fn u32(&self, key: &str, default: u32) -> Result<u32, ScenarioError> {
        let v = self.u64(key, u64::from(default))?;
        u32::try_from(v).map_err(|_| self.err(key, "does not fit in 32 bits"))
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        let v = match self.value(key)? {
            None => default,
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            Some(_) => return Err(self.err(key, "expected a number")),
        };
        if !v.is_finite() {
            return Err(self.err(key, "must be finite"));
        }
        Ok(v)
    }

    fn fraction(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        let v = self.f64(key, default)?;
        if !(0.0..1.0).contains(&v) {
            return Err(self.err(key, "must be in [0, 1)"));
        }
        Ok(v)
    }

    fn sub(&self, key: &str) -> Result<Option<Sect<'a>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Node::Table(t)) => Ok(Some(Sect {
                path: self.child(key),
                table: t,
            })),
            Some(_) => Err(self.err(key, "expected a [table]")),
        }
    }

    fn child(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn many(&self, key: &str) -> Result<Vec<Sect<'a>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(Vec::new()),
            Some(Node::Many(v)) => Ok(v
                .iter()
                .enumerate()
                .map(|(i, t)| Sect {
                    path: format!("{}[{i}]", self.child(key)),
                    table: t,
                })
                .collect()),
            Some(_) => Err(self.err(key, "expected [[array-of-tables]] entries")),
        }
    }

    fn str_array(&self, key: &str, default: &[&str]) -> Result<Vec<String>, ScenarioError> {
        match self.value(key)? {
            None => Ok(default.iter().map(|s| (*s).to_owned()).collect()),
            Some(Value::Array(vals)) => {
                let mut out = Vec::with_capacity(vals.len());
                for v in vals {
                    match v {
                        Value::Str(s) => out.push(s.clone()),
                        _ => return Err(self.err(key, "expected an array of strings")),
                    }
                }
                if out.is_empty() {
                    return Err(self.err(key, "must not be empty"));
                }
                Ok(out)
            }
            Some(_) => Err(self.err(key, "expected an array of strings")),
        }
    }

    /// A string array whose entries must each be one of `accepted`
    /// (default: the first).
    fn choices(&self, key: &str, accepted: &[&str]) -> Result<Vec<String>, ScenarioError> {
        let values = self.str_array(key, &accepted[..1])?;
        match values.iter().find(|v| !accepted.contains(&v.as_str())) {
            Some(v) => Err(self.err(
                key,
                format!("unknown {key} `{v}` (accepted: {})", accepted.join(", ")),
            )),
            None => Ok(values),
        }
    }

    fn usize_array(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, ScenarioError> {
        match self.value(key)? {
            None => Ok(default.to_vec()),
            Some(Value::Array(vals)) => {
                let mut out = Vec::with_capacity(vals.len());
                for v in vals {
                    match v {
                        Value::Int(i) if *i >= 1 => out.push(
                            usize::try_from(*i)
                                .map_err(|_| self.err(key, "entry does not fit in usize"))?,
                        ),
                        Value::Int(_) => return Err(self.err(key, "entries must be at least 1")),
                        _ => return Err(self.err(key, "expected an array of integers")),
                    }
                }
                if out.is_empty() {
                    return Err(self.err(key, "must not be empty"));
                }
                Ok(out)
            }
            Some(_) => Err(self.err(key, "expected an array of integers")),
        }
    }
}

// ---------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------

/// One weighted sub-stream of a scenario's traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// Relative share of total traffic (normalized over the mix).
    pub weight: f64,
    /// What kind of traffic this sub-stream produces.
    pub kind: MixKind,
}

/// The generator behind a [`MixEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum MixKind {
    /// Guaranteed-distinct organic clicks ([`UniqueClickStream`]).
    Unique,
    /// Zipf-popular identities with natural repeats
    /// ([`ZipfClickStream`]).
    Zipf {
        /// Number of distinct identities.
        universe: usize,
        /// Zipf exponent (`0` = uniform).
        skew: f64,
    },
    /// A botnet burst plus its own organic side ([`BotnetStream`]).
    Botnet {
        /// Number of bots.
        bots: u32,
        /// Fraction of this sub-stream that is bot clicks, in `[0, 1)`.
        attack_fraction: f64,
        /// The targeted ad.
        target_ad: u32,
    },
    /// A flash crowd on one hot ad ([`FlashCrowdStream`]).
    FlashCrowd {
        /// Fraction of this sub-stream in the crowd, in `[0, 1]`.
        crowd_fraction: f64,
        /// Probability of a legitimate second click, in `[0, 1)`.
        second_click_prob: f64,
        /// The ad everyone is clicking.
        hot_ad: u32,
    },
    /// A crawler fleet revisiting ads on a fixed period
    /// ([`CrawlerStream`]).
    Crawler {
        /// Number of crawler agents.
        crawlers: u32,
        /// One crawler click every `period` positions.
        period: u64,
    },
}

impl MixKind {
    /// The spec string for this kind (`kind = "..."`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Unique => "unique",
            Self::Zipf { .. } => "zipf",
            Self::Botnet { .. } => "botnet",
            Self::FlashCrowd { .. } => "flashcrowd",
            Self::Crawler { .. } => "crawler",
        }
    }
}

/// The window model a scenario evaluates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioWindow {
    /// Count-based window over the last `n` clicks.
    Count {
        /// Window size in clicks.
        n: usize,
    },
    /// Time-based window; `n` is the *expected clicks per window* used
    /// to size detector tables.
    Time {
        /// Expected clicks per window (table capacity).
        n: usize,
        /// Sliding window span in units (`time-tbf`).
        window_units: u64,
        /// Units per sub-window (`time-gbf`).
        sub_units: u64,
        /// Ticks per unit.
        unit_ticks: u64,
    },
}

impl ScenarioWindow {
    /// The sized capacity (clicks per window) under either model.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Self::Count { n } | Self::Time { n, .. } => *n,
        }
    }

    /// `true` for the time-based model.
    #[must_use]
    pub fn is_timed(&self) -> bool {
        matches!(self, Self::Time { .. })
    }
}

/// The `[traffic]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Publisher pool size.
    pub publishers: u32,
    /// Ad pool size.
    pub ads: u32,
    /// Weighted sub-streams.
    pub mix: Vec<MixEntry>,
}

/// The `[inject]` section: controlled duplicate re-emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectSpec {
    /// Probability a click is a re-emission of a recent one, in
    /// `[0, 1)`.
    pub rate: f64,
    /// Re-emissions are drawn from the last `max_lag` clicks.
    pub max_lag: usize,
}

/// The `[ramp]` section: diurnal tick-gap modulation. The gap between
/// consecutive clicks swings sinusoidally between `low` and `high`
/// ticks over `period` clicks — under a time window, detector load
/// breathes the way real traffic does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSpec {
    /// Clicks per full diurnal cycle.
    pub period: u64,
    /// Tick-gap multiplier at the peak (most traffic).
    pub low: f64,
    /// Tick-gap multiplier at the trough (least traffic).
    pub high: f64,
}

/// The `[tenants]` section: ads redrawn from a Zipf tenant universe,
/// modeling millions of campaigns multiplexed over one detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenant (campaign) universe size.
    pub count: u32,
    /// Zipf exponent of tenant popularity.
    pub skew: f64,
}

/// A grid point's memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Budget {
    /// The paper's `m/n`: backend-native cells per window element.
    CellsPerElement(usize),
    /// Bits per window element: every backend spends `n × b` bits its
    /// own way, the equal-memory comparison.
    BitsPerElement(usize),
}

impl Budget {
    /// The spec key this budget is declared under.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::CellsPerElement(_) => "cells_per_element",
            Self::BitsPerElement(_) => "bits_per_element",
        }
    }

    /// The per-element amount, in cells or bits.
    #[must_use]
    pub fn per_element(self) -> usize {
        match self {
            Self::CellsPerElement(v) | Self::BitsPerElement(v) => v,
        }
    }
}

/// The `[sweep]` section: the grid the sweep driver brute-forces.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Backend names (`cfd algos`, `time-tbf`/`time-gbf` under a time
    /// window, or `auto` to resolve from the closed forms).
    pub algos: Vec<String>,
    /// Memory budgets, all in one unit: `cells_per_element` (the
    /// paper's `m/n`) or `bits_per_element`.
    pub budgets: Vec<Budget>,
    /// Hash counts (`k`).
    pub hash_counts: Vec<usize>,
    /// Sub-window counts (`Q`, jumping-window backends).
    pub sub_windows: Vec<usize>,
    /// Probe layouts (`scattered` / `blocked`).
    pub layouts: Vec<String>,
    /// Shard counts.
    pub shards: Vec<usize>,
    /// Observe batch sizes (`1` is the per-click path).
    pub batches: Vec<usize>,
    /// Kernel dispatch: `auto` (runtime detection, the default),
    /// `wide` or `scalar`.
    pub dispatches: Vec<String>,
    /// Target false-positive rate for `algo = "auto"` resolution.
    pub target_fp: f64,
    /// Sweep axis the compare-groups report groups by.
    pub group_by: String,
}

impl SweepGrid {
    /// The values of a grid axis, in declared order, as strings (the
    /// unused budget key has none).
    #[must_use]
    pub fn axis_values(&self, axis: &str) -> Vec<String> {
        let nums = |v: &[usize]| v.iter().map(ToString::to_string).collect();
        match axis {
            "algo" => self.algos.clone(),
            "cells_per_element" | "bits_per_element" => self
                .budgets
                .iter()
                .filter(|b| b.key() == axis)
                .map(|b| b.per_element().to_string())
                .collect(),
            "k" => nums(&self.hash_counts),
            "sub_windows" => nums(&self.sub_windows),
            "layout" => self.layouts.clone(),
            "shards" => nums(&self.shards),
            "batch" => nums(&self.batches),
            "dispatch" => self.dispatches.clone(),
            _ => Vec::new(),
        }
    }
}

/// Axes [`SweepGrid::group_by`] (and a gate's `axis`) accept.
pub const GROUP_BY_AXES: &[&str] = &[
    "algo",
    "cells_per_element",
    "bits_per_element",
    "k",
    "sub_windows",
    "layout",
    "shards",
    "batch",
    "dispatch",
];

/// Kernel dispatches a grid accepts; `auto` (the default) pins none.
pub const DISPATCHES: &[&str] = &["auto", "wide", "scalar"];

/// One `[[gates]]` entry: for every algo in `algos`, the median
/// clicks/s of the grid point with `axis = num` over the one with
/// `axis = den` must reach `floor`. Both points hold every other axis
/// at its first declared value.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioGate {
    /// The grid axis the two points differ in.
    pub axis: String,
    /// The numerator's axis value (a string, `"1024"` for a batch).
    pub num: String,
    /// The denominator's axis value.
    pub den: String,
    /// The lowest passing ratio.
    pub floor: f64,
    /// The declared algos the gate applies to.
    pub algos: Vec<String>,
}

/// One point of the sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Backend name as requested (possibly `auto`).
    pub algo: String,
    /// Memory budget.
    pub budget: Budget,
    /// Hash count.
    pub k: usize,
    /// Sub-window count.
    pub q: usize,
    /// Probe layout.
    pub layout: String,
    /// Shard count.
    pub shards: usize,
    /// Observe batch size.
    pub batch: usize,
    /// Kernel dispatch.
    pub dispatch: String,
}

impl SweepPoint {
    /// A compact one-line label for tables and logs.
    #[must_use]
    pub fn label(&self) -> String {
        let budget = match self.budget {
            Budget::CellsPerElement(c) => format!("c={c}"),
            Budget::BitsPerElement(b) => format!("bits={b}"),
        };
        let dispatch = if self.dispatch == "auto" {
            ""
        } else {
            &self.dispatch
        };
        format!(
            "{} {budget} k={} q={} {} s={} b={} {dispatch}",
            self.algo, self.k, self.q, self.layout, self.shards, self.batch
        )
        .trim_end()
        .to_owned()
    }

    /// The value of the named sweep axis, as a string (`-` for the
    /// budget key this point does not use).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is not one of [`GROUP_BY_AXES`] (the spec
    /// validator rejects those up front).
    #[must_use]
    pub fn axis(&self, axis: &str) -> String {
        match axis {
            "algo" => self.algo.clone(),
            "cells_per_element" | "bits_per_element" if self.budget.key() == axis => {
                self.budget.per_element().to_string()
            }
            "cells_per_element" | "bits_per_element" => "-".to_owned(),
            "k" => self.k.to_string(),
            "sub_windows" => self.q.to_string(),
            "layout" => self.layout.clone(),
            "shards" => self.shards.to_string(),
            "batch" => self.batch.to_string(),
            "dispatch" => self.dispatch.clone(),
            other => panic!("unknown sweep axis `{other}`"),
        }
    }
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and file names).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Number of clicks a compiled stream should emit.
    pub clicks: u64,
    /// Window model.
    pub window: ScenarioWindow,
    /// Traffic mix.
    pub traffic: TrafficSpec,
    /// Duplicate injection.
    pub inject: InjectSpec,
    /// Optional diurnal ramp.
    pub ramp: Option<RampSpec>,
    /// Optional tenant remap.
    pub tenants: Option<TenantSpec>,
    /// Sweep grid.
    pub sweep: SweepGrid,
    /// Ratio floors the sweep report must meet at full scale.
    pub gates: Vec<RatioGate>,
}

/// Most namespaces a mix can consume (each entry takes a primary +
/// organic pair above [`NS_SCENARIO_BASE`]).
const MAX_MIX_ENTRIES: usize = 32;

impl ScenarioSpec {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the offending line or field
    /// for syntax errors, unknown keys, missing required keys, and
    /// out-of-range values.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse_document(text)?;
        let root = Sect {
            path: String::new(),
            table: &doc,
        };
        root.reject_unknown(&[
            "scenario", "window", "traffic", "inject", "ramp", "tenants", "sweep", "gates",
        ])?;

        let meta = root
            .sub("scenario")?
            .ok_or_else(|| root.err("scenario", "required [scenario] section is missing"))?;
        meta.reject_unknown(&["name", "description", "seed", "clicks"])?;
        let name = meta.required_str("name")?;
        if name.is_empty() {
            return Err(meta.err("name", "must not be empty"));
        }
        let description = meta.str("description", "")?;
        let seed = meta.u64("seed", 0)?;
        let clicks = meta.positive_u64("clicks", 0)?;

        let window = {
            let w = root
                .sub("window")?
                .ok_or_else(|| root.err("window", "required [window] section is missing"))?;
            let model = w.str("model", "count")?;
            let n = w.positive_usize("n", 1 << 16)?;
            match model.as_str() {
                "count" => {
                    w.reject_unknown(&["model", "n"])?;
                    ScenarioWindow::Count { n }
                }
                "time" => {
                    w.reject_unknown(&["model", "n", "window_units", "sub_units", "unit_ticks"])?;
                    ScenarioWindow::Time {
                        n,
                        window_units: w.positive_u64("window_units", 64)?,
                        sub_units: w.positive_u64("sub_units", 8)?,
                        unit_ticks: w.positive_u64("unit_ticks", 1024)?,
                    }
                }
                _ => return Err(w.err("model", "must be \"count\" or \"time\"")),
            }
        };

        let traffic = {
            let t = root
                .sub("traffic")?
                .ok_or_else(|| root.err("traffic", "required [traffic] section is missing"))?;
            t.reject_unknown(&["publishers", "ads", "mix"])?;
            let publishers = t.positive_u32("publishers", 16)?;
            let ads = t.positive_u32("ads", 64)?;
            let entries = t.many("mix")?;
            if entries.is_empty() {
                return Err(t.err("mix", "need at least one [[traffic.mix]] entry"));
            }
            if entries.len() > MAX_MIX_ENTRIES {
                return Err(t.err(
                    "mix",
                    format!("at most {MAX_MIX_ENTRIES} entries fit the id-namespace budget"),
                ));
            }
            let mut mix = Vec::with_capacity(entries.len());
            for e in &entries {
                let weight = e.f64("weight", 1.0)?;
                if weight <= 0.0 {
                    return Err(e.err("weight", "must be positive"));
                }
                let kind = match e.required_str("kind")?.as_str() {
                    "unique" => {
                        e.reject_unknown(&["kind", "weight"])?;
                        MixKind::Unique
                    }
                    "zipf" => {
                        e.reject_unknown(&["kind", "weight", "universe", "skew"])?;
                        let skew = e.f64("skew", 1.0)?;
                        if skew < 0.0 {
                            return Err(e.err("skew", "must be >= 0"));
                        }
                        MixKind::Zipf {
                            universe: e.positive_usize("universe", 1 << 16)?,
                            skew,
                        }
                    }
                    "botnet" => {
                        e.reject_unknown(&[
                            "kind",
                            "weight",
                            "bots",
                            "attack_fraction",
                            "target_ad",
                        ])?;
                        let target_ad = e.u32("target_ad", 1)?;
                        if target_ad >= ads {
                            return Err(e.err("target_ad", "must be below traffic.ads"));
                        }
                        MixKind::Botnet {
                            bots: e.positive_u32("bots", 1000)?,
                            attack_fraction: e.fraction("attack_fraction", 0.2)?,
                            target_ad,
                        }
                    }
                    "flashcrowd" => {
                        e.reject_unknown(&[
                            "kind",
                            "weight",
                            "crowd_fraction",
                            "second_click_prob",
                            "hot_ad",
                        ])?;
                        let hot_ad = e.u32("hot_ad", 0)?;
                        if hot_ad >= ads {
                            return Err(e.err("hot_ad", "must be below traffic.ads"));
                        }
                        let crowd_fraction = e.f64("crowd_fraction", 0.7)?;
                        if !(0.0..=1.0).contains(&crowd_fraction) {
                            return Err(e.err("crowd_fraction", "must be in [0, 1]"));
                        }
                        MixKind::FlashCrowd {
                            crowd_fraction,
                            second_click_prob: e.fraction("second_click_prob", 0.1)?,
                            hot_ad,
                        }
                    }
                    "crawler" => {
                        e.reject_unknown(&["kind", "weight", "crawlers", "period"])?;
                        let crawlers = e.positive_u32("crawlers", 64)?;
                        if crawlers > 0x00FF_FFFF {
                            return Err(e.err("crawlers", "at most 2^24 - 1 fit the address block"));
                        }
                        MixKind::Crawler {
                            crawlers,
                            period: e.positive_u64("period", 10)?,
                        }
                    }
                    other => {
                        return Err(e.err(
                            "kind",
                            format!(
                                "unknown kind `{other}` (accepted: unique, zipf, botnet, \
                                 flashcrowd, crawler)"
                            ),
                        ));
                    }
                };
                mix.push(MixEntry { weight, kind });
            }
            TrafficSpec {
                publishers,
                ads,
                mix,
            }
        };

        let inject = match root.sub("inject")? {
            None => InjectSpec {
                rate: 0.0,
                max_lag: 1,
            },
            Some(i) => {
                i.reject_unknown(&["rate", "max_lag"])?;
                InjectSpec {
                    rate: i.fraction("rate", 0.0)?,
                    max_lag: i.positive_usize("max_lag", 1024)?,
                }
            }
        };

        let ramp = match root.sub("ramp")? {
            None => None,
            Some(r) => {
                r.reject_unknown(&["period", "low", "high"])?;
                let low = r.f64("low", 1.0)?;
                let high = r.f64("high", 1.0)?;
                if low < 0.0 {
                    return Err(r.err("low", "must be >= 0"));
                }
                if high < low {
                    return Err(r.err("high", "must be >= low"));
                }
                Some(RampSpec {
                    period: r.positive_u64("period", 1 << 16)?,
                    low,
                    high,
                })
            }
        };

        let tenants = match root.sub("tenants")? {
            None => None,
            Some(t) => {
                t.reject_unknown(&["count", "skew"])?;
                let skew = t.f64("skew", 1.0)?;
                if skew < 0.0 {
                    return Err(t.err("skew", "must be >= 0"));
                }
                Some(TenantSpec {
                    count: t.positive_u32("count", 1 << 12)?,
                    skew,
                })
            }
        };

        let sweep = {
            let default_algo: &[&str] = if window.is_timed() {
                &["time-tbf"]
            } else {
                &["tbf"]
            };
            let empty = Table::default();
            let s = root.sub("sweep")?.unwrap_or(Sect {
                path: "sweep".to_owned(),
                table: &empty,
            });
            s.reject_unknown(&[
                "algo",
                "cells_per_element",
                "bits_per_element",
                "k",
                "sub_windows",
                "layout",
                "shards",
                "batch",
                "dispatch",
                "target_fp",
                "group_by",
            ])?;
            let algos = s.str_array("algo", default_algo)?;
            let budgets: Vec<Budget> = if s.value("bits_per_element")?.is_none() {
                let cells = s.usize_array("cells_per_element", &[14])?;
                cells.into_iter().map(Budget::CellsPerElement).collect()
            } else if s.value("cells_per_element")?.is_some() {
                return Err(s.err("bits_per_element", "cannot be set with cells_per_element"));
            } else if algos.iter().any(|a| a == "auto") {
                return Err(s.err("algo", "`auto` needs cells_per_element"));
            } else {
                let bits = s.usize_array("bits_per_element", &[])?;
                bits.into_iter().map(Budget::BitsPerElement).collect()
            };
            let target_fp = s.f64("target_fp", 0.01)?;
            if !(0.0..1.0).contains(&target_fp) || target_fp <= 0.0 {
                return Err(s.err("target_fp", "must be in (0, 1)"));
            }
            let grid = SweepGrid {
                algos,
                budgets,
                hash_counts: s.usize_array("k", &[10])?,
                sub_windows: s.usize_array("sub_windows", &[8])?,
                layouts: s.choices("layout", &["scattered", "blocked"])?,
                shards: s.usize_array("shards", &[1])?,
                batches: s.usize_array("batch", &[512])?,
                dispatches: s.choices("dispatch", DISPATCHES)?,
                target_fp,
                group_by: s.str("group_by", "algo")?,
            };
            if grid.axis_values(&grid.group_by).is_empty() {
                return Err(s.err(
                    "group_by",
                    format!(
                        "must be a grid axis: one of {} (with the budget key the grid sets)",
                        GROUP_BY_AXES.join(", ")
                    ),
                ));
            }
            grid
        };

        let mut gates = Vec::new();
        for g in root.many("gates")? {
            g.reject_unknown(&["axis", "num", "den", "floor", "algos"])?;
            let axis = g.required_str("axis")?;
            let values = sweep.axis_values(&axis);
            if values.is_empty() {
                return Err(g.err("axis", format!("`{axis}` is not an axis of the grid")));
            }
            let (num, den) = (g.required_str("num")?, g.required_str("den")?);
            for (key, v) in [("num", &num), ("den", &den)] {
                if !values.contains(v) {
                    return Err(g.err(key, format!("`{v}` is not a value of sweep.{axis}")));
                }
            }
            if num == den {
                return Err(g.err("den", "must differ from num"));
            }
            let floor = g.f64("floor", 1.0)?;
            if floor <= 0.0 {
                return Err(g.err("floor", "must be positive"));
            }
            let algos = g.str_array("algos", &[])?;
            if algos.is_empty() {
                return Err(g.err("algos", "required key is missing"));
            }
            if let Some(a) = algos.iter().find(|a| !sweep.algos.contains(a)) {
                return Err(g.err("algos", format!("`{a}` is not in sweep.algo")));
            }
            gates.push(RatioGate {
                axis,
                num,
                den,
                floor,
                algos,
            });
        }

        Ok(Self {
            name,
            description,
            seed,
            clicks,
            window,
            traffic,
            inject,
            ramp,
            tenants,
            sweep,
            gates,
        })
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// I/O failures surface as a `file`-path [`ScenarioError`]; parse
    /// failures as in [`ScenarioSpec::parse`].
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new("file", format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Serializes the spec to canonical TOML;
    /// `parse(to_toml(s)) == s` for every valid spec.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        let _ = writeln!(out, "description = {}", toml_str(&self.description));
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "clicks = {}", self.clicks);
        let _ = writeln!(out, "\n[window]");
        match self.window {
            ScenarioWindow::Count { n } => {
                let _ = writeln!(out, "model = \"count\"\nn = {n}");
            }
            ScenarioWindow::Time {
                n,
                window_units,
                sub_units,
                unit_ticks,
            } => {
                let _ = writeln!(out, "model = \"time\"\nn = {n}");
                let _ = writeln!(out, "window_units = {window_units}");
                let _ = writeln!(out, "sub_units = {sub_units}");
                let _ = writeln!(out, "unit_ticks = {unit_ticks}");
            }
        }
        let _ = writeln!(out, "\n[traffic]");
        let _ = writeln!(out, "publishers = {}", self.traffic.publishers);
        let _ = writeln!(out, "ads = {}", self.traffic.ads);
        for e in &self.traffic.mix {
            let _ = writeln!(out, "\n[[traffic.mix]]");
            let _ = writeln!(out, "kind = \"{}\"", e.kind.name());
            let _ = writeln!(out, "weight = {:?}", e.weight);
            match &e.kind {
                MixKind::Unique => {}
                MixKind::Zipf { universe, skew } => {
                    let _ = writeln!(out, "universe = {universe}\nskew = {skew:?}");
                }
                MixKind::Botnet {
                    bots,
                    attack_fraction,
                    target_ad,
                } => {
                    let _ = writeln!(out, "bots = {bots}");
                    let _ = writeln!(out, "attack_fraction = {attack_fraction:?}");
                    let _ = writeln!(out, "target_ad = {target_ad}");
                }
                MixKind::FlashCrowd {
                    crowd_fraction,
                    second_click_prob,
                    hot_ad,
                } => {
                    let _ = writeln!(out, "crowd_fraction = {crowd_fraction:?}");
                    let _ = writeln!(out, "second_click_prob = {second_click_prob:?}");
                    let _ = writeln!(out, "hot_ad = {hot_ad}");
                }
                MixKind::Crawler { crawlers, period } => {
                    let _ = writeln!(out, "crawlers = {crawlers}\nperiod = {period}");
                }
            }
        }
        let _ = writeln!(out, "\n[inject]");
        let _ = writeln!(out, "rate = {:?}", self.inject.rate);
        let _ = writeln!(out, "max_lag = {}", self.inject.max_lag);
        if let Some(r) = self.ramp {
            let _ = writeln!(out, "\n[ramp]");
            let _ = writeln!(out, "period = {}", r.period);
            let _ = writeln!(out, "low = {:?}\nhigh = {:?}", r.low, r.high);
        }
        if let Some(t) = self.tenants {
            let _ = writeln!(out, "\n[tenants]");
            let _ = writeln!(out, "count = {}\nskew = {:?}", t.count, t.skew);
        }
        let _ = writeln!(out, "\n[sweep]");
        let _ = writeln!(out, "algo = {}", toml_str_array(&self.sweep.algos));
        let budgets: Vec<usize> = self.sweep.budgets.iter().map(|b| b.per_element()).collect();
        if let Some(b) = self.sweep.budgets.first() {
            let _ = writeln!(out, "{} = {}", b.key(), toml_int_array(&budgets));
        }
        let _ = writeln!(out, "k = {}", toml_int_array(&self.sweep.hash_counts));
        let _ = writeln!(
            out,
            "sub_windows = {}",
            toml_int_array(&self.sweep.sub_windows)
        );
        let _ = writeln!(out, "layout = {}", toml_str_array(&self.sweep.layouts));
        let _ = writeln!(out, "shards = {}", toml_int_array(&self.sweep.shards));
        let _ = writeln!(out, "batch = {}", toml_int_array(&self.sweep.batches));
        let _ = writeln!(out, "dispatch = {}", toml_str_array(&self.sweep.dispatches));
        let _ = writeln!(out, "target_fp = {:?}", self.sweep.target_fp);
        let _ = writeln!(out, "group_by = {}", toml_str(&self.sweep.group_by));
        for g in &self.gates {
            let _ = writeln!(out, "\n[[gates]]");
            let _ = writeln!(out, "axis = {}", toml_str(&g.axis));
            let _ = writeln!(
                out,
                "num = {}\nden = {}",
                toml_str(&g.num),
                toml_str(&g.den)
            );
            let _ = writeln!(out, "floor = {:?}", g.floor);
            let _ = writeln!(out, "algos = {}", toml_str_array(&g.algos));
        }
        out
    }

    /// The full cartesian sweep grid, in deterministic order (the
    /// declared order of each axis, `algo` outermost).
    #[must_use]
    pub fn grid(&self) -> Vec<SweepPoint> {
        let s = &self.sweep;
        let mut points = Vec::new();
        for algo in &s.algos {
            for &budget in &s.budgets {
                for &k in &s.hash_counts {
                    for &q in &s.sub_windows {
                        for layout in &s.layouts {
                            for &shards in &s.shards {
                                for &batch in &s.batches {
                                    for dispatch in &s.dispatches {
                                        points.push(SweepPoint {
                                            algo: algo.clone(),
                                            budget,
                                            k,
                                            q,
                                            layout: layout.clone(),
                                            shards,
                                            batch,
                                            dispatch: dispatch.clone(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Compiles the spec into its composed click stream.
    #[must_use]
    pub fn compile(&self) -> ScenarioStream {
        let publishers = self.traffic.publishers;
        let ads = self.traffic.ads;
        let mut sources = Vec::with_capacity(self.traffic.mix.len());
        let mut cdf = Vec::with_capacity(self.traffic.mix.len());
        let total: f64 = self.traffic.mix.iter().map(|e| e.weight).sum();
        let mut acc = 0.0;
        for (i, entry) in self.traffic.mix.iter().enumerate() {
            // Each mix entry gets a disjoint namespace pair, so even two
            // entries of the same kind can never mint colliding ids.
            let primary = NS_SCENARIO_BASE + 2 * i as u8;
            let organic = primary + 1;
            let seed = splitmix64(self.seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let source = match entry.kind {
                MixKind::Unique => Source::Unique(
                    UniqueClickStream::new(seed, publishers, ads).with_namespace(primary),
                ),
                MixKind::Zipf { universe, skew } => Source::Zipf(
                    ZipfClickStream::new(universe, skew, seed, publishers, ads)
                        .with_namespace(primary),
                ),
                MixKind::Botnet {
                    bots,
                    attack_fraction,
                    target_ad,
                } => Source::Botnet(
                    BotnetStream::new(
                        BotnetConfig {
                            bots,
                            target_ad: AdId(target_ad),
                            publisher: PublisherId(publishers - 1),
                            attack_fraction,
                            target_cpc_micros: 500_000,
                            seed,
                        },
                        publishers,
                        ads,
                    )
                    .with_namespaces(primary, organic),
                ),
                MixKind::FlashCrowd {
                    crowd_fraction,
                    second_click_prob,
                    hot_ad,
                } => Source::Flash(
                    FlashCrowdStream::new(FlashCrowdConfig {
                        hot_ad: AdId(hot_ad),
                        crowd_fraction,
                        second_click_prob,
                        background_ads: ads,
                        seed,
                    })
                    .with_namespaces(primary, organic),
                ),
                MixKind::Crawler { crawlers, period } => Source::Crawler(
                    CrawlerStream::new(crawlers, ads, period, seed)
                        .with_namespaces(primary, organic),
                ),
            };
            sources.push(source);
            acc += entry.weight / total;
            cdf.push(acc);
        }
        ScenarioStream {
            sources,
            cdf,
            rng: SmallRng::seed_from_u64(splitmix64(self.seed ^ 0x5CE7_A210)),
            inject_rate: self.inject.rate,
            max_lag: self.inject.max_lag,
            history: VecDeque::with_capacity(self.inject.max_lag.min(1 << 20)),
            tenants: self.tenants.map(|t| {
                ZipfSampler::new(t.count as usize, t.skew, splitmix64(self.seed ^ 0x7E7A))
            }),
            ramp: self.ramp,
            tick: 0,
            emitted: 0,
            injected: 0,
        }
    }
}

fn toml_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(ch),
        }
    }
    out.push('"');
    out
}

fn toml_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| toml_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn toml_int_array(items: &[usize]) -> String {
    let nums: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", nums.join(", "))
}

// ---------------------------------------------------------------------
// The compiled stream
// ---------------------------------------------------------------------

/// One click of a compiled scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioClick {
    /// The click.
    pub click: Click,
    /// `true` when this is an injected re-emission (a guaranteed
    /// duplicate of a click at most `max_lag` positions back).
    pub injected: bool,
    /// Index of the originating `[[traffic.mix]]` entry.
    pub source: usize,
}

#[derive(Debug, Clone)]
enum Source {
    Unique(UniqueClickStream),
    Zipf(ZipfClickStream),
    Botnet(BotnetStream),
    Flash(FlashCrowdStream),
    Crawler(CrawlerStream),
}

impl Source {
    fn next_click(&mut self) -> Click {
        match self {
            Self::Unique(s) => s.next(),
            Self::Zipf(s) => s.next(),
            Self::Botnet(s) => s.next().map(|c| c.click),
            Self::Flash(s) => s.next().map(|c| c.click),
            Self::Crawler(s) => s.next(),
        }
        .expect("scenario sources are infinite")
    }
}

/// The composed, deterministic click stream of a [`ScenarioSpec`].
///
/// Each emission draws a sub-stream by weight (or re-emits a recent
/// click at the injection rate), restamps the global tick (advancing by
/// the ramp-modulated gap), and applies the tenant remap. Duplicate
/// ground truth for accuracy measurement comes from running an exact
/// oracle over the final keys; [`ScenarioClick::injected`] additionally
/// marks the guaranteed re-emissions.
#[derive(Debug, Clone)]
pub struct ScenarioStream {
    sources: Vec<Source>,
    cdf: Vec<f64>,
    rng: SmallRng,
    inject_rate: f64,
    max_lag: usize,
    history: VecDeque<(ClickId, PublisherId, u64, usize)>,
    tenants: Option<ZipfSampler>,
    ramp: Option<RampSpec>,
    tick: u64,
    emitted: u64,
    injected: u64,
}

impl ScenarioStream {
    /// Clicks emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Injected (guaranteed-duplicate) clicks emitted so far.
    #[must_use]
    pub fn injected_duplicates(&self) -> u64 {
        self.injected
    }

    /// Every emission — injected or fresh — enters the history, so an
    /// injected duplicate's original is always within the last
    /// `max_lag` *stream positions*.
    fn push_history(&mut self, id: ClickId, publisher: PublisherId, cost: u64, source: usize) {
        if self.history.len() == self.max_lag {
            self.history.pop_front();
        }
        self.history.push_back((id, publisher, cost, source));
    }

    /// The tick gap to the next click: 1, or the ramp's sinusoidal
    /// swing between `low` and `high` over `period` clicks.
    fn gap(&self) -> u64 {
        match self.ramp {
            None => 1,
            Some(r) => {
                let phase = (self.emitted % r.period) as f64 / r.period as f64;
                let mul = r.low
                    + (r.high - r.low) * 0.5 * (1.0 - (phase * 2.0 * std::f64::consts::PI).cos());
                #[allow(clippy::cast_sign_loss)] // low >= 0 is validated
                let gap = mul.round() as u64;
                gap.max(1)
            }
        }
    }
}

impl Iterator for ScenarioStream {
    type Item = ScenarioClick;

    fn next(&mut self) -> Option<ScenarioClick> {
        let tick = self.tick;
        self.tick += self.gap();
        self.emitted += 1;

        if self.inject_rate > 0.0 && !self.history.is_empty() && self.rng.gen_bool(self.inject_rate)
        {
            let back = self.rng.gen_range(0..self.history.len());
            let (id, publisher, cost, source) = self.history[back];
            self.injected += 1;
            self.push_history(id, publisher, cost, source);
            return Some(ScenarioClick {
                click: Click::new(id, tick, publisher, cost),
                injected: true,
                source,
            });
        }

        let u: f64 = self.rng.gen();
        let si = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.sources.len() - 1);
        let mut click = self.sources[si].next_click();
        click.tick = tick;
        if let Some(t) = &mut self.tenants {
            click.id.ad = AdId(t.sample() as u32);
        }
        self.push_history(click.id, click.publisher, click.cost_micros, si);
        Some(ScenarioClick {
            click,
            injected: false,
            source: si,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ids::namespace_of;
    use std::collections::{HashMap, HashSet};

    const FULL: &str = r#"
# A kitchen-sink scenario exercising every section.
[scenario]
name = "kitchen-sink"
description = "all sections at once"
seed = 42
clicks = 30000

[window]
model = "count"
n = 4096

[traffic]
publishers = 16
ads = 64

[[traffic.mix]]
kind = "unique"
weight = 0.35

[[traffic.mix]]
kind = "zipf"
weight = 0.2
universe = 10000
skew = 1.1

[[traffic.mix]]
kind = "botnet"
weight = 0.2
bots = 500
attack_fraction = 0.5
target_ad = 1

[[traffic.mix]]
kind = "flashcrowd"
weight = 0.15
crowd_fraction = 0.7
second_click_prob = 0.1
hot_ad = 3

[[traffic.mix]]
kind = "crawler"
weight = 0.1
crawlers = 32
period = 10

[inject]
rate = 0.02
max_lag = 512

[sweep]
algo = ["tbf", "gbf"]
cells_per_element = [14]
k = [10]
sub_windows = [8]
layout = ["scattered", "blocked"]
shards = [1, 4]
batch = [256]
target_fp = 0.01
group_by = "algo"
"#;

    #[test]
    fn full_spec_parses_and_round_trips() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        assert_eq!(spec.name, "kitchen-sink");
        assert_eq!(spec.traffic.mix.len(), 5);
        assert_eq!(spec.grid().len(), 2 * 2 * 2);
        let again = ScenarioSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_keys_are_rejected_with_field_paths() {
        let bad = FULL.replace("max_lag = 512", "max_lag = 512\nbogus = 1");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(err.path, "inject.bogus");
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn out_of_range_values_name_the_field() {
        let bad = FULL.replace("skew = 1.1", "skew = -2.0");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(err.path, "traffic.mix[1].skew");

        let bad = FULL.replace("rate = 0.02", "rate = 1.5");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(err.path, "inject.rate");

        let bad = FULL.replace("clicks = 30000", "clicks = 0");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(err.path, "scenario.clicks");
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let err = ScenarioSpec::parse("[scenario\nname = \"x\"").unwrap_err();
        assert_eq!(err.path, "line 1");
        let err = ScenarioSpec::parse("[scenario]\nname = ").unwrap_err();
        assert_eq!(err.path, "line 2");
    }

    #[test]
    fn compiled_stream_is_deterministic() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        let a: Vec<ScenarioClick> = spec.compile().take(5_000).collect();
        let b: Vec<ScenarioClick> = spec.compile().take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sub_streams_live_in_disjoint_namespaces() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        // Namespace -> set of sources that produced it. Every namespace
        // must belong to exactly one mix entry.
        let mut owners: HashMap<u8, HashSet<usize>> = HashMap::new();
        for sc in spec.compile().take(30_000).filter(|c| !c.injected) {
            owners
                .entry(namespace_of(sc.click.id.cookie))
                .or_default()
                .insert(sc.source);
        }
        assert!(owners.len() >= 5, "expected many namespaces: {owners:?}");
        for (ns, sources) in &owners {
            assert_eq!(sources.len(), 1, "namespace {ns:#x} shared: {sources:?}");
            assert!(*ns >= NS_SCENARIO_BASE);
        }
    }

    #[test]
    fn injected_clicks_are_exact_duplicates_within_the_lag() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        let mut stream = spec.compile();
        let clicks: Vec<ScenarioClick> = stream.by_ref().take(30_000).collect();
        let injected = stream.injected_duplicates();
        assert!(injected > 300, "too few injections: {injected}");
        for (i, sc) in clicks.iter().enumerate() {
            if sc.injected {
                let lo = i.saturating_sub(spec.inject.max_lag + 1);
                assert!(
                    clicks[lo..i]
                        .iter()
                        .any(|p| p.click.key() == sc.click.key()),
                    "injected click at {i} has no recent original"
                );
            }
        }
    }

    #[test]
    fn ramp_stretches_ticks() {
        let mut spec = ScenarioSpec::parse(FULL).unwrap();
        spec.ramp = Some(RampSpec {
            period: 1000,
            low: 1.0,
            high: 9.0,
        });
        let clicks: Vec<ScenarioClick> = spec.compile().take(2_000).collect();
        let span = clicks.last().unwrap().click.tick;
        // Mean gap of a 1..9 sinusoid is ~5.
        assert!(span > 6_000, "ramp had no effect: span={span}");
        let flat: Vec<ScenarioClick> = ScenarioSpec::parse(FULL)
            .unwrap()
            .compile()
            .take(2_000)
            .collect();
        assert_eq!(flat.last().unwrap().click.tick, 1_999);
    }

    #[test]
    fn tenant_remap_redraws_ads() {
        let mut spec = ScenarioSpec::parse(FULL).unwrap();
        spec.tenants = Some(TenantSpec {
            count: 100_000,
            skew: 0.0,
        });
        let ads: HashSet<u32> = spec
            .compile()
            .take(10_000)
            .map(|c| c.click.id.ad.0)
            .collect();
        assert!(ads.len() > 5_000, "remap should spread ads: {}", ads.len());
    }

    #[test]
    fn budgets_take_one_unit_and_gates_name_grid_values() {
        let gated = format!(
            "{FULL}dispatch = [\"wide\", \"scalar\"]\n[[gates]]\naxis = \"batch\"\n\
             num = \"256\"\nden = \"1\"\nfloor = 1.3\nalgos = [\"gbf\"]\n"
        )
        .replace("batch = [256]", "batch = [256, 1]");
        let spec = ScenarioSpec::parse(&gated).unwrap();
        assert_eq!((spec.gates[0].num.as_str(), spec.grid().len()), ("256", 32));
        assert_eq!(ScenarioSpec::parse(&spec.to_toml()).unwrap(), spec);
        let bits = gated.replace("cells_per_element = [14]", "bits_per_element = [272]");
        let spec = ScenarioSpec::parse(&bits).unwrap();
        assert_eq!(spec.sweep.budgets, [Budget::BitsPerElement(272)]);
        for (from, to, path) in [
            ("den = \"1\"", "den = \"256\"", "gates[0].den"),
            ("den = \"1\"", "den = \"64\"", "gates[0].den"),
            ("den = \"1\"", "den = 1", "gates[0].den"),
            ("[\"gbf\"]\n", "[\"swbf\"]\n", "gates[0].algos"),
            (
                "dispatch = [\"wide\"",
                "dispatch = [\"avx\"",
                "sweep.dispatch",
            ),
            ("algo = [\"tbf\"", "algo = [\"auto\"", "sweep.algo"),
            (
                "k = [10]",
                "k = [10]\ncells_per_element = [14]",
                "sweep.bits_per_element",
            ),
        ] {
            let err = ScenarioSpec::parse(&bits.replace(from, to)).unwrap_err();
            assert_eq!(err.path, path, "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn time_window_spec_parses() {
        let text = FULL.replace(
            "model = \"count\"\nn = 4096",
            "model = \"time\"\nn = 4096\nwindow_units = 32\nsub_units = 4\nunit_ticks = 256",
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert!(spec.window.is_timed());
        assert_eq!(spec.window.n(), 4096);
        let again = ScenarioSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
        // window_units is a time-model key; under count it is unknown.
        let bad = FULL.replace("n = 4096", "n = 4096\nwindow_units = 32");
        assert_eq!(
            ScenarioSpec::parse(&bad).unwrap_err().path,
            "window.window_units"
        );
    }
}
