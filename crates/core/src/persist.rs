//! Suite persistence: save/load of matrix cells as JSON keyed by cell
//! cache keys.
//!
//! A sweep's cells are pure functions of their [`crate::engine::cell_key`],
//! so a save file is simply a `key → RunReport` map: `repro --save` writes
//! it, `repro --load` seeds the engine with it, and only cells whose key is
//! absent (new benchmarks, new techniques, a changed configuration — the
//! key fingerprints the machine) are re-run.
//!
//! The workspace builds fully offline against a marker-only `serde` shim
//! (see `vendor/README.md`), so the codec here is hand-rolled: a minimal
//! JSON value model with a recursive-descent parser. Numbers are kept as
//! their literal token text on both sides, which makes the round trip
//! exact: `u64` counters are written in full precision and `f64` energies
//! are written with Rust's shortest-round-trip formatting, so a loaded
//! suite is bit-identical to the saved one (asserted by the integration
//! suite).
//!
//! # Checkpoint files
//!
//! `--save` writes the whole cell map in one shot at the end of a run — a
//! killed run leaves nothing. The *checkpoint* format is the incremental
//! twin: a JSONL file whose first line is a tagged header and every further
//! line one `{"key": …, "report": …}` cell, appended and flushed by
//! [`CheckpointWriter`] the moment the engine finishes the cell. A crash
//! can lose at most the in-flight cells plus one torn final line, which
//! [`load_checkpoint`] tolerates (and *only* that: a malformed line with
//! more lines after it is corruption, not a crash artifact, and is
//! rejected). [`CheckpointWriter::append_to`] trims that line before a
//! run resumes the file and hands back the cells the file holds;
//! [`load_cells_any`] sniffs the header so `--load` accepts either format
//! interchangeably.

use crate::engine::{CellSink, MatrixSpec};
use crate::runner::RunReport;
use crate::technique::Technique;
use sdiq_compiler::{CompileStats, ProcedureStats};
use sdiq_power::{PowerBreakdown, StructurePower};
use sdiq_sim::ActivityStats;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Seek, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Save-file format version (bumped on breaking schema changes; loading
/// rejects unknown versions instead of misreading them).
pub const FORMAT_VERSION: u64 = 1;

/// An error while parsing or interpreting persisted data: a save file,
/// a checkpoint, or a wire frame built on the same model. The message
/// names no file; callers add their context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    message: String,
}

impl PersistError {
    /// Wraps a codec failure message (public so protocol layers built on
    /// the shared [`Json`] model — the `sdiq-remote` frames — report
    /// through the same type).
    pub fn new(message: impl Into<String>) -> Self {
        PersistError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their literal token so integer and
/// float round trips are exact (see the module docs).
///
/// Public because it is the workspace's one JSON codec: the save/checkpoint
/// files here and the `sdiq-remote` wire frames are all built from and
/// parsed into this model, so every layer round-trips numbers identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered field list (order is preserved on render).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value holding `v`'s exact decimal text.
    pub fn of_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number value holding `v`'s exact decimal text.
    pub fn of_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number value holding `v`'s shortest round-trip text.
    ///
    /// # Panics
    ///
    /// If `v` is not finite (JSON has no token for it).
    pub fn of_f64(v: f64) -> Json {
        // Fail loudly at save time: a bare `NaN`/`inf` token would write a
        // file that every later load rejects — the corruption would be
        // detected at the wrong end. The simulator and power model never
        // produce non-finite values, so this is an invariant, not input
        // validation.
        assert!(v.is_finite(), "save file cannot carry non-finite value {v}");
        // `{:?}` is Rust's shortest representation that parses back to the
        // identical bit pattern.
        Json::Num(format!("{v:?}"))
    }

    /// The object's field list, or an error for any other value.
    pub fn obj(&self) -> Result<&[(String, Json)], PersistError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(PersistError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Field `key` of this object (an error if absent or not an object).
    pub fn get(&self, key: &str) -> Result<&Json, PersistError> {
        self.opt(key)?
            .ok_or_else(|| PersistError::new(format!("missing field `{key}`")))
    }

    /// Field `key` of this object, or `None` if the field is absent (still
    /// an error for a non-object). For fields added after format version 1
    /// that default when missing, so old save files keep loading.
    pub fn opt(&self, key: &str) -> Result<Option<&Json>, PersistError> {
        Ok(self.obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// This number as a `u64`.
    pub fn u64(&self) -> Result<u64, PersistError> {
        match self {
            Json::Num(s) => s
                .parse::<u64>()
                .map_err(|_| PersistError::new(format!("`{s}` is not a u64"))),
            other => Err(PersistError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// This number as a `usize`.
    pub fn usize(&self) -> Result<usize, PersistError> {
        self.u64().map(|v| v as usize)
    }

    /// This number as an `f64` (exact for tokens written by [`Json::of_f64`]).
    pub fn f64(&self) -> Result<f64, PersistError> {
        match self {
            Json::Num(s) => s
                .parse::<f64>()
                .map_err(|_| PersistError::new(format!("`{s}` is not an f64"))),
            other => Err(PersistError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// This value as a string slice.
    pub fn str(&self) -> Result<&str, PersistError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(PersistError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// This value's array items.
    pub fn arr(&self) -> Result<&[Json], PersistError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(PersistError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// Renders this value as compact JSON text appended to `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> PersistError {
        PersistError::new(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), PersistError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, PersistError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, PersistError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, PersistError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, PersistError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII, so the cut always falls on a UTF-8
                    // boundary; validating only the run keeps a parse
                    // linear in the document length.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, PersistError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("empty number"));
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in number"))?;
        Ok(Json::Num(token.to_string()))
    }
}

/// Parses one complete JSON document (trailing content is an error).
pub fn parse(text: &str) -> Result<Json, PersistError> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

/// Lists every `u64` counter of [`ActivityStats`] exactly once; both
/// directions of the codec expand it, so a new counter only needs one
/// edit here (forgetting it breaks the bit-identical round-trip test).
macro_rules! for_each_stats_field {
    ($apply:ident) => {
        $apply!(
            cycles,
            committed,
            committed_hints,
            dispatched,
            issued,
            branches,
            mispredicted_branches,
            btb_misses,
            icache_misses,
            fetch_stall_cycles,
            dispatch_limit_stall_cycles,
            dcache_accesses,
            dcache_misses,
            l2_misses,
            wakeup_broadcasts,
            wakeup_comparisons_full,
            wakeup_comparisons_nonempty,
            wakeup_comparisons_gated,
            iq_writes,
            iq_reads,
            iq_occupancy_sum,
            iq_banks_on_sum,
            iq_total_banks,
            iq_total_entries,
            int_rf_reads,
            int_rf_writes,
            fp_rf_reads,
            fp_rf_writes,
            int_rf_occupancy_sum,
            int_rf_banks_on_sum,
            fp_rf_occupancy_sum,
            fp_rf_banks_on_sum,
            int_rf_total_banks,
            fp_rf_total_banks,
            rob_occupancy_sum,
            rob_full_stall_cycles,
            rename_stall_cycles
        );
    };
}
// The binary twin of this codec (`crate::persist_bin`) expands the same
// list, so a new counter still needs exactly one edit.
pub(crate) use for_each_stats_field;

fn stats_to_json(stats: &ActivityStats) -> Json {
    let mut fields = Vec::new();
    macro_rules! emit {
        ($($name:ident),*) => {
            $(fields.push((stringify!($name).to_string(), Json::of_u64(stats.$name)));)*
        };
    }
    for_each_stats_field!(emit);
    // Technique-extension counters live *outside* the fixed block and are
    // emitted only when set: the six paper techniques never set them, so
    // their saved bytes are exactly the pre-registry format.
    if stats.committed_low_energy != 0 {
        fields.push((
            "committed_low_energy".to_string(),
            Json::of_u64(stats.committed_low_energy),
        ));
    }
    Json::Obj(fields)
}

fn stats_from_json(json: &Json) -> Result<ActivityStats, PersistError> {
    let mut stats = ActivityStats::default();
    macro_rules! read {
        ($($name:ident),*) => {
            $(stats.$name = json.get(stringify!($name))?.u64()?;)*
        };
    }
    for_each_stats_field!(read);
    // Absent in pre-registry saves and for techniques that don't track it.
    stats.committed_low_energy = match json.opt("committed_low_energy")? {
        Some(value) => value.u64()?,
        None => 0,
    };
    Ok(stats)
}

fn structure_power_to_json(power: &StructurePower) -> Json {
    Json::Obj(vec![
        ("dynamic".to_string(), Json::of_f64(power.dynamic)),
        ("static".to_string(), Json::of_f64(power.static_)),
    ])
}

fn structure_power_from_json(json: &Json) -> Result<StructurePower, PersistError> {
    Ok(StructurePower {
        dynamic: json.get("dynamic")?.f64()?,
        static_: json.get("static")?.f64()?,
    })
}

fn power_to_json(power: &PowerBreakdown) -> Json {
    Json::Obj(vec![
        ("iq".to_string(), structure_power_to_json(&power.iq)),
        ("int_rf".to_string(), structure_power_to_json(&power.int_rf)),
        ("fp_rf".to_string(), structure_power_to_json(&power.fp_rf)),
    ])
}

fn power_from_json(json: &Json) -> Result<PowerBreakdown, PersistError> {
    Ok(PowerBreakdown {
        iq: structure_power_from_json(json.get("iq")?)?,
        int_rf: structure_power_from_json(json.get("int_rf")?)?,
        fp_rf: structure_power_from_json(json.get("fp_rf")?)?,
    })
}

fn compile_to_json(stats: &CompileStats) -> Json {
    Json::Obj(vec![
        (
            "annotated_blocks".to_string(),
            Json::of_usize(stats.annotated_blocks),
        ),
        (
            "hint_noops_inserted".to_string(),
            Json::of_usize(stats.hint_noops_inserted),
        ),
        (
            "total_duration_nanos".to_string(),
            Json::of_u64(stats.total_duration.as_nanos() as u64),
        ),
        (
            "per_procedure".to_string(),
            Json::Arr(
                stats
                    .per_procedure
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(p.name.clone())),
                            (
                                "blocks_analysed".to_string(),
                                Json::of_usize(p.blocks_analysed),
                            ),
                            (
                                "loops_analysed".to_string(),
                                Json::of_usize(p.loops_analysed),
                            ),
                            ("dag_regions".to_string(), Json::of_usize(p.dag_regions)),
                            (
                                "duration_nanos".to_string(),
                                Json::of_u64(p.duration.as_nanos() as u64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn compile_from_json(json: &Json) -> Result<CompileStats, PersistError> {
    let per_procedure = json
        .get("per_procedure")?
        .arr()?
        .iter()
        .map(|p| {
            Ok(ProcedureStats {
                name: p.get("name")?.str()?.to_string(),
                blocks_analysed: p.get("blocks_analysed")?.usize()?,
                loops_analysed: p.get("loops_analysed")?.usize()?,
                dag_regions: p.get("dag_regions")?.usize()?,
                duration: Duration::from_nanos(p.get("duration_nanos")?.u64()?),
            })
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(CompileStats {
        per_procedure,
        total_duration: Duration::from_nanos(json.get("total_duration_nanos")?.u64()?),
        annotated_blocks: json.get("annotated_blocks")?.usize()?,
        hint_noops_inserted: json.get("hint_noops_inserted")?.usize()?,
    })
}

/// Serialises one [`RunReport`] into the shared JSON model (the same
/// encoding used inside save files, checkpoint lines and remote frames —
/// numbers round-trip exactly in all three).
pub fn report_to_json(report: &RunReport) -> Json {
    Json::Obj(vec![
        ("workload".to_string(), Json::Str(report.workload.clone())),
        (
            "technique".to_string(),
            Json::Str(report.technique.name().to_string()),
        ),
        ("stats".to_string(), stats_to_json(&report.stats)),
        ("power".to_string(), power_to_json(&report.power)),
        (
            "compile".to_string(),
            match &report.compile {
                Some(stats) => compile_to_json(stats),
                None => Json::Null,
            },
        ),
        (
            "adaptive_resizes".to_string(),
            Json::of_u64(report.adaptive_resizes),
        ),
        (
            "hint_noops_inserted".to_string(),
            Json::of_usize(report.hint_noops_inserted),
        ),
    ])
}

/// Parses a [`RunReport`] back out of the shared JSON model.
pub fn report_from_json(json: &Json) -> Result<RunReport, PersistError> {
    let technique_name = json.get("technique")?.str()?;
    let technique = Technique::from_name(technique_name)
        .ok_or_else(|| PersistError::new(format!("unknown technique `{technique_name}`")))?;
    let compile = match json.get("compile")? {
        Json::Null => None,
        other => Some(compile_from_json(other)?),
    };
    Ok(RunReport {
        workload: json.get("workload")?.str()?.to_string(),
        technique,
        stats: stats_from_json(json.get("stats")?)?,
        power: power_from_json(json.get("power")?)?,
        compile,
        adaptive_resizes: json.get("adaptive_resizes")?.u64()?,
        hint_noops_inserted: json.get("hint_noops_inserted")?.usize()?,
    })
}

/// Serialises a [`MatrixSpec`] into the shared JSON model (shipped inside
/// the remote protocol's `RunCells` frame).
pub fn matrix_spec_to_json(spec: &MatrixSpec) -> Json {
    Json::Obj(vec![
        ("scale".to_string(), Json::of_f64(spec.scale)),
        (
            "sweeps".to_string(),
            Json::Arr(
                spec.sweeps
                    .iter()
                    .map(|(axis, values)| {
                        Json::Obj(vec![
                            ("axis".to_string(), Json::Str(axis.clone())),
                            (
                                "values".to_string(),
                                Json::Arr(values.iter().map(|&v| Json::of_f64(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "benchmarks".to_string(),
            Json::Arr(spec.benchmarks.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "techniques".to_string(),
            Json::Arr(spec.techniques.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// Parses a [`MatrixSpec`] back out of the shared JSON model. Only the
/// shape is validated here; name resolution and range checks happen in
/// [`MatrixSpec::matrix`], where a precise error can name the field.
pub fn matrix_spec_from_json(json: &Json) -> Result<MatrixSpec, PersistError> {
    let strings = |value: &Json| -> Result<Vec<String>, PersistError> {
        value
            .arr()?
            .iter()
            .map(|item| item.str().map(str::to_string))
            .collect()
    };
    let sweeps = json
        .get("sweeps")?
        .arr()?
        .iter()
        .map(|sweep| {
            Ok((
                sweep.get("axis")?.str()?.to_string(),
                sweep
                    .get("values")?
                    .arr()?
                    .iter()
                    .map(Json::f64)
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(MatrixSpec {
        scale: json.get("scale")?.f64()?,
        sweeps,
        benchmarks: strings(json.get("benchmarks")?)?,
        techniques: strings(json.get("techniques")?)?,
    })
}

// ---------------------------------------------------------------------------
// Save-file surface
// ---------------------------------------------------------------------------

/// Serialises key-addressed cells into the save-file JSON.
pub fn save_cells(cells: &BTreeMap<String, RunReport>) -> String {
    let document = Json::Obj(vec![
        ("format".to_string(), Json::of_u64(FORMAT_VERSION)),
        (
            "cells".to_string(),
            Json::Obj(
                cells
                    .iter()
                    .map(|(key, report)| (key.clone(), report_to_json(report)))
                    .collect(),
            ),
        ),
    ]);
    let mut out = String::new();
    document.render(&mut out);
    out.push('\n');
    out
}

/// Parses a save file back into key-addressed cells, ready to seed
/// [`crate::Matrix::run_with`].
pub fn load_cells(text: &str) -> Result<HashMap<String, RunReport>, PersistError> {
    cells_of(&parse(text)?)
}

/// The cells of a parsed save-file document.
fn cells_of(document: &Json) -> Result<HashMap<String, RunReport>, PersistError> {
    let format = document.get("format")?.u64()?;
    if format != FORMAT_VERSION {
        return Err(PersistError::new(format!(
            "unsupported format version {format} (this build reads {FORMAT_VERSION})"
        )));
    }
    document
        .get("cells")?
        .obj()?
        .iter()
        .map(|(key, value)| Ok((key.clone(), report_from_json(value)?)))
        .collect()
}

// ---------------------------------------------------------------------------
// Incremental checkpoint files (JSONL)
// ---------------------------------------------------------------------------

fn checkpoint_header() -> String {
    let header = Json::Obj(vec![
        ("format".to_string(), Json::of_u64(FORMAT_VERSION)),
        ("kind".to_string(), Json::Str("checkpoint".to_string())),
    ]);
    let mut out = String::new();
    header.render(&mut out);
    out
}

/// Renders one checkpoint cell line (no trailing newline): the
/// `{"key": …, "report": …}` JSONL record [`CheckpointWriter`] appends.
/// Public so tests and tooling can synthesise checkpoint files that are
/// byte-compatible with the writer's.
pub fn checkpoint_line(key: &str, report: &RunReport) -> String {
    let mut line = String::new();
    Json::Obj(vec![
        ("key".to_string(), Json::Str(key.to_string())),
        ("report".to_string(), report_to_json(report)),
    ])
    .render(&mut line);
    line
}

/// Incremental, crash-durable cell persistence: one JSONL line per
/// completed cell, written and fsynced immediately (see the module docs).
///
/// The writer opens its file in append mode, so resuming a run with the
/// same checkpoint path keeps extending the same file; the header line is
/// only written when the file starts empty. It is `Sync` (a mutex
/// serialises the worker threads' appends) and implements [`CellSink`], so
/// it plugs straight into [`crate::Matrix::run_with_sink`].
///
/// # Durability
///
/// Every [`CheckpointWriter::append`] ends in `File::sync_data`, and
/// creating a fresh checkpoint file fsyncs the parent directory, so an
/// acked cell survives a *machine* crash (power loss), not just a killed
/// process — a userspace flush alone leaves the data in the page cache.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: Mutex<std::fs::File>,
    path: std::path::PathBuf,
    synced_appends: std::sync::atomic::AtomicU64,
}

impl CheckpointWriter {
    /// Opens (or creates) the checkpoint file at `path` for appending,
    /// writing the header line if the file is empty, and returns the
    /// writer with the cells the file already holds (a resumed run seeds
    /// itself from them). This is the one reader of a checkpoint that
    /// will be extended: it reads the file once, heals it, and parses
    /// what it keeps.
    ///
    /// A non-empty file whose first line is not a checkpoint header — a
    /// `--save` file, say — is refused with an `InvalidData` error before
    /// anything is trimmed or written: appending to it would leave a file
    /// that neither loader reads. So is a file whose cells do not parse
    /// (see [`load_checkpoint`]).
    ///
    /// A file that does not end in a newline carries the torn final line
    /// of a killed append, or a header torn before its first sync. That
    /// fragment is incomplete JSON and can never be recovered, so it is
    /// **trimmed here** before appending resumes — otherwise the first new
    /// cell would be written onto the end of the fragment, fusing both
    /// into one malformed *interior* line that poisons every later load
    /// of the file.
    pub fn append_to(
        path: impl AsRef<Path>,
    ) -> std::io::Result<(Self, HashMap<String, RunReport>)> {
        use std::io::Read;
        let path = path.as_ref().to_path_buf();
        let created = !path.exists();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false) // existing cells are the whole point
            .open(&path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        let invalid = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
        if !starts_as_checkpoint(&contents) {
            return Err(invalid(
                "not a checkpoint file (its first line is not a checkpoint header); \
                 refusing to append to it"
                    .to_string(),
            ));
        }
        // Keep only whole newline-terminated lines.
        let keep = contents
            .iter()
            .rposition(|&byte| byte == b'\n')
            .map_or(0, |pos| pos + 1);
        let text = std::str::from_utf8(&contents[..keep]).map_err(|e| invalid(e.to_string()))?;
        let cells = match text {
            "" => HashMap::new(),
            text => load_checkpoint(text).map_err(|e| invalid(e.to_string()))?,
        };
        if keep < contents.len() {
            file.set_len(keep as u64)?;
        }
        file.seek(std::io::SeekFrom::End(0))?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{}", checkpoint_header())?;
            file.sync_data()?;
        }
        // The file's *name* is a directory entry: without a directory
        // fsync a machine crash can forget the file existed at all, even
        // though its data blocks were synced. Unix-only — Windows cannot
        // open a directory with File::open (and NTFS journals the
        // namespace anyway), so there this would turn creation into an
        // Access Denied error.
        #[cfg(unix)]
        if created {
            let dir = match path.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
                _ => std::path::PathBuf::from("."),
            };
            std::fs::File::open(&dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = created;
        let writer = CheckpointWriter {
            file: Mutex::new(file),
            path,
            synced_appends: std::sync::atomic::AtomicU64::new(0),
        };
        Ok((writer, cells))
    }

    /// Appends one completed cell and **fsyncs** it (`File::sync_data`), so
    /// neither a kill nor a machine crash right after this call returns can
    /// lose the cell.
    pub fn append(&self, key: &str, report: &RunReport) -> std::io::Result<()> {
        let _span = sdiq_obs::span("checkpoint-append", "persist");
        sdiq_obs::metrics().checkpoint_appends.inc();
        let mut line = checkpoint_line(key, report);
        line.push('\n');
        // A poisoned lock means another append panicked mid-write; the
        // checkpoint format is line-oriented and the loader skips torn
        // trailing lines, so recovering and appending is safe.
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        self.synced_appends
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Number of appends that have reached `sync_data` successfully — an
    /// append is only acked durable once this has ticked (tests pin that
    /// every append syncs rather than merely flushing to the page cache).
    pub fn synced_appends(&self) -> u64 {
        self.synced_appends
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CellSink for CheckpointWriter {
    fn cell_complete(&self, key: &str, report: &RunReport) {
        // A checkpoint that silently stops persisting is worse than a
        // crash — fail the run loudly (disk full, permissions, …).
        self.append(key, report)
            .unwrap_or_else(|e| panic!("checkpoint append to {} failed: {e}", self.path.display()));
    }
}

/// Parses a checkpoint file (see the module docs). A torn **final** line —
/// the signature of a run killed mid-append — is tolerated and simply not
/// part of the result; a malformed line anywhere else is corruption and an
/// error. Duplicate keys keep the newest line.
pub fn load_checkpoint(text: &str) -> Result<HashMap<String, RunReport>, PersistError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| PersistError::new("empty checkpoint file"))?;
    let header = parse(header)?;
    let format = header.get("format")?.u64()?;
    if format != FORMAT_VERSION {
        return Err(PersistError::new(format!(
            "unsupported format version {format} (this build reads {FORMAT_VERSION})"
        )));
    }
    if header.get("kind")?.str()? != "checkpoint" {
        return Err(PersistError::new("header is not a checkpoint header"));
    }

    let mut cells = HashMap::new();
    let mut pending: Option<(usize, PersistError)> = None;
    for (index, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        // A parse failure is only acceptable on the final line; remember it
        // and fail if any non-empty line follows.
        if let Some((bad_index, error)) = pending.take() {
            return Err(PersistError::new(format!(
                "malformed checkpoint line {} followed by more data: {error}",
                bad_index + 1
            )));
        }
        let cell = parse(line).and_then(|json| {
            Ok((
                json.get("key")?.str()?.to_string(),
                report_from_json(json.get("report")?)?,
            ))
        });
        match cell {
            Ok((key, report)) => {
                cells.insert(key, report);
            }
            Err(error) => pending = Some((index, error)),
        }
    }
    Ok(cells)
}

/// Whether a parsed first line is a checkpoint header.
fn is_checkpoint_header(first: &Json) -> bool {
    first
        .get("kind")
        .and_then(|kind| kind.str())
        .is_ok_and(|kind| kind == "checkpoint")
}

/// Whether [`CheckpointWriter::append_to`] may extend a file holding
/// `contents`: it is empty, its first line is a checkpoint header, or it
/// is one unterminated line that starts the header this writer writes (a
/// run killed while writing it).
fn starts_as_checkpoint(contents: &[u8]) -> bool {
    match contents.iter().position(|&byte| byte == b'\n') {
        Some(end) => std::str::from_utf8(&contents[..end])
            .ok()
            .and_then(|line| parse(line).ok())
            .is_some_and(|first| is_checkpoint_header(&first)),
        None => checkpoint_header().as_bytes().starts_with(contents),
    }
}

/// Loads either persistence format: a whole-document save file
/// ([`save_cells`]) or a JSONL checkpoint ([`CheckpointWriter`]), detected
/// by the checkpoint header on the first line. A save is written as one
/// line, so its first line is the whole document and is parsed only once.
pub fn load_cells_any(text: &str) -> Result<HashMap<String, RunReport>, PersistError> {
    let first_line = text.lines().next().unwrap_or("");
    let first = parse(first_line);
    let is_checkpoint = first.as_ref().is_ok_and(is_checkpoint_header);
    match first {
        _ if is_checkpoint => load_checkpoint(text),
        Ok(document) if first_line.len() == text.trim_end().len() => cells_of(&document),
        _ => load_cells(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Experiment;
    use proptest::prelude::*;
    use sdiq_workloads::Benchmark;

    #[test]
    fn json_parser_round_trips_scalars_and_nesting() {
        let text = r#"{"a": [1, -2.5, "x\ny", true, null], "b": {"c": 18446744073709551615}}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(
            parsed.get("b").unwrap().get("c").unwrap().u64(),
            Ok(u64::MAX)
        );
        let items = parsed.get("a").unwrap().arr().unwrap();
        assert_eq!(items[0].u64(), Ok(1));
        assert_eq!(items[1].f64(), Ok(-2.5));
        assert_eq!(items[2].str(), Ok("x\ny"));
        assert_eq!(items[3], Json::Bool(true));
        assert_eq!(items[4], Json::Null);
        // Render → parse is the identity.
        let mut rendered = String::new();
        parsed.render(&mut rendered);
        assert_eq!(parse(&rendered).unwrap(), parsed);
    }

    /// The string scan is linear: a 4 MiB string parses in milliseconds,
    /// where re-validating the rest of the document at every character
    /// took minutes. The parse runs on a thread the test waits on with a
    /// timeout, so a regression fails in seconds instead of stalling the
    /// suite.
    #[test]
    fn a_multi_megabyte_string_parses_in_linear_time() {
        let unit = "plain text, é 漢 🦀, a \"quote\", a back\\slash\n";
        let text = unit.repeat((4 << 20) / unit.len());
        let mut document = String::new();
        Json::Str(text.clone()).render(&mut document);
        let (done, parsed) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = done.send(parse(&document));
        });
        let parsed = parsed
            .recv_timeout(Duration::from_secs(2))
            .expect("a 4 MiB string parses within two seconds");
        parser.join().unwrap();
        assert_eq!(parsed, Ok(Json::Str(text)));
    }

    /// Characters that stress the string codec: the two that must be
    /// escaped, control characters, and 1- to 4-byte UTF-8 scalars.
    const STRING_ALPHABET: [char; 14] = [
        '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', 'a', '/', 'é', 'ß', '€', '漢', '🦀', '𝄞',
    ];

    proptest! {
        #[test]
        fn strings_round_trip_through_render_and_parse(
            text in prop::collection::vec(0..STRING_ALPHABET.len(), 0..48)
                .prop_map(|picks| picks.into_iter().map(|i| STRING_ALPHABET[i]).collect::<String>()),
        ) {
            // As an object key and as a string value.
            let document = Json::Obj(vec![(text.clone(), Json::Str(text))]);
            let mut rendered = String::new();
            document.render(&mut rendered);
            prop_assert_eq!(parse(&rendered), Ok(document));
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} extra", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(load_cells("{\"format\": 99, \"cells\": {}}").is_err());
        assert!(load_cells("{\"cells\": {}}").is_err());
    }

    #[test]
    fn run_report_round_trips_bit_identically() {
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        for technique in [Technique::Baseline, Technique::Noop, Technique::Abella] {
            let report = exp.run(Benchmark::Gzip, technique);
            let json = report_to_json(&report);
            let back = report_from_json(&json).unwrap();
            assert_eq!(report, back, "{technique} report must round-trip");
        }
    }

    #[test]
    fn checkpoint_round_trips_and_tolerates_a_torn_tail() {
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let a = exp.run(Benchmark::Gzip, Technique::Baseline);
        let b = exp.run(Benchmark::Gzip, Technique::Noop);
        let dir = std::env::temp_dir().join(format!("sdiq-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.ckpt");
        let _ = std::fs::remove_file(&path);

        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        writer.append("k1", &a).unwrap();
        writer.append("k2", &b).unwrap();
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let cells = load_checkpoint(&text).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells.get("k1"), Some(&a), "checkpoint cells round-trip");
        assert_eq!(cells.get("k2"), Some(&b));
        // The sniffing loader picks the right decoder for both formats.
        assert_eq!(load_cells_any(&text).unwrap(), cells);
        let save = save_cells(&cells.clone().into_iter().collect());
        assert_eq!(load_cells_any(&save).unwrap(), cells);

        // A kill mid-append tears the final line: that cell is lost, every
        // earlier cell survives.
        let torn = &text[..text.len() - 10];
        let survivors = load_checkpoint(torn).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors.get("k1"), Some(&a));

        // Re-opening the same path appends (no second header), and a newer
        // line for an existing key wins.
        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        writer.append("k1", &b).unwrap();
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("checkpoint").count(), 1, "one header");
        let cells = load_checkpoint(&text).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells.get("k1"), Some(&b), "newest line wins");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resuming_onto_a_torn_checkpoint_heals_the_file() {
        // Regression: append mode used to write the first resumed cell
        // straight onto the torn fragment, fusing them into one malformed
        // *interior* line — every load after a ≥2-cell resume then failed
        // with "malformed checkpoint line followed by more data".
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let a = exp.run(Benchmark::Gzip, Technique::Baseline);
        let b = exp.run(Benchmark::Gzip, Technique::Noop);
        let dir = std::env::temp_dir().join(format!("sdiq-ckpt-heal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.ckpt");
        let _ = std::fs::remove_file(&path);

        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        writer.append("k1", &a).unwrap();
        writer.append("k2", &b).unwrap();
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap(); // tear k2

        // Resume and append two cells past the torn fragment; the writer
        // hands back the one cell that survived the tear.
        let (writer, held) = CheckpointWriter::append_to(&path).unwrap();
        assert_eq!(held.len(), 1);
        assert_eq!(held.get("k1"), Some(&a));
        writer.append("k2", &b).unwrap();
        writer.append("k3", &a).unwrap();
        drop(writer);
        let healed = std::fs::read_to_string(&path).unwrap();
        let cells = load_checkpoint(&healed).expect("resumed file must stay loadable");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.get("k2"), Some(&b), "torn cell rewritten cleanly");

        // And a second resume keeps working (the file stays healthy).
        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        writer.append("k4", &b).unwrap();
        drop(writer);
        let again = std::fs::read_to_string(&path).unwrap();
        assert_eq!(load_checkpoint(&again).unwrap().len(), 4);

        // A file torn *inside the header* heals to a fresh checkpoint.
        std::fs::write(&path, "{\"format\":1,\"ki").unwrap();
        let (writer, held) = CheckpointWriter::append_to(&path).unwrap();
        assert!(held.is_empty());
        writer.append("k1", &a).unwrap();
        drop(writer);
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert_eq!(load_checkpoint(&fresh).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_appends_are_fsynced_durable() {
        // A flushed-but-unsynced append survives a process kill but not a
        // machine crash: the cell would still sit in the page cache. Every
        // `append` must therefore reach `sync_data` before acking — pinned
        // via the writer's synced-append counter (one tick per successful
        // sync), on a freshly *created* file so the parent-directory fsync
        // path runs too.
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let report = exp.run(Benchmark::Gzip, Technique::Baseline);
        let dir = std::env::temp_dir().join(format!("sdiq-ckpt-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.ckpt");
        let _ = std::fs::remove_file(&path);

        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        assert_eq!(writer.synced_appends(), 0, "no cells yet");
        writer.append("k1", &report).unwrap();
        writer.append("k2", &report).unwrap();
        assert_eq!(writer.synced_appends(), 2, "every append syncs");
        drop(writer);

        // Re-opening an existing file (the resume path, no directory-entry
        // creation to sync) keeps the same per-append guarantee.
        let (writer, _) = CheckpointWriter::append_to(&path).unwrap();
        writer.append("k3", &report).unwrap();
        assert_eq!(writer.synced_appends(), 1);
        drop(writer);
        assert_eq!(
            load_checkpoint(&std::fs::read_to_string(&path).unwrap())
                .unwrap()
                .len(),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rejects_interior_corruption_and_bad_headers() {
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let report = exp.run(Benchmark::Gzip, Technique::Baseline);
        let mut good_line = String::new();
        Json::Obj(vec![
            ("key".to_string(), Json::Str("k".to_string())),
            ("report".to_string(), report_to_json(&report)),
        ])
        .render(&mut good_line);

        // A torn line *followed by more data* is corruption, not a crash.
        let corrupt = format!("{}\n{{torn\n{good_line}\n", checkpoint_header());
        assert!(load_checkpoint(&corrupt).is_err());

        assert!(load_checkpoint("").is_err(), "empty file");
        assert!(
            load_checkpoint("{\"format\":1,\"kind\":\"elsewise\"}\n").is_err(),
            "wrong kind"
        );
        assert!(
            load_checkpoint("{\"format\":99,\"kind\":\"checkpoint\"}\n").is_err(),
            "unknown format version"
        );
    }

    #[test]
    fn save_and_load_preserve_the_cell_map() {
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let mut cells = BTreeMap::new();
        cells.insert(
            "gzip|baseline|base|0000000000000000".to_string(),
            exp.run(Benchmark::Gzip, Technique::Baseline),
        );
        cells.insert(
            "gzip|noop|base|0000000000000000".to_string(),
            exp.run(Benchmark::Gzip, Technique::Noop),
        );
        let text = save_cells(&cells);
        let loaded = load_cells(&text).unwrap();
        assert_eq!(loaded.len(), 2);
        for (key, report) in &cells {
            assert_eq!(loaded.get(key), Some(report), "{key}");
        }
    }
}
