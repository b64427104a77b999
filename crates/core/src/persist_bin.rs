//! Binary twin of the [`crate::persist`] JSON codec, for the wire.
//!
//! Save files stay JSON — human-inspectable, exact-round-trip, and the
//! oracle this codec is differentially tested against. The remote
//! substrate, though, re-encodes the same `MatrixSpec` on every batch and
//! a ~2 KB `RunReport` on every completed cell, and on a hot fleet the
//! JSON string machinery (field names, decimal rendering, escaping,
//! recursive-descent parsing) dominates the frame cost. This module is
//! the compact encoding every frame travels in:
//!
//! * **varints** — `u64`/`usize` as LEB128 (7 value bits per byte,
//!   continuation high bit), so the typical small counter is one byte,
//! * **strings** — varint byte length, then raw UTF-8 (no escaping),
//! * **floats** — `f64::to_bits` as 8 little-endian bytes: bit-exact by
//!   construction, including negative zero (the JSON side promises the
//!   same via shortest-round-trip formatting),
//! * **options** — one presence byte (0 absent / 1 present),
//! * **sequences** — varint element count, then the elements.
//!
//! Field order is fixed by the encode functions below; there are no field
//! names on the wire and no version inside the payload: a coordinator and
//! its daemons run one build, so one layout (`bin1`).
//!
//! Decoding is hardened for untrusted input: [`ByteReader`] bounds-checks
//! every read against the slice it was given (truncated or hostile
//! lengths error — they never panic and never over-read), and element
//! counts are validated against the bytes actually remaining before any
//! allocation.

use crate::engine::MatrixSpec;
use crate::persist::{for_each_stats_field, PersistError};
use crate::runner::RunReport;
use crate::technique::Technique;
use sdiq_compiler::{CompileStats, ProcedureStats};
use sdiq_power::{PowerBreakdown, StructurePower};
use sdiq_sim::ActivityStats;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (1 byte per 7 value bits, high bit =
/// continuation; at most 10 bytes for a full `u64`).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as a varint (see [`put_varint`]).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_varint(out, v as u64);
}

/// Appends `s` as a varint byte length followed by raw UTF-8.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends `v` bit-exactly as 8 little-endian bytes of `f64::to_bits`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `v` as 8 fixed little-endian bytes — for full-entropy values
/// (fingerprints) where a varint would average *longer* than fixed width.
pub fn put_u64_fixed(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A cursor over untrusted bytes. Every read checks the remaining length
/// first and returns a [`PersistError`] on shortfall — hostile input can
/// make decoding fail, never panic or read past the slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte was consumed — trailing content means the
    /// two sides disagree about the layout, which must not pass silently.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::new(format!(
                "binary payload has {} trailing byte(s)",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let Some(&byte) = self.bytes.get(self.pos) else {
            return Err(PersistError::new("binary payload truncated"));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a LEB128 varint into a `u64`. Rejects encodings longer than
    /// 10 bytes and final-byte bits that overflow 64 (a canonical encoder
    /// never produces either, so both mean corruption).
    pub fn varint(&mut self) -> Result<u64, PersistError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(PersistError::new("varint overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(PersistError::new("varint longer than 10 bytes"))
    }

    /// Reads a varint that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.varint()?)
            .map_err(|_| PersistError::new("binary length does not fit usize"))
    }

    /// Reads a varint byte length, then that many bytes of UTF-8. The
    /// length is checked against the remaining bytes *before* slicing, so
    /// a hostile length cannot over-read (or over-allocate: the string
    /// borrows from the payload until `to_string`).
    pub fn str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(PersistError::new(format!(
                "binary string length {len} exceeds the {} byte(s) left in the payload",
                self.remaining()
            )));
        }
        let bytes = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes)
            .map_err(|_| PersistError::new("binary string is not valid UTF-8"))
    }

    /// Reads 8 little-endian bytes as `f64::from_bits`.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64_fixed()?))
    }

    /// Reads 8 fixed little-endian bytes as a `u64` (see [`put_u64_fixed`]).
    pub fn u64_fixed(&mut self) -> Result<u64, PersistError> {
        if self.remaining() < 8 {
            return Err(PersistError::new(
                "binary payload truncated inside a fixed u64",
            ));
        }
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(bits))
    }

    /// Reads a varint element count for a sequence whose elements each
    /// occupy at least `min_element_bytes` — a count the remaining bytes
    /// cannot possibly satisfy errors here, before any allocation.
    pub fn seq_len(&mut self, min_element_bytes: usize) -> Result<usize, PersistError> {
        let count = self.usize()?;
        if count > self.remaining() / min_element_bytes.max(1) {
            return Err(PersistError::new(format!(
                "binary sequence claims {count} element(s) but only {} byte(s) remain",
                self.remaining()
            )));
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

fn encode_stats(out: &mut Vec<u8>, stats: &ActivityStats) {
    macro_rules! emit {
        ($($name:ident),*) => {
            $(put_varint(out, stats.$name);)*
        };
    }
    for_each_stats_field!(emit);
}

fn decode_stats(reader: &mut ByteReader<'_>) -> Result<ActivityStats, PersistError> {
    let mut stats = ActivityStats::default();
    macro_rules! read {
        ($($name:ident),*) => {
            $(stats.$name = reader.varint()?;)*
        };
    }
    for_each_stats_field!(read);
    Ok(stats)
}

fn encode_structure_power(out: &mut Vec<u8>, power: &StructurePower) {
    put_f64(out, power.dynamic);
    put_f64(out, power.static_);
}

fn decode_structure_power(reader: &mut ByteReader<'_>) -> Result<StructurePower, PersistError> {
    Ok(StructurePower {
        dynamic: reader.f64()?,
        static_: reader.f64()?,
    })
}

fn encode_power(out: &mut Vec<u8>, power: &PowerBreakdown) {
    encode_structure_power(out, &power.iq);
    encode_structure_power(out, &power.int_rf);
    encode_structure_power(out, &power.fp_rf);
}

fn decode_power(reader: &mut ByteReader<'_>) -> Result<PowerBreakdown, PersistError> {
    Ok(PowerBreakdown {
        iq: decode_structure_power(reader)?,
        int_rf: decode_structure_power(reader)?,
        fp_rf: decode_structure_power(reader)?,
    })
}

fn encode_compile(out: &mut Vec<u8>, stats: &CompileStats) {
    put_usize(out, stats.annotated_blocks);
    put_usize(out, stats.hint_noops_inserted);
    put_varint(out, stats.total_duration.as_nanos() as u64);
    put_usize(out, stats.per_procedure.len());
    for p in &stats.per_procedure {
        put_str(out, &p.name);
        put_usize(out, p.blocks_analysed);
        put_usize(out, p.loops_analysed);
        put_usize(out, p.dag_regions);
        put_varint(out, p.duration.as_nanos() as u64);
    }
}

fn decode_compile(reader: &mut ByteReader<'_>) -> Result<CompileStats, PersistError> {
    let annotated_blocks = reader.usize()?;
    let hint_noops_inserted = reader.usize()?;
    let total_duration = Duration::from_nanos(reader.varint()?);
    // Each procedure is at least 5 bytes (empty name + four zero varints).
    let count = reader.seq_len(5)?;
    let mut per_procedure = Vec::with_capacity(count);
    for _ in 0..count {
        per_procedure.push(ProcedureStats {
            name: reader.str()?.to_string(),
            blocks_analysed: reader.usize()?,
            loops_analysed: reader.usize()?,
            dag_regions: reader.usize()?,
            duration: Duration::from_nanos(reader.varint()?),
        });
    }
    Ok(CompileStats {
        per_procedure,
        total_duration,
        annotated_blocks,
        hint_noops_inserted,
    })
}

/// Appends one [`RunReport`] in the canonical field order (the binary
/// equivalent of [`crate::persist::report_to_json`]).
pub fn encode_report(out: &mut Vec<u8>, report: &RunReport) {
    put_str(out, &report.workload);
    put_str(out, report.technique.name());
    encode_stats(out, &report.stats);
    // Technique-extension counters sit outside the fixed `encode_stats`
    // block. The wire carries no field names, so presence must be
    // *deterministic*: the counter is written iff the technique's registry
    // spec declares it. The six paper techniques don't, keeping their
    // encodings byte-identical to the pre-registry format;
    // version-skewed peers fail earlier, at the unknown technique name.
    if report.technique.tracks_low_energy() {
        put_varint(out, report.stats.committed_low_energy);
    }
    encode_power(out, &report.power);
    match &report.compile {
        Some(stats) => {
            out.push(1);
            encode_compile(out, stats);
        }
        None => out.push(0),
    }
    put_varint(out, report.adaptive_resizes);
    put_usize(out, report.hint_noops_inserted);
}

/// One [`RunReport`] as a standalone byte buffer.
pub fn report_to_bytes(report: &RunReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    encode_report(&mut out, report);
    out
}

/// Decodes one [`RunReport`] (the inverse of [`encode_report`]).
pub fn decode_report(reader: &mut ByteReader<'_>) -> Result<RunReport, PersistError> {
    let workload = reader.str()?.to_string();
    let technique_name = reader.str()?;
    let technique = Technique::from_name(technique_name)
        .ok_or_else(|| PersistError::new(format!("unknown technique `{technique_name}`")))?;
    let mut stats = decode_stats(reader)?;
    if technique.tracks_low_energy() {
        stats.committed_low_energy = reader.varint()?;
    }
    let power = decode_power(reader)?;
    let compile = match reader.u8()? {
        0 => None,
        1 => Some(decode_compile(reader)?),
        other => {
            return Err(PersistError::new(format!(
                "bad compile presence byte {other:#04x}"
            )))
        }
    };
    Ok(RunReport {
        workload,
        technique,
        stats,
        power,
        compile,
        adaptive_resizes: reader.varint()?,
        hint_noops_inserted: reader.usize()?,
    })
}

/// Decodes a [`RunReport`] from a standalone buffer, requiring the buffer
/// to hold exactly one report.
pub fn report_from_bytes(bytes: &[u8]) -> Result<RunReport, PersistError> {
    let mut reader = ByteReader::new(bytes);
    let report = decode_report(&mut reader)?;
    reader.finish()?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Matrix spec schema
// ---------------------------------------------------------------------------

/// Appends one [`MatrixSpec`] (the binary equivalent of
/// [`crate::persist::matrix_spec_to_json`]).
pub fn encode_matrix_spec(out: &mut Vec<u8>, spec: &MatrixSpec) {
    put_f64(out, spec.scale);
    put_usize(out, spec.sweeps.len());
    for (axis, values) in &spec.sweeps {
        put_str(out, axis);
        put_usize(out, values.len());
        for &value in values {
            put_f64(out, value);
        }
    }
    put_usize(out, spec.benchmarks.len());
    for benchmark in &spec.benchmarks {
        put_str(out, benchmark);
    }
    put_usize(out, spec.techniques.len());
    for technique in &spec.techniques {
        put_str(out, technique);
    }
}

/// Decodes one [`MatrixSpec`] (the inverse of [`encode_matrix_spec`]).
pub fn decode_matrix_spec(reader: &mut ByteReader<'_>) -> Result<MatrixSpec, PersistError> {
    let scale = reader.f64()?;
    let sweep_count = reader.seq_len(2)?;
    let mut sweeps = Vec::with_capacity(sweep_count);
    for _ in 0..sweep_count {
        let axis = reader.str()?.to_string();
        let value_count = reader.seq_len(8)?;
        let mut values = Vec::with_capacity(value_count);
        for _ in 0..value_count {
            values.push(reader.f64()?);
        }
        sweeps.push((axis, values));
    }
    let benchmark_count = reader.seq_len(1)?;
    let mut benchmarks = Vec::with_capacity(benchmark_count);
    for _ in 0..benchmark_count {
        benchmarks.push(reader.str()?.to_string());
    }
    let technique_count = reader.seq_len(1)?;
    let mut techniques = Vec::with_capacity(technique_count);
    for _ in 0..technique_count {
        techniques.push(reader.str()?.to_string());
    }
    Ok(MatrixSpec {
        scale,
        sweeps,
        benchmarks,
        techniques,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_round_trip(v: u64) {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        let mut reader = ByteReader::new(&out);
        assert_eq!(reader.varint().unwrap(), v, "value {v}");
        reader.finish().unwrap();
    }

    #[test]
    fn varints_round_trip_across_the_range() {
        for v in [0, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX] {
            varint_round_trip(v);
        }
        // Boundary widths: every 7-bit threshold.
        for shift in 0..9 {
            let edge = 1u64 << (7 * (shift + 1));
            varint_round_trip(edge - 1);
            varint_round_trip(edge);
        }
    }

    #[test]
    fn varint_rejects_overflow_and_runaway_continuation() {
        // 10 bytes whose final byte carries bits beyond 2^64.
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(ByteReader::new(&overflow).varint().is_err());
        // Continuation bit never drops.
        let runaway = [0x80u8; 11];
        assert!(ByteReader::new(&runaway).varint().is_err());
        // Truncated mid-varint.
        assert!(ByteReader::new(&[0x80]).varint().is_err());
    }

    #[test]
    fn strings_are_length_checked_before_slicing() {
        let mut out = Vec::new();
        put_str(&mut out, "issue-queue");
        let mut reader = ByteReader::new(&out);
        assert_eq!(reader.str().unwrap(), "issue-queue");
        reader.finish().unwrap();

        // A hostile length larger than the payload errors cleanly.
        let mut hostile = Vec::new();
        put_varint(&mut hostile, u64::MAX);
        assert!(ByteReader::new(&hostile).str().is_err());
        let mut oversized = Vec::new();
        put_varint(&mut oversized, 1 << 40);
        oversized.extend_from_slice(b"short");
        assert!(ByteReader::new(&oversized).str().is_err());
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.0, 0.1, f64::MIN_POSITIVE, f64::MAX] {
            let mut out = Vec::new();
            put_f64(&mut out, v);
            let mut reader = ByteReader::new(&out);
            assert_eq!(reader.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn matrix_spec_round_trips() {
        let spec = MatrixSpec {
            scale: 0.05,
            sweeps: vec![
                ("iq".to_string(), vec![64.0, 48.0, 32.0]),
                ("scale".to_string(), vec![0.5]),
            ],
            benchmarks: vec!["gzip".to_string(), "mcf".to_string()],
            techniques: vec!["baseline".to_string(), "noop".to_string()],
        };
        let mut out = Vec::new();
        encode_matrix_spec(&mut out, &spec);
        let mut reader = ByteReader::new(&out);
        let back = decode_matrix_spec(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn reports_round_trip_bit_identically_and_match_the_json_path() {
        use crate::persist::{report_from_json, report_to_json};
        use crate::runner::Experiment;
        use sdiq_workloads::Benchmark;
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        for technique in [Technique::Baseline, Technique::Noop, Technique::Abella] {
            let report = exp.run(Benchmark::Gzip, technique);
            let back = report_from_bytes(&report_to_bytes(&report)).unwrap();
            assert_eq!(back, report, "{technique} report must round-trip");
            // Differential against the JSON oracle: both paths reproduce
            // the identical report.
            let via_json = report_from_json(&report_to_json(&report)).unwrap();
            assert_eq!(back, via_json);
        }
    }

    #[test]
    fn low_energy_counter_round_trips_only_for_tracking_techniques() {
        use crate::persist::{report_from_json, report_to_json};
        use crate::runner::Experiment;
        use sdiq_workloads::Benchmark;
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };

        // A lowen-isa report carries a live counter through both codecs.
        let report = exp.run(Benchmark::Gzip, Technique::LowenIsa);
        assert!(report.stats.committed_low_energy > 0, "counter is live");
        let back = report_from_bytes(&report_to_bytes(&report)).unwrap();
        assert_eq!(back, report, "binary codec preserves the counter");
        let via_json = report_from_json(&report_to_json(&report)).unwrap();
        assert_eq!(via_json, report, "JSON codec preserves the counter");

        // A non-tracking technique's encoding has no slot for the counter:
        // smuggling a value in must not survive the round-trip, because
        // that is exactly the byte layout pre-registry saves rely on.
        let mut baseline = exp.run(Benchmark::Gzip, Technique::Baseline);
        let clean = report_to_bytes(&baseline);
        baseline.stats.committed_low_energy = 42;
        let bytes = report_to_bytes(&baseline);
        assert_eq!(bytes, clean, "non-tracking encodings are unchanged");
        let back = report_from_bytes(&bytes).unwrap();
        assert_eq!(back.stats.committed_low_energy, 0);
    }

    #[test]
    fn hostile_sequence_counts_error_before_allocation() {
        // A spec whose sweep count claims 2^40 elements with no bytes to
        // back them must error in seq_len, not attempt the allocation.
        let mut bytes = Vec::new();
        put_f64(&mut bytes, 1.0);
        put_varint(&mut bytes, 1 << 40);
        assert!(decode_matrix_spec(&mut ByteReader::new(&bytes)).is_err());
    }
}
