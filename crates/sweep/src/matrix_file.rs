//! The user-defined matrix file: a small JSON schema describing a
//! [`SweepMatrix`](crate::SweepMatrix), loaded by `sweep --matrix FILE`
//! as an alternative to the in-code builder.
//!
//! ## File format
//!
//! ```json
//! {
//!   "benchmarks": ["gcc", "fpppp"],
//!   "modes": ["sync", "gals+filter", "pausible@300ps+coalesce"],
//!   "dvfs": [
//!     "nominal",
//!     "uniform1.5x",
//!     { "label": "fp2x", "slowdown": [1.0, 1.0, 1.0, 2.0, 1.0] }
//!   ],
//!   "phase_seeds": [2002, 7],
//!   "workload_seed": 1590088705,
//!   "budget": 60000
//! }
//! ```
//!
//! * `benchmarks` — workload names from [`Workload::name`]: lower-case
//!   synthetic benchmark names (`"gcc"`) and/or `prog:`-prefixed program
//!   kernels (`"prog:gcc_like"`, see `docs/PROGRAM_FORMAT.md`).
//! * `modes` — [`ModePoint::label`](crate::ModePoint::label) strings:
//!   `sync`, `gals[+filter]`,
//!   `pausible@<N>ps[+rendezvous][+coalesce][+filter]` (`+rendezvous`
//!   selects the unbuffered transfer-capacity model).
//! * `dvfs` — `"nominal"`, `"uniform<F>x"`, or an object with `label` and
//!   five per-domain `slowdown` factors.
//! * `workload_seed` and `budget` are optional (defaults:
//!   [`WORKLOAD_SEED`](crate::WORKLOAD_SEED) and 60 000; the `sweep`
//!   binary's `--budget` flag overrides the file).
//! * Any other key, at the top level or in a dvfs object, is an error
//!   that names it: a misspelt `budget` must not silently run at the
//!   default.
//! * No axis may list one value twice: a repeated benchmark, mode, DVFS
//!   label or phase seed is an error that names it, since the derived
//!   tables would count its points twice or look up the wrong one. Modes
//!   compare by value, so `pausible@300ps+coalesce+coalesce` repeats
//!   `pausible@300ps+coalesce`. The label `nominal` is the tables'
//!   baseline: a dvfs object may use it only with every factor at 1.0.
//!
//! [`SweepMatrix::to_matrix_json`](crate::SweepMatrix::to_matrix_json)
//! renders this format back, and the loader/renderer pair round-trips
//! every representable matrix (pinned by a test).
//!
//! The parser is a self-contained minimal JSON reader (the workspace
//! carries no serde); errors are human-readable strings the binary routes
//! to stderr with the uniform usage exit code.

use std::collections::BTreeSet;

use gals_events::FS_PER_PS;
use gals_workload::Workload;

use crate::{DvfsPoint, ModePoint, SweepMatrix, WORKLOAD_SEED};

/// A parsed JSON value (just enough of the grammar for matrix files and
/// cache blobs, which share this reader).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting the reader accepts. Matrix files and
/// cache blobs nest at most three levels; the cap keeps a hostile line
/// from overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 64;

/// The integers a JSON number carries exactly: below 2^53, every integer
/// is an `f64` of its own; at and above it, neighbouring integers round
/// to one value, so a larger number may already have been rounded.
const EXACT_INT_LIMIT: f64 = (1u64 << 53) as f64;

pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("matrix JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    // The input is a &str, so unescaped content is valid
                    // UTF-8 byte-for-byte; collecting bytes (not
                    // byte-as-char, which would Latin-1-mangle multi-byte
                    // sequences) preserves it.
                    return String::from_utf8(out).map_err(|_| self.err("malformed UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    let mut len = 2;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            len = 6;
                            let code = self.hex4(self.pos + 2)?;
                            // Only surrogates are not chars below 0x10000.
                            char::from_u32(code).ok_or_else(|| {
                                self.err(&format!("\\u{code:04x} is a surrogate, not a character"))
                            })?
                        }
                        other => {
                            return Err(self.err(&format!("unsupported escape \\{}", other as char)))
                        }
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    self.pos += len;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        self.bytes
            .get(at..at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| self.err("\\u needs four hex digits"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn benchmark_by_name(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        format!(
            "unknown benchmark {name:?} (expected one of: {})",
            Workload::all()
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Parses a [`ModePoint::label`] string back into the mode point.
pub(crate) fn mode_from_label(label: &str) -> Result<ModePoint, String> {
    let (base, features) = match label.find('+') {
        Some(i) => (&label[..i], &label[i + 1..]),
        None => (label, ""),
    };
    let mut coalesce = false;
    let mut wakeup_filter = false;
    let mut rendezvous = false;
    for feature in features.split('+').filter(|f| !f.is_empty()) {
        match feature {
            "coalesce" => coalesce = true,
            "filter" => wakeup_filter = true,
            "rendezvous" => rendezvous = true,
            other => return Err(format!("unknown mode feature {other:?} in {label:?}")),
        }
    }
    match base {
        "sync" => {
            if coalesce || wakeup_filter || rendezvous {
                return Err(format!("{label:?}: the synchronous mode takes no features"));
            }
            Ok(ModePoint::Synchronous)
        }
        "gals" => {
            if coalesce || rendezvous {
                return Err(format!(
                    "{label:?}: +coalesce/+rendezvous need pausible clocking"
                ));
            }
            Ok(ModePoint::Gals { wakeup_filter })
        }
        _ => {
            let ps = base
                .strip_prefix("pausible@")
                .and_then(|rest| rest.strip_suffix("ps"))
                .ok_or_else(|| {
                    format!(
                        "unknown mode {label:?} (expected sync, gals[+filter] or \
                         pausible@<N>ps[+rendezvous][+coalesce][+filter])"
                    )
                })?;
            let handshake_ps: u64 = ps
                .parse()
                .map_err(|_| format!("bad handshake duration in {label:?}"))?;
            // The clocks keep time in femtoseconds in a u64.
            if handshake_ps > u64::MAX / FS_PER_PS {
                return Err(format!(
                    "handshake duration in {label:?} is out of range (at most {} ps)",
                    u64::MAX / FS_PER_PS
                ));
            }
            Ok(ModePoint::Pausible {
                handshake_ps,
                coalesce,
                wakeup_filter,
                rendezvous,
            })
        }
    }
}

/// A slowdown factor the clock model can run: finite and at least 1.0.
/// Anything else would panic in the clock constructors, so the loader
/// refuses it up front, naming the DVFS point.
fn slowdown_factor(f: f64, label: &str) -> Result<f64, String> {
    if f.is_finite() && f >= 1.0 {
        Ok(f)
    } else {
        Err(format!(
            "dvfs {label:?}: slowdown {f} must be finite and >= 1.0"
        ))
    }
}

fn dvfs_from_json(v: &Json) -> Result<DvfsPoint, String> {
    match v {
        Json::Str(s) if s == "nominal" => Ok(DvfsPoint::nominal()),
        Json::Str(s) => {
            let factor = s
                .strip_prefix("uniform")
                .and_then(|rest| rest.strip_suffix('x'))
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| {
                    format!("unknown dvfs point {s:?} (expected nominal or uniform<F>x)")
                })?;
            Ok(DvfsPoint::uniform(slowdown_factor(factor, s)?))
        }
        Json::Obj(_) => {
            check_keys(v, "dvfs object", &["label", "slowdown"])?;
            let label = match v.get("label") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("dvfs object needs a string \"label\"".into()),
            };
            let Some(Json::Arr(items)) = v.get("slowdown") else {
                return Err(format!("dvfs {label:?} needs a \"slowdown\" array"));
            };
            if items.len() != 5 {
                return Err(format!(
                    "dvfs {label:?}: slowdown needs 5 per-domain factors, got {}",
                    items.len()
                ));
            }
            let mut slowdown = [0.0; 5];
            for (i, item) in items.iter().enumerate() {
                match item {
                    Json::Num(f) => slowdown[i] = slowdown_factor(*f, &label)?,
                    other => {
                        return Err(format!(
                            "dvfs {label:?}: slowdown entries must be numbers, got {}",
                            other.type_name()
                        ))
                    }
                }
            }
            if label == "nominal" && slowdown != [1.0; 5] {
                return Err("dvfs \"nominal\" is the derived tables' baseline: its \
                     slowdown factors must all be 1.0"
                    .into());
            }
            Ok(DvfsPoint::per_domain(label, slowdown))
        }
        other => Err(format!(
            "dvfs entries must be strings or objects, got {}",
            other.type_name()
        )),
    }
}

/// A JSON value as a non-negative integer below 2^53 (larger numbers may
/// have been rounded on the way in, so they are refused, not guessed).
fn exact_u64(v: &Json, what: &str) -> Result<u64, String> {
    match v {
        Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f < EXACT_INT_LIMIT => Ok(*f as u64),
        Json::Num(f) if *f >= EXACT_INT_LIMIT => {
            Err(format!("{what} {f:e} is out of range (must be below 2^53)"))
        }
        other => Err(format!(
            "{what} must be a non-negative integer, got {}",
            other.type_name()
        )),
    }
}

pub(crate) fn u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => exact_u64(value, key).map(Some),
    }
}

/// The first value `items` yields twice, if any.
fn first_repeat<T: Ord + Clone>(items: impl IntoIterator<Item = T>) -> Option<T> {
    let mut seen = BTreeSet::new();
    items.into_iter().find(|item| !seen.insert(item.clone()))
}

/// Rejects the first key of object `v` outside `known`, naming it.
fn check_keys(v: &Json, what: &str, known: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = v else { return Ok(()) };
    match fields
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!(
            "unknown {what} key {key:?} (expected one of: {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// Parses a matrix file (see the module docs for the format).
///
/// # Errors
///
/// A human-readable message naming the first problem — malformed JSON, an
/// unknown key or benchmark/mode/dvfs name, a missing axis, an empty one,
/// or one that repeats a value.
pub(crate) fn matrix_from_json(text: &str, default_budget: u64) -> Result<SweepMatrix, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after the matrix object"));
    }
    if !matches!(root, Json::Obj(_)) {
        return Err(format!(
            "matrix file must be a JSON object, got {}",
            root.type_name()
        ));
    }
    check_keys(
        &root,
        "matrix",
        &[
            "benchmarks",
            "modes",
            "dvfs",
            "phase_seeds",
            "workload_seed",
            "budget",
        ],
    )?;

    let list = |key: &str| -> Result<&Vec<Json>, String> {
        match root.get(key) {
            Some(Json::Arr(items)) if !items.is_empty() => Ok(items),
            Some(Json::Arr(_)) => Err(format!("{key} must not be empty")),
            Some(other) => Err(format!("{key} must be an array, got {}", other.type_name())),
            None => Err(format!("matrix file is missing the {key:?} axis")),
        }
    };

    let mut benchmarks = Vec::new();
    for item in list("benchmarks")? {
        match item {
            Json::Str(name) => benchmarks.push(benchmark_by_name(name)?),
            other => {
                return Err(format!(
                    "benchmarks entries must be strings, got {}",
                    other.type_name()
                ))
            }
        }
    }
    let mut modes = Vec::new();
    for item in list("modes")? {
        match item {
            Json::Str(label) => modes.push(mode_from_label(label)?),
            other => {
                return Err(format!(
                    "modes entries must be strings, got {}",
                    other.type_name()
                ))
            }
        }
    }
    let mut dvfs = Vec::new();
    for item in list("dvfs")? {
        dvfs.push(dvfs_from_json(item)?);
    }
    let mut phase_seeds = Vec::new();
    for item in list("phase_seeds")? {
        phase_seeds.push(exact_u64(item, "phase_seeds entry")?);
    }
    // Names and labels are canonical, so equal strings mean equal values.
    if let Some(name) = first_repeat(benchmarks.iter().map(|b| b.name())) {
        return Err(format!("benchmarks lists {name:?} twice"));
    }
    if let Some(label) = first_repeat(modes.iter().map(ModePoint::label)) {
        return Err(format!("modes lists {label:?} twice"));
    }
    if let Some(label) = first_repeat(dvfs.iter().map(|d| d.label.as_str())) {
        return Err(format!("dvfs lists the label {label:?} twice"));
    }
    if let Some(seed) = first_repeat(phase_seeds.iter().copied()) {
        return Err(format!("phase_seeds lists {seed} twice"));
    }

    Ok(SweepMatrix {
        benchmarks,
        modes,
        dvfs,
        phase_seeds,
        workload_seed: u64_field(&root, "workload_seed")?.unwrap_or(WORKLOAD_SEED),
        budget: u64_field(&root, "budget")?.unwrap_or(default_budget),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_parse_back() {
        for mode in [
            ModePoint::Synchronous,
            ModePoint::Gals {
                wakeup_filter: false,
            },
            ModePoint::Gals {
                wakeup_filter: true,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: true,
                wakeup_filter: true,
                rendezvous: false,
            },
            ModePoint::Pausible {
                handshake_ps: 100,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: false,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: true,
            },
            ModePoint::Pausible {
                handshake_ps: 600,
                coalesce: true,
                wakeup_filter: true,
                rendezvous: true,
            },
        ] {
            assert_eq!(mode_from_label(&mode.label()).unwrap(), mode);
        }
        assert!(mode_from_label("sync+filter").is_err());
        assert!(mode_from_label("gals+coalesce").is_err());
        assert!(mode_from_label("gals+rendezvous").is_err());
        assert!(mode_from_label("sync+rendezvous").is_err());
        assert!(mode_from_label("pausible@ps").is_err());
        assert!(mode_from_label("warp").is_err());
    }

    #[test]
    fn strings_preserve_utf8_and_escapes() {
        let text = r#"{
            "benchmarks": ["gcc"], "modes": ["gals"],
            "dvfs": [{"label": "2\u00d7mem \"fast\"", "slowdown": [1, 1, 1, 1, 2]}],
            "phase_seeds": [1]
        }"#
        .replace("\\u00d7", "\u{00d7}");
        let m = matrix_from_json(&text, 1).expect("valid file");
        assert_eq!(m.dvfs[0].label, "2\u{00d7}mem \"fast\"");
    }

    #[test]
    fn loader_reports_bad_axes() {
        let e = matrix_from_json("[]", 1).unwrap_err();
        assert!(e.contains("object"), "{e}");
        let e = matrix_from_json(r#"{"benchmarks": []}"#, 1).unwrap_err();
        assert!(e.contains("must not be empty"), "{e}");
        let e = matrix_from_json(
            r#"{"benchmarks": ["gcc"], "modes": ["sync"], "dvfs": ["nominal"]}"#,
            1,
        )
        .unwrap_err();
        assert!(e.contains("phase_seeds"), "{e}");
        let e = matrix_from_json(
            r#"{"benchmarks": ["notabench"], "modes": ["sync"],
                "dvfs": ["nominal"], "phase_seeds": [1]}"#,
            1,
        )
        .unwrap_err();
        assert!(e.contains("unknown benchmark"), "{e}");
        let e = matrix_from_json("{", 1).unwrap_err();
        assert!(e.contains("JSON error"), "{e}");
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let at_cap = Parser::new(&nested(MAX_DEPTH)).value();
        assert!(at_cap.is_ok(), "{at_cap:?}");
        let past = Parser::new(&nested(MAX_DEPTH + 1)).value().unwrap_err();
        assert!(
            past.contains(&format!("at byte {MAX_DEPTH}: nesting deeper")),
            "{past}"
        );
        // Objects count too, and a hostile unterminated line errs instead
        // of overflowing the stack.
        for text in ["{\"a\": ".repeat(MAX_DEPTH + 1), "[".repeat(100_000)] {
            let e = Parser::new(&text).value().unwrap_err();
            assert!(e.contains("nesting deeper"), "{e}");
        }
    }

    fn with_fields(fields: &str) -> Result<SweepMatrix, String> {
        matrix_from_json(
            &format!(
                r#"{{"benchmarks": ["gcc"], "modes": ["sync"], "dvfs": ["nominal"],
                    "phase_seeds": [1]{fields}}}"#
            ),
            1,
        )
    }

    #[test]
    fn integers_past_2_pow_53_are_rejected_not_rounded() {
        let m = with_fields(r#", "budget": 9007199254740991, "workload_seed": 0"#).unwrap();
        assert_eq!(m.budget, (1 << 53) - 1);
        for field in ["budget", "workload_seed"] {
            for value in ["9007199254740992", "1e30"] {
                let e = with_fields(&format!(r#", "{field}": {value}"#)).unwrap_err();
                assert!(e.contains(field) && e.contains("out of range"), "{e}");
            }
        }
        let e = matrix_from_json(
            r#"{"benchmarks": ["gcc"], "modes": ["sync"], "dvfs": ["nominal"],
                "phase_seeds": [1, 1e30]}"#,
            1,
        )
        .unwrap_err();
        assert!(
            e.starts_with("phase_seeds entry 1e30 is out of range"),
            "{e}"
        );
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        for key in ["buget", "retries", "run_timeout_ms"] {
            let e = with_fields(&format!(r#", "{key}": 500"#)).unwrap_err();
            assert!(e.contains(&format!("unknown matrix key \"{key}\"")), "{e}");
        }
        let e = matrix_from_json(
            r#"{"benchmarks": ["gcc"], "modes": ["gals"], "phase_seeds": [1],
                "dvfs": [{"label": "fp2x", "slowdown": [1, 1, 1, 2, 1], "volts": 1}]}"#,
            1,
        )
        .unwrap_err();
        assert!(e.contains("unknown dvfs object key \"volts\""), "{e}");
    }

    #[test]
    fn strings_decode_every_json_escape() {
        let text = r#""\"\\\/\b\f\n\r\t\u0001\u00e9\u20AC""#;
        let v = Parser::new(text).value().expect("valid string");
        assert_eq!(
            v,
            Json::Str("\"\\/\u{8}\u{c}\n\r\t\u{1}\u{e9}\u{20ac}".into())
        );
        for bad in [
            r#""\ud800""#,
            r#""\udfff""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x""#,
        ] {
            assert!(Parser::new(bad).value().is_err(), "{bad}");
        }
    }

    #[test]
    fn dvfs_factors_the_clocks_cannot_run_are_rejected() {
        let with_dvfs = |dvfs: &str| {
            matrix_from_json(
                &format!(
                    r#"{{"benchmarks": ["gcc"], "modes": ["gals"], "phase_seeds": [1],
                        "dvfs": [{dvfs}]}}"#
                ),
                1,
            )
        };
        for (dvfs, label) in [
            (r#""uniform0.5x""#, "uniform0.5x"),
            (r#""uniformNaNx""#, "uniformNaNx"),
            (r#""uniforminfx""#, "uniforminfx"),
            (r#""uniform-1x""#, "uniform-1x"),
            (r#"{"label": "h", "slowdown": [1e999, 1, 1, 1, 1]}"#, "h"),
            (r#"{"label": "h", "slowdown": [0.5, 1, 1, 1, 1]}"#, "h"),
        ] {
            let e = with_dvfs(dvfs).unwrap_err();
            assert!(
                e.starts_with(&format!("dvfs {label:?}: slowdown "))
                    && e.ends_with("must be finite and >= 1.0"),
                "{dvfs}: {e}"
            );
        }
        let ok = with_dvfs(r#""uniform1x", {"label": "fp2x", "slowdown": [1, 1, 1, 2, 1]}"#);
        assert_eq!(ok.unwrap().dvfs.len(), 2);
    }

    #[test]
    fn repeated_axis_values_and_a_relabelled_nominal_are_rejected() {
        let matrix = |benchmarks: &str, modes: &str, dvfs: &str, seeds: &str| {
            matrix_from_json(
                &format!(
                    r#"{{"benchmarks": [{benchmarks}], "modes": [{modes}],
                        "dvfs": [{dvfs}], "phase_seeds": [{seeds}]}}"#
                ),
                1,
            )
        };
        let x1 = r#"{"label": "x", "slowdown": [1, 1, 1, 2, 1]}"#;
        let x3 = r#"{"label": "x", "slowdown": [3, 3, 3, 3, 3]}"#;
        for (benchmarks, modes, dvfs, seeds, want) in [
            (
                r#""gcc", "gcc", "fpppp""#,
                r#""gals""#,
                r#""nominal""#,
                "1",
                r#"benchmarks lists "gcc" twice"#,
            ),
            (
                r#""gcc""#,
                r#""pausible@300ps+coalesce", "pausible@300ps+coalesce+coalesce""#,
                r#""nominal""#,
                "1",
                r#"modes lists "pausible@300ps+coalesce" twice"#,
            ),
            (
                r#""gcc""#,
                r#""gals""#,
                &format!(r#""nominal", {x1}, {x3}"#),
                "1",
                r#"dvfs lists the label "x" twice"#,
            ),
            (
                r#""gcc""#,
                r#""gals""#,
                r#""uniform1.5x", "uniform1.50x""#,
                "1",
                r#"dvfs lists the label "uniform1.5x" twice"#,
            ),
            (
                r#""gcc""#,
                r#""gals""#,
                r#""nominal""#,
                "7, 2002, 7",
                "phase_seeds lists 7 twice",
            ),
            (
                r#""gcc""#,
                r#""gals""#,
                r#"{"label": "nominal", "slowdown": [2, 2, 2, 2, 2]}, "uniform1.5x""#,
                "1",
                r#"dvfs "nominal" is the derived tables' baseline"#,
            ),
        ] {
            let e = matrix(benchmarks, modes, dvfs, seeds).unwrap_err();
            assert!(e.starts_with(want), "{e}");
        }
        // A nominal object at unit factors is the nominal point itself.
        let m = matrix(
            r#""gcc""#,
            r#""gals""#,
            r#"{"label": "nominal", "slowdown": [1, 1, 1, 1, 1]}"#,
            "1",
        )
        .unwrap();
        assert_eq!(m.dvfs, vec![DvfsPoint::nominal()]);
    }

    #[test]
    fn handshakes_the_clocks_cannot_hold_are_rejected() {
        let max = u64::MAX / FS_PER_PS;
        let ok = mode_from_label(&format!("pausible@{max}ps")).unwrap();
        assert_eq!(ok.handshake_ps(), Some(max));
        let e = mode_from_label(&format!("pausible@{}ps", max + 1)).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        assert!(mode_from_label("pausible@18446744073709551615ps").is_err());
        assert!(mode_from_label("pausible@99999999999999999999ps").is_err());
    }
}
