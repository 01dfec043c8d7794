//! The wire protocol of the serving layer: a serializable
//! [`Request`]/[`Response`] pair and a line-oriented JSON codec with no
//! external dependencies.
//!
//! Each message encodes to exactly one line of JSON (no embedded
//! newlines), so any byte-stream transport — a TCP socket, a pipe, a
//! WebSocket text frame — can carry the protocol by framing on `\n`.
//! [`crate::service::SearchService::handle_line`] implements the full
//! server side of that loop.
//!
//! ```
//! use seesaw_core::protocol::{MethodSpec, Request};
//!
//! let line = Request::Create {
//!     concept: 3,
//!     method: MethodSpec::SeeSaw,
//!     search_k: None,
//! }
//! .encode();
//! assert_eq!(line, r#"{"type":"create","concept":3,"method":"seesaw"}"#);
//! assert_eq!(Request::decode(&line).unwrap(), Request::Create {
//!     concept: 3,
//!     method: MethodSpec::SeeSaw,
//!     search_k: None,
//! });
//! ```
//!
//! Numbers are emitted with Rust's shortest round-trip formatting and
//! kept as literals until a field is extracted, so `u64` session ids
//! and `f32` box coordinates survive encode → decode bit-exactly
//! (non-finite floats use the `NaN`/`inf` spellings `f32::from_str`
//! accepts — a deliberate superset of strict JSON).

use seesaw_dataset::BBox;
use seesaw_dataset::ImageId;
use seesaw_embed::ConceptId;
use std::fmt;

use crate::session::MethodConfig;

/// Maximum accepted length of one encoded protocol line, in bytes.
///
/// The longest legitimate message (a `feedback` request carrying a few
/// dozen boxes) is under a kilobyte; 64 KiB leaves two orders of
/// magnitude of headroom while bounding the memory a hostile or broken
/// client can pin per connection.
/// [`crate::service::SearchService::handle_line`] rejects longer lines
/// with [`ErrorCode::Protocol`] before parsing, and the TCP server
/// enforces the same cap while framing.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A `query_align` strategy nameable over the wire — the serializable
/// subset of [`crate::session::Method`], mapped to a full
/// [`MethodConfig`] by [`MethodSpec::to_config`]. (Methods carrying
/// caller-supplied vectors or priors stay API-only.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodSpec {
    /// Zero-shot CLIP (`"zero_shot"`).
    ZeroShot,
    /// Few-shot CLIP, Eq. 1, as the aligner with λc = λD = 0
    /// (`"few_shot"`).
    FewShot,
    /// Rocchio's formula (`"rocchio"`).
    Rocchio,
    /// Efficient Nonmyopic Search with the given horizon (`"ens"`).
    Ens {
        /// Reward horizon (paper: 60).
        horizon: u32,
    },
    /// Full SeeSaw: CLIP + DB alignment (`"seesaw"`).
    SeeSaw,
    /// SeeSaw with CLIP alignment only (`"seesaw_clip_only"`).
    SeeSawClipOnly,
    /// The label-propagation variant (`"seesaw_prop"`).
    SeeSawProp,
}

impl MethodSpec {
    /// The wire name of this method.
    pub fn name(&self) -> &'static str {
        match self {
            Self::ZeroShot => "zero_shot",
            Self::FewShot => "few_shot",
            Self::Rocchio => "rocchio",
            Self::Ens { .. } => "ens",
            Self::SeeSaw => "seesaw",
            Self::SeeSawClipOnly => "seesaw_clip_only",
            Self::SeeSawProp => "seesaw_prop",
        }
    }

    /// Expand into the full method configuration (paper defaults).
    pub fn to_config(self) -> MethodConfig {
        match self {
            Self::ZeroShot => MethodConfig::zero_shot(),
            Self::FewShot => MethodConfig::seesaw_few_shot(),
            Self::Rocchio => MethodConfig::rocchio(),
            Self::Ens { horizon } => MethodConfig::ens(horizon as usize),
            Self::SeeSaw => MethodConfig::seesaw(),
            Self::SeeSawClipOnly => MethodConfig::seesaw_clip_only(),
            Self::SeeSawProp => MethodConfig::seesaw_prop(),
        }
    }
}

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Start a session (`{"type":"create",…}`).
    Create {
        /// Concept to search for.
        concept: ConceptId,
        /// The `query_align` strategy.
        method: MethodSpec,
        /// Optional vector-store candidate budget override.
        search_k: Option<u32>,
    },
    /// Fetch up to `n` more results (`{"type":"next_batch",…}`).
    NextBatch {
        /// Target session id.
        session: u64,
        /// Maximum batch size.
        n: u32,
    },
    /// Submit feedback for a shown image (`{"type":"feedback",…}`).
    Feedback {
        /// Target session id.
        session: u64,
        /// The annotated image.
        image: ImageId,
        /// Image-level relevance.
        relevant: bool,
        /// Region annotations (multiscale labels, §4.3).
        boxes: Vec<BBox>,
    },
    /// Read progress statistics (`{"type":"stats",…}`).
    Stats {
        /// Target session id.
        session: u64,
    },
    /// Terminate a session (`{"type":"close",…}`).
    Close {
        /// Target session id.
        session: u64,
    },
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A session was created (`{"type":"created",…}`).
    Created {
        /// The new session id.
        session: u64,
    },
    /// The next results, best-first (`{"type":"batch",…}`).
    Batch {
        /// Images to show; never empty.
        images: Vec<ImageId>,
    },
    /// The session has shown every image (`{"type":"exhausted"}`).
    Exhausted,
    /// Feedback or close accepted (`{"type":"ack"}`).
    Ack,
    /// Progress statistics (`{"type":"stats",…}`).
    Stats {
        /// Images shown so far.
        images_shown: u64,
        /// Feedback items accepted so far.
        feedback_received: u64,
        /// Cosine between `q₀` and the current query.
        query_drift: f32,
    },
    /// The request failed (`{"type":"error",…}`).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable explanation.
        message: String,
    },
}

impl Response {
    /// Build the wire form of a service error.
    pub fn from_error(e: &crate::service::ServiceError) -> Self {
        Self::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

/// Machine-readable failure classes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The session id was never issued.
    UnknownSession,
    /// The session existed but has been closed.
    SessionClosed,
    /// The request was well-formed on the wire but semantically invalid.
    InvalidRequest,
    /// The line could not be decoded at all.
    Protocol,
    /// The server is saturated (worker queue full, connection cap
    /// reached, or shutting down) and is shedding load instead of
    /// queueing unboundedly. The request was *not* executed; retrying
    /// after a backoff is safe.
    Overloaded,
}

impl ErrorCode {
    /// The wire name of this code.
    pub fn name(&self) -> &'static str {
        match self {
            Self::UnknownSession => "unknown_session",
            Self::SessionClosed => "session_closed",
            Self::InvalidRequest => "invalid_request",
            Self::Protocol => "protocol",
            Self::Overloaded => "overloaded",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "unknown_session" => Self::UnknownSession,
            "session_closed" => Self::SessionClosed,
            "invalid_request" => Self::InvalidRequest,
            "protocol" => Self::Protocol,
            "overloaded" => Self::Overloaded,
            _ => return None,
        })
    }
}

/// A line failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// What went wrong, with enough context to debug the line.
    pub message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Shortest round-trip float formatting, with the `NaN`/`inf` spellings
/// `f32::from_str` parses back.
fn fmt_f32(v: f32) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f32::INFINITY {
        "inf".to_string()
    } else if v == f32::NEG_INFINITY {
        "-inf".to_string()
    } else {
        format!("{v}")
    }
}

fn push_escaped(out: &mut String, s: &str) {
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

impl Request {
    /// Encode to one line of JSON (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Self::Create {
                concept,
                method,
                search_k,
            } => {
                out.push_str(&format!(
                    r#"{{"type":"create","concept":{concept},"method":"{}""#,
                    method.name()
                ));
                if let MethodSpec::Ens { horizon } = method {
                    out.push_str(&format!(r#","horizon":{horizon}"#));
                }
                if let Some(k) = search_k {
                    out.push_str(&format!(r#","search_k":{k}"#));
                }
                out.push('}');
            }
            Self::NextBatch { session, n } => {
                out.push_str(&format!(
                    r#"{{"type":"next_batch","session":{session},"n":{n}}}"#
                ));
            }
            Self::Feedback {
                session,
                image,
                relevant,
                boxes,
            } => {
                out.push_str(&format!(
                    r#"{{"type":"feedback","session":{session},"image":{image},"relevant":{relevant},"boxes":["#
                ));
                for (i, b) in boxes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "[{},{},{},{}]",
                        fmt_f32(b.x),
                        fmt_f32(b.y),
                        fmt_f32(b.w),
                        fmt_f32(b.h)
                    ));
                }
                out.push_str("]}");
            }
            Self::Stats { session } => {
                out.push_str(&format!(r#"{{"type":"stats","session":{session}}}"#));
            }
            Self::Close { session } => {
                out.push_str(&format!(r#"{{"type":"close","session":{session}}}"#));
            }
        }
        out
    }

    /// Decode one line.
    ///
    /// # Errors
    /// [`ProtocolError`] on malformed JSON, an unknown `type`, or a
    /// missing/mistyped field.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let obj = Obj::parse(line)?;
        match obj.str_field("type")? {
            "create" => {
                let method_name = obj.str_field("method")?;
                let method = match method_name {
                    "zero_shot" => MethodSpec::ZeroShot,
                    "few_shot" => MethodSpec::FewShot,
                    "rocchio" => MethodSpec::Rocchio,
                    "ens" => MethodSpec::Ens {
                        horizon: obj.u32_field("horizon")?,
                    },
                    "seesaw" => MethodSpec::SeeSaw,
                    "seesaw_clip_only" => MethodSpec::SeeSawClipOnly,
                    "seesaw_prop" => MethodSpec::SeeSawProp,
                    other => {
                        return Err(ProtocolError::new(format!("unknown method {other:?}")));
                    }
                };
                Ok(Self::Create {
                    concept: obj.u32_field("concept")?,
                    method,
                    search_k: obj.opt_u32_field("search_k")?,
                })
            }
            "next_batch" => Ok(Self::NextBatch {
                session: obj.u64_field("session")?,
                n: obj.u32_field("n")?,
            }),
            "feedback" => {
                let boxes = obj
                    .arr_field("boxes")?
                    .iter()
                    .map(|v| {
                        let quad = v.as_arr().ok_or_else(|| {
                            ProtocolError::new("feedback box must be a 4-element array")
                        })?;
                        if quad.len() != 4 {
                            return Err(ProtocolError::new(
                                "feedback box must be a 4-element array",
                            ));
                        }
                        Ok(BBox::new(
                            quad[0].as_f32("box coordinate")?,
                            quad[1].as_f32("box coordinate")?,
                            quad[2].as_f32("box coordinate")?,
                            quad[3].as_f32("box coordinate")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Self::Feedback {
                    session: obj.u64_field("session")?,
                    image: obj.u32_field("image")?,
                    relevant: obj.bool_field("relevant")?,
                    boxes,
                })
            }
            "stats" => Ok(Self::Stats {
                session: obj.u64_field("session")?,
            }),
            "close" => Ok(Self::Close {
                session: obj.u64_field("session")?,
            }),
            other => Err(ProtocolError::new(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

impl Response {
    /// Encode to one line of JSON (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Self::Created { session } => {
                format!(r#"{{"type":"created","session":{session}}}"#)
            }
            Self::Batch { images } => {
                let mut out = String::from(r#"{"type":"batch","images":["#);
                for (i, img) in images.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&img.to_string());
                }
                out.push_str("]}");
                out
            }
            Self::Exhausted => r#"{"type":"exhausted"}"#.to_string(),
            Self::Ack => r#"{"type":"ack"}"#.to_string(),
            Self::Stats {
                images_shown,
                feedback_received,
                query_drift,
            } => format!(
                r#"{{"type":"stats","images_shown":{images_shown},"feedback_received":{feedback_received},"query_drift":{}}}"#,
                fmt_f32(*query_drift)
            ),
            Self::Error { code, message } => {
                let mut out = format!(r#"{{"type":"error","code":"{}","message":"#, code.name());
                push_escaped(&mut out, message);
                out.push('}');
                out
            }
        }
    }

    /// Decode one line.
    ///
    /// # Errors
    /// [`ProtocolError`] on malformed JSON, an unknown `type`, or a
    /// missing/mistyped field.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let obj = Obj::parse(line)?;
        match obj.str_field("type")? {
            "created" => Ok(Self::Created {
                session: obj.u64_field("session")?,
            }),
            "batch" => Ok(Self::Batch {
                images: obj
                    .arr_field("images")?
                    .iter()
                    .map(|v| v.as_u32("image id"))
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "exhausted" => Ok(Self::Exhausted),
            "ack" => Ok(Self::Ack),
            "stats" => Ok(Self::Stats {
                images_shown: obj.u64_field("images_shown")?,
                feedback_received: obj.u64_field("feedback_received")?,
                query_drift: obj
                    .field("query_drift")
                    .ok_or_else(|| ProtocolError::new("missing field \"query_drift\""))?
                    .as_f32("query_drift")?,
            }),
            "error" => {
                let code_name = obj.str_field("code")?;
                let code = ErrorCode::from_name(code_name).ok_or_else(|| {
                    ProtocolError::new(format!("unknown error code {code_name:?}"))
                })?;
                Ok(Self::Error {
                    code,
                    message: obj.str_field("message")?.to_string(),
                })
            }
            other => Err(ProtocolError::new(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// A minimal JSON reader — just enough for this protocol, no deps.
// ---------------------------------------------------------------------

/// Parsed JSON value. Number literals are kept verbatim so integers
/// wider than `f64`'s mantissa (session ids are `u64`) and exact float
/// spellings survive until a field is extracted into its target type.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_u32(&self, what: &str) -> Result<u32, ProtocolError> {
        match self {
            Json::Num(lit) => lit
                .parse()
                .map_err(|_| ProtocolError::new(format!("{what}: {lit:?} is not a u32"))),
            other => Err(ProtocolError::new(format!(
                "{what}: {other:?} is not a number"
            ))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, ProtocolError> {
        match self {
            Json::Num(lit) => lit
                .parse()
                .map_err(|_| ProtocolError::new(format!("{what}: {lit:?} is not a u64"))),
            other => Err(ProtocolError::new(format!(
                "{what}: {other:?} is not a number"
            ))),
        }
    }

    fn as_f32(&self, what: &str) -> Result<f32, ProtocolError> {
        match self {
            Json::Num(lit) => lit
                .parse()
                .map_err(|_| ProtocolError::new(format!("{what}: {lit:?} is not an f32"))),
            other => Err(ProtocolError::new(format!(
                "{what}: {other:?} is not a number"
            ))),
        }
    }
}

/// A parsed top-level object with typed field accessors.
struct Obj(Vec<(String, Json)>);

impl Obj {
    fn parse(line: &str) -> Result<Self, ProtocolError> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ProtocolError::new(format!(
                "trailing bytes after value at offset {}",
                p.pos
            )));
        }
        match value {
            Json::Obj(fields) => Ok(Self(fields)),
            other => Err(ProtocolError::new(format!(
                "expected a JSON object, got {other:?}"
            ))),
        }
    }

    fn field(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn required(&self, name: &str) -> Result<&Json, ProtocolError> {
        self.field(name)
            .ok_or_else(|| ProtocolError::new(format!("missing field {name:?}")))
    }

    fn str_field(&self, name: &str) -> Result<&str, ProtocolError> {
        match self.required(name)? {
            Json::Str(s) => Ok(s),
            other => Err(ProtocolError::new(format!(
                "field {name:?}: {other:?} is not a string"
            ))),
        }
    }

    fn bool_field(&self, name: &str) -> Result<bool, ProtocolError> {
        match self.required(name)? {
            Json::Bool(b) => Ok(*b),
            other => Err(ProtocolError::new(format!(
                "field {name:?}: {other:?} is not a bool"
            ))),
        }
    }

    fn u32_field(&self, name: &str) -> Result<u32, ProtocolError> {
        self.required(name)?.as_u32(name)
    }

    fn opt_u32_field(&self, name: &str) -> Result<Option<u32>, ProtocolError> {
        self.field(name).map(|v| v.as_u32(name)).transpose()
    }

    fn u64_field(&self, name: &str) -> Result<u64, ProtocolError> {
        self.required(name)?.as_u64(name)
    }

    fn arr_field(&self, name: &str) -> Result<&[Json], ProtocolError> {
        self.required(name)?
            .as_arr()
            .ok_or_else(|| ProtocolError::new(format!("field {name:?} is not an array")))
    }
}

/// Maximum container nesting the parser accepts. The protocol itself
/// nests at most three deep (object → boxes array → box array); the
/// cap exists so a hostile line of repeated `[`s gets a
/// [`ProtocolError`] instead of recursing the server into a stack
/// overflow (which aborts the process — no panic hook catches it).
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn enter(&mut self) -> Result<(), ProtocolError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ProtocolError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ProtocolError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ProtocolError::new(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, ProtocolError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Json::Bool(false))
            }
            Some(_) => self.number(),
            None => Err(ProtocolError::new("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ProtocolError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(ProtocolError::new(format!(
                "expected {lit:?} at offset {}",
                self.pos
            )))
        }
    }

    /// A number literal, kept verbatim. The accepted alphabet covers
    /// JSON numbers plus the `NaN`/`inf`/`-inf` spellings this codec
    /// emits for non-finite floats; validity is checked when the field
    /// is parsed into its target type.
    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E' | b'i' | b'n' | b'f' | b'N' | b'a')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ProtocolError::new(format!(
                "unexpected byte at offset {start}"
            )));
        }
        let lit = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ProtocolError::new("invalid UTF-8 in number"))?
            .to_string();
        Ok(Json::Num(lit))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped) bytes in one go.
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| ProtocolError::new("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(ProtocolError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.literal("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(ProtocolError::new("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| ProtocolError::new("invalid \\u escape"))?);
                            continue; // hex4 advanced pos already
                        }
                        other => {
                            return Err(ProtocolError::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => unreachable!("loop stops only at quote/backslash/end"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ProtocolError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(ProtocolError::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| ProtocolError::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| ProtocolError::new(format!("invalid \\u escape {hex:?}")))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, ProtocolError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(ProtocolError::new(format!(
                        "expected ',' or ']' at offset {}",
                        self.pos
                    )));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, ProtocolError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            self.depth -= 1;
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
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(ProtocolError::new(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_encodings_are_stable() {
        // Wire-format stability: these exact strings are the protocol.
        assert_eq!(
            Request::Create {
                concept: 7,
                method: MethodSpec::Ens { horizon: 60 },
                search_k: Some(4096),
            }
            .encode(),
            r#"{"type":"create","concept":7,"method":"ens","horizon":60,"search_k":4096}"#
        );
        assert_eq!(
            Request::NextBatch { session: 3, n: 10 }.encode(),
            r#"{"type":"next_batch","session":3,"n":10}"#
        );
        assert_eq!(
            Request::Feedback {
                session: 0,
                image: 42,
                relevant: true,
                boxes: vec![BBox::new(1.5, 2.0, 3.0, 4.25)],
            }
            .encode(),
            r#"{"type":"feedback","session":0,"image":42,"relevant":true,"boxes":[[1.5,2,3,4.25]]}"#
        );
        assert_eq!(
            Response::Stats {
                images_shown: 12,
                feedback_received: 11,
                query_drift: 0.5,
            }
            .encode(),
            r#"{"type":"stats","images_shown":12,"feedback_received":11,"query_drift":0.5}"#
        );
        assert_eq!(
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: "unknown session 9".into(),
            }
            .encode(),
            r#"{"type":"error","code":"unknown_session","message":"unknown session 9"}"#
        );
    }

    #[test]
    fn u64_session_ids_round_trip_exactly() {
        for session in [0, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let line = Request::Stats { session }.encode();
            assert_eq!(Request::decode(&line).unwrap(), Request::Stats { session });
        }
    }

    #[test]
    fn floats_round_trip_exactly_including_awkward_ones() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            1.0e-40, // subnormal
            std::f32::consts::PI,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            let line = Request::Feedback {
                session: 1,
                image: 2,
                relevant: false,
                boxes: vec![BBox::new(v, v, v, v)],
            }
            .encode();
            let Request::Feedback { boxes, .. } = Request::decode(&line).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(boxes[0].x.to_bits(), v.to_bits(), "{v} mangled");
        }
    }

    #[test]
    fn message_strings_survive_hostile_content() {
        for msg in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{8}bell\u{7}",
            "unicode: ∂éjå-vü 🦀 \u{10348}",
            "{\"type\":\"looks like json\"}",
        ] {
            let line = Response::Error {
                code: ErrorCode::Protocol,
                message: msg.to_string(),
            }
            .encode();
            assert!(!line.contains('\n'), "one line per message: {line:?}");
            let Response::Error { message, .. } = Response::decode(&line).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(message, msg);
        }
    }

    #[test]
    fn decode_rejects_malformed_lines_without_panicking() {
        for line in [
            "",
            "{",
            "}",
            "null",
            "42",
            r#"{"type":"create"}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"next_batch","session":"three","n":1}"#,
            r#"{"type":"next_batch","session":3}"#,
            r#"{"type":"create","concept":1,"method":"ens"}"#, // missing horizon
            r#"{"type":"create","concept":1,"method":"seesaw_blind"}"#, // unknown method
            r#"{"type":"feedback","session":0,"image":1,"relevant":true,"boxes":[[1,2,3]]}"#,
            r#"{"type":"stats","session":1}garbage"#,
            r#"{"type":"error","code":"no_such_code","message":"x"}"#,
            "{\"type\":\"stats\",\"session\":1\u{0}}",
        ] {
            assert!(Request::decode(line).is_err(), "accepted {line:?}");
            assert!(Response::decode(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A hostile line of repeated '[' must come back as a
        // ProtocolError; unbounded recursion would abort the whole
        // server process (stack overflow is not a catchable panic).
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Request::decode(&hostile).unwrap_err();
            assert!(err.message.contains("nesting"), "got {err}");
        }
        // The deepest line the protocol itself produces stays well
        // under the cap.
        let legit = Request::Feedback {
            session: 1,
            image: 2,
            relevant: true,
            boxes: vec![BBox::new(1.0, 2.0, 3.0, 4.0)],
        };
        assert!(Request::decode(&legit.encode()).is_ok());
    }

    #[test]
    fn whitespace_tolerant_decoding() {
        let line = "  { \"type\" : \"next_batch\" , \"session\" : 5 , \"n\" : 2 }  ";
        assert_eq!(
            Request::decode(line).unwrap(),
            Request::NextBatch { session: 5, n: 2 }
        );
    }

    #[test]
    fn every_method_spec_round_trips() {
        for method in [
            MethodSpec::ZeroShot,
            MethodSpec::FewShot,
            MethodSpec::Rocchio,
            MethodSpec::Ens { horizon: 123 },
            MethodSpec::SeeSaw,
            MethodSpec::SeeSawClipOnly,
            MethodSpec::SeeSawProp,
        ] {
            let req = Request::Create {
                concept: 9,
                method,
                search_k: None,
            };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }
}
