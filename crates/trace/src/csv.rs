//! Textual (CSV) serialisation of traces.
//!
//! The format is a header line `name:kind,name:kind,…` followed by one line
//! per observation with comma-separated values. Integers are written as
//! decimal numbers, booleans as `true`/`false`, events by name. This is the
//! interchange format used by the example binaries and keeps recorded traces
//! human-readable, mirroring how the paper's traces were produced with print
//! statements.
//!
//! # Quoting rules
//!
//! Every valid trace round-trips losslessly, including event names that
//! contain CSV metacharacters:
//!
//! * a field is written quoted (`"…"`) when it is empty or contains a comma,
//!   a double quote, a newline, a carriage return, or leading/trailing
//!   whitespace;
//! * inside a quoted field, a double quote is escaped by doubling it (`""`);
//! * quoted fields may span multiple lines (an embedded newline is kept
//!   verbatim);
//! * unquoted fields are trimmed of surrounding whitespace when parsed;
//!   quoted fields are taken verbatim;
//! * header fields are `name:kind` (split at the *last* colon, so variable
//!   names may themselves contain colons) and must be non-empty; after the
//!   field itself is unquoted/trimmed, the name is taken verbatim, so quoted
//!   names with significant edge whitespace round-trip.
//!
//! One tokenizer implements these rules for both the in-memory functions
//! here and the [`StreamingCsvReader`](crate::StreamingCsvReader) /
//! [`CsvWriter`] streaming APIs, so the two paths can never disagree.

use crate::error::TraceError;
use crate::signature::{Signature, VarKind, Variable};
use crate::stream::StreamingCsvReader;
use crate::symbol::SymbolTable;
use crate::trace::{RowEntry, Trace};
use crate::valuation::Valuation;
use crate::value::Value;
use std::borrow::Cow;
use std::io::Write;

/// Whether `field` must be quoted to survive a round-trip.
pub(crate) fn needs_quoting(field: &str) -> bool {
    field.is_empty() || field != field.trim() || field.contains(['"', ',', '\n', '\r'])
}

/// Finds the first occurrence of `needle` in `haystack` with a SWAR
/// word-at-a-time scan (the classic `memchr` bit trick: a byte of
/// `word ^ broadcast` is zero exactly where the needle sits, and
/// `(x - 0x01…) & !x & 0x80…` raises that byte's high bit).
///
/// This is the tokenizer's inner loop — the unquoted-field scan runs over
/// every byte of every record — so the eight-at-a-time scan is worth having
/// without reaching for the `memchr` crate.
pub(crate) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = u64::from(needle) * LO;
    let mut i = 0usize;
    let n = haystack.len();
    while i + 8 <= n {
        let word = u64::from_le_bytes(
            haystack[i..i + 8]
                .try_into()
                .expect("slice is exactly eight bytes"),
        );
        let x = word ^ broadcast;
        let found = x.wrapping_sub(LO) & !x & HI;
        if found != 0 {
            return Some(i + (found.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    haystack[i..]
        .iter()
        .position(|&b| b == needle)
        .map(|offset| i + offset)
}

/// Appends `field` to `out`, quoting and escaping it when necessary.
pub(crate) fn push_field(out: &mut String, field: &str) {
    if needs_quoting(field) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Where the field grammar stands after the bytes scanned so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum FieldState {
    /// At the start of a field (possibly after skippable whitespace).
    #[default]
    FieldStart,
    /// Inside an unquoted field, or past a closed quoted field: quotes here
    /// are literal, and only a separator starts the next field.
    Unquoted,
    /// Inside a quoted field.
    Quoted,
    /// Just saw a `"` inside a quoted field: either the closing quote or
    /// the first half of an escaped `""`.
    QuoteInQuoted,
}

/// Decides, piece by piece, whether a CSV record is complete: no field that
/// *opened* with a quote is still unclosed (such a field contains an
/// embedded newline and the record continues on the next line). A quote
/// appearing mid-way through an unquoted field is a literal character —
/// matching [`split_record`] — and must not make following rows look like
/// part of this record.
///
/// The scanner keeps the field grammar's state between pieces, so a record
/// joined from many lines is scanned once in total, not once per line.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecordScanner {
    state: FieldState,
}

impl RecordScanner {
    /// Scans `bytes`, the next piece of the record, and returns whether the
    /// record is complete after it.
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> bool {
        use FieldState::{FieldStart, QuoteInQuoted, Quoted, Unquoted};
        // Fast path: outside a quoted field, a quote-free piece cannot open
        // one. When its last byte is neither a separator nor blank (a line's
        // `\n`), that byte leaves the grammar inside an unquoted field. This
        // skips the state machine for the overwhelmingly common
        // all-unquoted records.
        if matches!(self.state, FieldStart | Unquoted) && find_byte(bytes, b'"').is_none() {
            match bytes.last() {
                None => return true,
                Some(b',' | b' ' | b'\t') => {}
                Some(_) => {
                    self.state = Unquoted;
                    return true;
                }
            }
        }
        for &b in bytes {
            self.state = match self.state {
                FieldStart => match b {
                    b' ' | b'\t' | b',' => FieldStart,
                    b'"' => Quoted,
                    _ => Unquoted,
                },
                Unquoted => match b {
                    b',' => FieldStart,
                    _ => Unquoted,
                },
                Quoted => match b {
                    b'"' => QuoteInQuoted,
                    _ => Quoted,
                },
                QuoteInQuoted => match b {
                    b'"' => Quoted, // escaped quote, still inside
                    b',' => FieldStart,
                    _ => Unquoted,
                },
            };
        }
        // Only an open quoted field continues onto the next line; ending on
        // `QuoteInQuoted` means the field's closing quote was the last byte.
        self.state != Quoted
    }
}

/// Splits one complete CSV record into its fields.
///
/// Unquoted fields are trimmed; quoted fields are unescaped and taken
/// verbatim. Borrows from `record` whenever no unescaping is needed.
pub(crate) fn split_record<'a>(
    record: &'a str,
    line: usize,
) -> Result<Vec<Cow<'a, str>>, TraceError> {
    let bytes = record.as_bytes();
    let n = bytes.len();
    let mut fields = Vec::new();
    let mut i = 0usize;
    loop {
        // Find the start of the field, skipping blanks before a quote.
        let mut j = i;
        while j < n && (bytes[j] == b' ' || bytes[j] == b'\t') {
            j += 1;
        }
        if j < n && bytes[j] == b'"' {
            // Quoted field: scan to the closing quote. Records containing an
            // escaped quote (`""`) take the character-level slow path.
            let content_start = j + 1;
            let closing = match find_byte(&bytes[content_start..], b'"') {
                None => {
                    return Err(TraceError::Parse {
                        line,
                        message: "unterminated quoted field".to_owned(),
                    })
                }
                Some(offset) => content_start + offset,
            };
            if closing + 1 < n && bytes[closing + 1] == b'"' {
                return split_record_slow(record, line);
            }
            let value = Cow::Borrowed(&record[content_start..closing]);
            // After the closing quote only whitespace may precede the comma.
            let mut m = closing + 1;
            while m < n && (bytes[m] == b' ' || bytes[m] == b'\t') {
                m += 1;
            }
            if m < n && bytes[m] != b',' {
                return Err(TraceError::Parse {
                    line,
                    message: "unexpected characters after closing quote".to_owned(),
                });
            }
            fields.push(value);
            if m < n {
                i = m + 1;
            } else {
                break;
            }
        } else {
            // Unquoted field: up to the next comma, trimmed. This scan runs
            // over every byte of every unquoted record — the SWAR byte
            // search is what keeps multi-million-row ingestion cheap.
            let k = find_byte(&bytes[i..], b',').map_or(n, |offset| i + offset);
            fields.push(Cow::Borrowed(record[i..k].trim()));
            if k < n {
                i = k + 1;
            } else {
                break;
            }
        }
    }
    Ok(fields)
}

/// Character-by-character fallback for records whose quoted fields contain
/// escaped quotes (`""`). Rare, so clarity beats zero-copy here.
fn split_record_slow(record: &str, line: usize) -> Result<Vec<Cow<'_, str>>, TraceError> {
    let mut fields = Vec::new();
    let mut chars = record.chars().peekable();
    loop {
        // Skip whitespace before a potential opening quote.
        let mut pending = String::new();
        while matches!(chars.peek(), Some(' ' | '\t')) {
            pending.push(chars.next().expect("peeked"));
        }
        if chars.peek() == Some(&'"') {
            chars.next();
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            value.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(c) => value.push(c),
                    None => {
                        return Err(TraceError::Parse {
                            line,
                            message: "unterminated quoted field".to_owned(),
                        })
                    }
                }
            }
            while matches!(chars.peek(), Some(' ' | '\t')) {
                chars.next();
            }
            match chars.next() {
                Some(',') => fields.push(Cow::Owned(value)),
                None => {
                    fields.push(Cow::Owned(value));
                    break;
                }
                Some(_) => {
                    return Err(TraceError::Parse {
                        line,
                        message: "unexpected characters after closing quote".to_owned(),
                    })
                }
            }
        } else {
            // Unquoted field (the skipped whitespace belongs to it, then it
            // is trimmed anyway).
            let mut value = pending;
            let mut ended = false;
            for c in chars.by_ref() {
                if c == ',' {
                    ended = true;
                    break;
                }
                value.push(c);
            }
            fields.push(Cow::Owned(value.trim().to_owned()));
            if !ended {
                break;
            }
        }
    }
    Ok(fields)
}

/// Parses the header record into a signature.
pub(crate) fn parse_header(record: &str) -> Result<Signature, TraceError> {
    let mut vars = Vec::new();
    for field in split_record(record, 1)? {
        if field.trim().is_empty() {
            return Err(TraceError::Parse {
                line: 1,
                message: "empty header field (a column is missing its `name:kind`)".to_owned(),
            });
        }
        let (name, kind) = field.rsplit_once(':').ok_or_else(|| TraceError::Parse {
            line: 1,
            message: format!("header field `{field}` is missing `:kind`"),
        })?;
        // The name is kept verbatim (the tokenizer already trimmed unquoted
        // fields): trimming here would destroy quoted names with significant
        // edge whitespace and break round-tripping.
        if name.is_empty() {
            return Err(TraceError::Parse {
                line: 1,
                message: format!("header field `{field}` has an empty variable name"),
            });
        }
        let kind = match kind.trim() {
            "int" => VarKind::Int,
            "bool" => VarKind::Bool,
            "event" => VarKind::Event,
            other => {
                return Err(TraceError::Parse {
                    line: 1,
                    message: format!("unknown variable kind `{other}`"),
                })
            }
        };
        vars.push(Variable::new(name, kind));
    }
    Signature::from_variables(vars)
}

/// Formats the header record for a signature, with quoting.
pub(crate) fn header_record(signature: &Signature) -> String {
    let mut out = String::new();
    for (i, (_, var)) in signature.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, &format!("{}:{}", var.name(), var.kind()));
    }
    out
}

/// A streaming CSV emitter over any [`Write`] sink.
///
/// The header is written on construction; rows are appended one at a time
/// without buffering the whole trace, which is how multi-million-row
/// workload traces are exported without materialising them.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use tracelearn_trace::{CsvWriter, RowEntry, Signature, Value};
///
/// let sig = Signature::builder().event("op").int("x").build();
/// let mut out = Vec::new();
/// let mut writer = CsvWriter::new(&mut out, &sig)?;
/// writer.write_entries(&[RowEntry::Event("read,write"), RowEntry::Value(Value::Int(3))])?;
/// writer.finish()?;
/// assert_eq!(String::from_utf8(out)?, "op:event,x:int\n\"read,write\",3\n");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    out: W,
    arity: usize,
    /// Per-row scratch buffer, reused across rows.
    buf: String,
}

impl<W: Write> CsvWriter<W> {
    /// Creates a writer and emits the header for `signature`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn new(mut out: W, signature: &Signature) -> Result<Self, TraceError> {
        let mut header = header_record(signature);
        header.push('\n');
        out.write_all(header.as_bytes())?;
        Ok(CsvWriter {
            out,
            arity: signature.arity(),
            buf: String::new(),
        })
    }

    /// Writes one observation given as named-row entries (events by name).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ArityMismatch`] for a wrong-width row,
    /// [`TraceError::UnresolvedSymbol`] for a [`Value::Sym`] entry (a bare
    /// symbol id has no name without a table — pass events as
    /// [`RowEntry::Event`]), and [`TraceError::Io`] when the sink fails.
    pub fn write_entries(&mut self, row: &[RowEntry<'_>]) -> Result<(), TraceError> {
        if row.len() != self.arity {
            return Err(TraceError::ArityMismatch {
                expected: self.arity,
                got: row.len(),
            });
        }
        self.buf.clear();
        for (i, entry) in row.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            match entry {
                RowEntry::Event(name) => push_field(&mut self.buf, name),
                RowEntry::Value(Value::Sym(s)) => {
                    return Err(TraceError::UnresolvedSymbol { symbol: s.index() })
                }
                RowEntry::Value(v) => {
                    use std::fmt::Write as _;
                    write!(self.buf, "{v}").expect("writing to a String cannot fail");
                }
            }
        }
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())?;
        Ok(())
    }

    /// Writes one observation, resolving symbolic values through `symbols`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnresolvedSymbol`] when a [`Value::Sym`] id is
    /// not present in `symbols`, plus the errors of
    /// [`CsvWriter::write_entries`].
    pub fn write_valuation(
        &mut self,
        symbols: &SymbolTable,
        observation: &Valuation,
    ) -> Result<(), TraceError> {
        if observation.arity() != self.arity {
            return Err(TraceError::ArityMismatch {
                expected: self.arity,
                got: observation.arity(),
            });
        }
        self.buf.clear();
        for (i, &value) in observation.values().iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            match value {
                Value::Sym(s) => {
                    let name = symbols
                        .name(s)
                        .ok_or(TraceError::UnresolvedSymbol { symbol: s.index() })?;
                    push_field(&mut self.buf, name);
                }
                other => {
                    use std::fmt::Write as _;
                    write!(self.buf, "{other}").expect("writing to a String cannot fail");
                }
            }
        }
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())?;
        Ok(())
    }

    /// Flushes the sink and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when flushing fails.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a whole trace to a [`Write`] sink in the textual format.
///
/// # Errors
///
/// Returns [`TraceError::UnresolvedSymbol`] when an observation holds a
/// symbol id missing from the trace's own symbol table (such a value cannot
/// be serialised faithfully) and [`TraceError::Io`] when the sink fails.
pub fn write_csv<W: Write>(trace: &Trace, out: W) -> Result<W, TraceError> {
    let mut writer = CsvWriter::new(out, trace.signature())?;
    for observation in trace.observations() {
        writer.write_valuation(trace.symbols(), observation)?;
    }
    writer.finish()
}

/// Serialises a trace to the textual format.
///
/// # Errors
///
/// Returns [`TraceError::UnresolvedSymbol`] when an observation holds a
/// symbol id missing from the trace's symbol table; rendering such a value
/// as a placeholder would silently round-trip into a fabricated event name.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use tracelearn_trace::{parse_csv, to_csv, Signature, Trace, Value};
///
/// let sig = Signature::builder().int("x").build();
/// let mut trace = Trace::new(sig);
/// trace.push_row([Value::Int(5)])?;
/// let text = to_csv(&trace)?;
/// let back = parse_csv(&text)?;
/// assert_eq!(back.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn to_csv(trace: &Trace) -> Result<String, TraceError> {
    let out = write_csv(trace, Vec::new())?;
    Ok(String::from_utf8(out).expect("CSV output is valid UTF-8"))
}

/// Parses a trace from the textual format.
///
/// This is the in-memory convenience wrapper around
/// [`StreamingCsvReader`](crate::StreamingCsvReader); both share one
/// tokenizer and accept exactly the same inputs.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with the offending line number for malformed
/// headers or rows, and propagates signature/valuation errors.
pub fn parse_csv(text: &str) -> Result<Trace, TraceError> {
    StreamingCsvReader::new(text.as_bytes())?.read_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use proptest::prelude::*;

    /// Whether `record`, scanned in one piece, is a complete CSV record.
    fn record_is_complete(record: &str) -> bool {
        RecordScanner::default().feed(record.as_bytes())
    }

    #[test]
    fn round_trip_mixed_trace() {
        let sig = Signature::builder()
            .event("op")
            .int("len")
            .boolean("ok")
            .build();
        let mut t = Trace::new(sig);
        t.push_named_row(vec![
            RowEntry::Event("read"),
            RowEntry::Value(Value::Int(3)),
            RowEntry::Value(Value::Bool(true)),
        ])
        .unwrap();
        t.push_named_row(vec![
            RowEntry::Event("write"),
            RowEntry::Value(Value::Int(4)),
            RowEntry::Value(Value::Bool(false)),
        ])
        .unwrap();
        let text = to_csv(&t).unwrap();
        let back = parse_csv(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.event_sequence("op").unwrap(), vec!["read", "write"]);
        assert_eq!(back.get(1).unwrap().values()[1], Value::Int(4));
    }

    #[test]
    fn adversarial_event_names_round_trip() {
        let sig = Signature::builder().event("op").int("x").build();
        let mut t = Trace::new(sig);
        let names = [
            "plain",
            "with,comma",
            "with\"quote",
            "\"fully quoted\"",
            " leading",
            "trailing ",
            "inner space",
            "",
            "comma,and\"both",
            "multi\nline",
            "a,\"b\",c",
            "\t tabbed \t",
        ];
        for (i, name) in names.iter().enumerate() {
            t.push_named_row(vec![
                RowEntry::Event(name),
                RowEntry::Value(Value::Int(i as i64)),
            ])
            .unwrap();
        }
        let text = to_csv(&t).unwrap();
        let back = parse_csv(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.event_sequence("op").unwrap(), names.to_vec());
    }

    #[test]
    fn adversarial_variable_names_round_trip() {
        let sig = Signature::builder()
            .int("plain")
            .int("with,comma")
            .event("quo\"ted")
            .int("name:with:colons")
            .int(" edge whitespace ")
            .build();
        let mut t = Trace::new(sig);
        t.push_named_row(vec![
            RowEntry::Value(Value::Int(1)),
            RowEntry::Value(Value::Int(2)),
            RowEntry::Event("e"),
            RowEntry::Value(Value::Int(3)),
            RowEntry::Value(Value::Int(4)),
        ])
        .unwrap();
        let text = to_csv(&t).unwrap();
        let back = parse_csv(&text).unwrap();
        assert_eq!(back.signature(), t.signature());
        assert_eq!(back, t);
    }

    #[test]
    fn unresolvable_symbol_is_an_error_not_a_placeholder() {
        let sig = Signature::builder().event("op").build();
        let mut t = Trace::new(sig);
        // A valuation built against a foreign symbol table: id 5 was never
        // interned in this trace.
        t.push(Valuation::from_values(vec![Value::Sym(
            crate::symbol::SymbolId::new(5),
        )]))
        .unwrap();
        match to_csv(&t) {
            Err(TraceError::UnresolvedSymbol { symbol: 5 }) => {}
            other => panic!("expected UnresolvedSymbol, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(
            parse_csv("x\n1\n"),
            Err(TraceError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_csv("x:float\n1\n"),
            Err(TraceError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_csv(":int\n1\n"),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_rejects_empty_header_fields() {
        // `x:int,,y:int` must not silently become a two-column signature.
        let err = parse_csv("x:int,,y:int\n1,2\n").unwrap_err();
        match err {
            TraceError::Parse { line: 1, message } => {
                assert!(message.contains("empty header field"), "{message}")
            }
            other => panic!("expected Parse on line 1, got {other:?}"),
        }
        // A trailing comma is an empty field too.
        assert!(matches!(
            parse_csv("x:int,\n1\n"),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_rejects_bad_rows() {
        assert!(matches!(
            parse_csv("x:int\nnot_an_int\n"),
            Err(TraceError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_csv("x:int,y:int\n1\n"),
            Err(TraceError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_csv("b:bool\nmaybe\n"),
            Err(TraceError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed_quoting() {
        assert!(matches!(
            parse_csv("op:event\n\"unterminated\n"),
            Err(TraceError::Parse { .. })
        ));
        assert!(matches!(
            parse_csv("op:event\n\"closed\"garbage\n"),
            Err(TraceError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn parse_rejects_empty_input() {
        assert!(matches!(parse_csv(""), Err(TraceError::EmptyTrace)));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let trace = parse_csv("x:int\n1\n\n2\n").unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn quoted_fields_preserve_whitespace_and_unquoted_are_trimmed() {
        let trace = parse_csv("op:event\n  spaced  \n\"  spaced  \"\n").unwrap();
        assert_eq!(
            trace.event_sequence("op").unwrap(),
            vec!["spaced", "  spaced  "]
        );
    }

    #[test]
    fn embedded_newlines_in_quoted_fields() {
        let trace = parse_csv("op:event,x:int\n\"line1\nline2\",7\n").unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.event_sequence("op").unwrap(), vec!["line1\nline2"]);
        // Line numbers account for the record spanning two lines.
        let err = parse_csv("op:event,x:int\n\"a\nb\",7\nbad_row\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn find_byte_agrees_with_naive_scan() {
        let cases: &[(&[u8], u8)] = &[
            (b"", b','),
            (b"abc", b','),
            (b",abc", b','),
            (b"abc,", b','),
            (b"abcdefgh,ijk", b','),
            (b"abcdefg", b','),
            (b"aaaaaaaaaaaaaaaa", b'a'),
            (b"0123456789abcdef0123456789abcdef,", b','),
            (b"no needle here at all and longer than a word", b'"'),
            (b"quote\"right in the middle of the haystack!!", b'"'),
        ];
        for &(haystack, needle) in cases {
            assert_eq!(
                find_byte(haystack, needle),
                haystack.iter().position(|&b| b == needle),
                "haystack {haystack:?} needle {needle:?}"
            );
        }
        // Every offset within a couple of words, so all alignment paths and
        // the scalar tail are exercised.
        for len in 0..24 {
            for pos in 0..len {
                let mut haystack = vec![b'x'; len];
                haystack[pos] = b',';
                assert_eq!(find_byte(&haystack, b','), Some(pos));
            }
            assert_eq!(find_byte(&vec![b'x'; len], b','), None);
        }
    }

    #[test]
    fn tokenizer_splits_escaped_quotes() {
        let fields = split_record("\"a\"\"b\",plain,\"c,d\"", 1).unwrap();
        let fields: Vec<&str> = fields.iter().map(|f| f.as_ref()).collect();
        assert_eq!(fields, vec!["a\"b", "plain", "c,d"]);
    }

    #[test]
    fn stray_quote_mid_field_does_not_swallow_following_rows() {
        // A quote in the middle of an unquoted field is a literal character;
        // it must not open a quoted region that joins the remaining rows
        // into one record.
        let trace = parse_csv("op:event\nrow\"1\nrow2\nrow3\n").unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.event_sequence("op").unwrap(),
            vec!["row\"1", "row2", "row3"]
        );
    }

    #[test]
    fn record_completeness_follows_field_structure() {
        // Complete records: closed quotes, stray literal quotes, escapes.
        for complete in [
            "plain,row",
            "ab\"cd",          // stray quote mid-field is literal
            "\"closed\"",      // quoted field, closed
            "\"a\"\"b\"",      // escaped quote inside quoted field
            "\"\"",            // empty quoted field
            "\"x\",y,\"z\"",   // mixed
            "a\"b\"c,d\"",     // all literal: field did not start with a quote
            " \"padded\" ,ok", // whitespace around a quoted field
        ] {
            assert!(record_is_complete(complete), "{complete:?}");
        }
        // Incomplete: a field that opened with a quote is still unclosed.
        for incomplete in ["\"open", "a,\"open", "\"a\"\"", "x, \"y"] {
            assert!(!record_is_complete(incomplete), "{incomplete:?}");
        }
    }

    /// Pool of adversarial event names the property tests draw from.
    const NAME_POOL: [&str; 10] = [
        "ev",
        "a,b",
        "q\"q",
        " pad ",
        "",
        "x\ny",
        "\"\"",
        ",",
        "tab\there",
        "mixed, \"all\" of\nit ",
    ];

    fn arbitrary_trace() -> impl Strategy<Value = Trace> {
        let rows = proptest::collection::vec(
            (
                0usize..NAME_POOL.len(),
                -1_000_000_000i64..1_000_000_000,
                proptest::bool::ANY,
            ),
            0..24,
        );
        rows.prop_map(|rows| {
            let sig = Signature::builder()
                .event("op")
                .int("x")
                .boolean("flag")
                .build();
            let mut t = Trace::new(sig);
            for (name, x, flag) in rows {
                t.push_named_row(vec![
                    RowEntry::Event(NAME_POOL[name]),
                    RowEntry::Value(Value::Int(x)),
                    RowEntry::Value(Value::Bool(flag)),
                ])
                .unwrap();
            }
            t
        })
    }

    proptest! {
        /// `parse_csv(to_csv(t))` is the identity for arbitrary traces,
        /// including adversarial event names.
        #[test]
        fn csv_round_trip_is_identity(trace in arbitrary_trace()) {
            let text = to_csv(&trace).unwrap();
            let back = parse_csv(&text).unwrap();
            prop_assert_eq!(back, trace);
        }

        /// `record_is_complete` and the tokenizer agree on *arbitrary*
        /// records (not just writer-produced ones): a record is incomplete
        /// exactly when the tokenizer reports an unterminated quoted field.
        /// Guards the two implementations of the field grammar against
        /// drifting apart, which would silently mis-join records in the
        /// streaming reader.
        #[test]
        fn completeness_matches_tokenizer(parts in proptest::collection::vec(0usize..6, 0..24)) {
            const ALPHABET: [&str; 6] = ["a", "\"", ",", " ", "\t", "b"];
            let record: String = parts.iter().map(|&i| ALPHABET[i]).collect();
            let unterminated = matches!(
                split_record(&record, 1),
                Err(TraceError::Parse { ref message, .. }) if message.contains("unterminated")
            );
            prop_assert_eq!(!record_is_complete(&record), unterminated, "record: {:?}", record);
        }

        /// Scanning a record in pieces, as the streaming reader does line by
        /// line, reaches the same verdict as scanning it whole, wherever the
        /// pieces are cut.
        #[test]
        fn piecewise_scan_matches_whole_scan(
            parts in proptest::collection::vec(0usize..7, 0..24),
            cuts in proptest::collection::vec(0usize..24, 0..4),
        ) {
            const ALPHABET: [&str; 7] = ["a", "\"", ",", " ", "\t", "b", "\n"];
            let record: String = parts.iter().map(|&i| ALPHABET[i]).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(record.len())).collect();
            cuts.sort_unstable();
            cuts.push(record.len());
            let mut scanner = RecordScanner::default();
            let mut from = 0;
            let mut complete = true;
            for cut in cuts {
                complete = scanner.feed(&record.as_bytes()[from..cut]);
                from = cut;
            }
            prop_assert_eq!(complete, record_is_complete(&record), "record: {:?}", record);
        }

        /// Field-level escaping round-trips through the tokenizer for
        /// arbitrary byte soup drawn from the adversarial alphabet.
        #[test]
        fn field_escaping_round_trips(parts in proptest::collection::vec(0usize..NAME_POOL.len(), 1..6)) {
            let fields: Vec<&str> = parts.iter().map(|&i| NAME_POOL[i]).collect();
            let mut record = String::new();
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    record.push(',');
                }
                push_field(&mut record, f);
            }
            prop_assert!(record_is_complete(&record));
            let parsed = split_record(&record, 1).unwrap();
            let parsed: Vec<&str> = parsed.iter().map(|f| f.as_ref()).collect();
            prop_assert_eq!(parsed, fields);
        }
    }
}
