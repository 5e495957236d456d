//! Streaming CSV ingestion: reading traces that do not fit in memory.
//!
//! [`StreamingCsvReader`] wraps any [`BufRead`] source and yields
//! observations (or observation chunks) one at a time, interning event names
//! into a growing [`SymbolTable`] as it goes. It shares the quoting tokenizer
//! of [`parse_csv`](crate::parse_csv) — the two paths accept exactly the same
//! inputs — but never materialises more than the current record, which is
//! what makes multi-million-row traces ingestible. Its id path decodes each
//! distinct record once: the learner's streaming entry point keeps only a
//! bounded window of observation ids plus the (small) sets of distinct
//! observations and unique segments resident.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use tracelearn_trace::StreamingCsvReader;
//!
//! let text = "op:event,x:int\nread,1\nwrite,2\n";
//! let mut reader = StreamingCsvReader::new(text.as_bytes())?;
//! assert_eq!(reader.signature().arity(), 2);
//! let mut count = 0;
//! while let Some(observation) = reader.next_observation()? {
//!     assert_eq!(observation.arity(), 2);
//!     count += 1;
//! }
//! assert_eq!(count, 2);
//! # Ok(())
//! # }
//! ```

use crate::csv::{find_byte, parse_header, split_record, RecordScanner};
use crate::error::TraceError;
use crate::signature::{Signature, VarKind};
use crate::symbol::SymbolTable;
use crate::trace::Trace;
use crate::valuation::Valuation;
use crate::value::Value;
use std::collections::HashMap;
use std::io::{BufRead, ErrorKind, Read};

/// Upper bound on one buffered record (including a joined multi-line quoted
/// record). A corrupt row — an unclosed quote, or a line with no newline at
/// all — must become a prompt parse error, not an attempt to slurp the
/// remaining gigabytes of the stream into one string.
const MAX_RECORD_BYTES: usize = 1 << 20;

/// A stateful decoder from complete CSV records to [`Valuation`]s.
///
/// This is the record-level core of [`StreamingCsvReader`], split out so
/// that callers which receive records one at a time from somewhere other
/// than a contiguous [`BufRead`] — the `tracelearn-serve` daemon multiplexes
/// many streams over one connection — can decode them with the same
/// tokenizer and the same growing [`SymbolTable`].
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use tracelearn_trace::CsvRecordDecoder;
///
/// let mut decoder = CsvRecordDecoder::from_header("op:event,x:int")?;
/// let observation = decoder.decode("read,1", 2)?;
/// assert_eq!(observation.arity(), 2);
/// assert_eq!(decoder.symbols().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsvRecordDecoder {
    signature: Signature,
    symbols: SymbolTable,
}

impl CsvRecordDecoder {
    /// Creates a decoder by parsing a CSV header record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] for a malformed header (including empty
    /// header fields).
    pub fn from_header(header: &str) -> Result<Self, TraceError> {
        Ok(CsvRecordDecoder {
            signature: parse_header(header)?,
            symbols: SymbolTable::new(),
        })
    }

    /// Creates a decoder for a known signature (no header record needed).
    pub fn new(signature: Signature) -> Self {
        CsvRecordDecoder {
            signature,
            symbols: SymbolTable::new(),
        }
    }

    /// The signature records are decoded against.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The event names interned so far.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Consumes the decoder, returning the signature and the symbol table
    /// accumulated while decoding.
    pub fn into_parts(self) -> (Signature, SymbolTable) {
        (self.signature, self.symbols)
    }

    /// Decodes one complete record into a [`Valuation`], interning event
    /// names. `line` is the one-based input line number used in errors.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] for the wrong field count, an
    /// unterminated quote or a value that does not parse as its declared
    /// kind.
    pub fn decode(&mut self, record: &str, line: usize) -> Result<Valuation, TraceError> {
        let fields = split_record(record, line)?;
        if fields.len() != self.signature.arity() {
            return Err(TraceError::Parse {
                line,
                message: format!(
                    "expected {} fields, found {}",
                    self.signature.arity(),
                    fields.len()
                ),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (id, var) in self.signature.iter() {
            let field: &str = fields[id.index()].as_ref();
            let value = match var.kind() {
                VarKind::Int => Value::Int(field.parse().map_err(|_| TraceError::Parse {
                    line,
                    message: format!("`{field}` is not an integer"),
                })?),
                VarKind::Bool => Value::Bool(field.parse().map_err(|_| TraceError::Parse {
                    line,
                    message: format!("`{field}` is not a boolean"),
                })?),
                VarKind::Event => Value::Sym(self.symbols.intern(field)),
            };
            values.push(value);
        }
        Ok(Valuation::from_values(values))
    }
}

/// An incremental CSV trace reader over any [`BufRead`] source.
///
/// The header is parsed on construction. Records are then read one at a
/// time, by either of two paths over one record reader:
///
/// * [`next_observation`](StreamingCsvReader::next_observation) (and
///   [`read_chunk`](StreamingCsvReader::read_chunk) and the [`Iterator`]
///   implementation) decodes every record into a [`Valuation`];
/// * [`next_observation_id`](StreamingCsvReader::next_observation_id) (and
///   [`read_chunk_ids`](StreamingCsvReader::read_chunk_ids)) returns a dense
///   observation id instead. A record whose bytes were seen before costs one
///   hash of those bytes; only unseen records are decoded, and
///   [`distinct_observations`](StreamingCsvReader::distinct_observations)
///   maps the ids back to their values. Records whose bytes differ but whose
///   values are equal (`1`, `01`, ` 1`) share one id.
///
/// Event names are interned into the reader's own [`SymbolTable`] in
/// first-occurrence order on both paths, so all observations of one stream
/// share consistent [`Value::Sym`] ids.
#[derive(Debug)]
pub struct StreamingCsvReader<R> {
    source: RecordSource<R>,
    decoder: CsvRecordDecoder,
    ids: ObservationIds,
    observations_read: usize,
}

impl<R: BufRead> StreamingCsvReader<R> {
    /// Creates a reader, consuming and parsing the header record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for an empty input,
    /// [`TraceError::Parse`] for a malformed header (including empty header
    /// fields) and [`TraceError::Io`] for source failures.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut source = RecordSource {
            reader,
            line: 0,
            record: Vec::new(),
            #[cfg(feature = "fault-injection")]
            cut_short: false,
        };
        let decoder = source
            .next_record(|record, line| CsvRecordDecoder::from_header(record_text(record, line)?))?
            .ok_or(TraceError::EmptyTrace)?;
        Ok(StreamingCsvReader {
            source,
            decoder,
            ids: ObservationIds::default(),
            observations_read: 0,
        })
    }

    /// The signature parsed from the header.
    pub fn signature(&self) -> &Signature {
        self.decoder.signature()
    }

    /// The event names interned so far.
    pub fn symbols(&self) -> &SymbolTable {
        self.decoder.symbols()
    }

    /// Number of observations yielded so far, by either path.
    pub fn observations_read(&self) -> usize {
        self.observations_read
    }

    /// The distinct observations the id path has met, indexed by id.
    pub fn distinct_observations(&self) -> &[Valuation] {
        &self.ids.distinct
    }

    /// Consumes the reader, returning the signature and the symbol table
    /// accumulated while reading.
    pub fn into_parts(self) -> (Signature, SymbolTable) {
        self.decoder.into_parts()
    }

    /// Reads the next observation, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] (with the line number of the record's
    /// last line) for malformed rows, including rows that are not valid
    /// UTF-8, and [`TraceError::Io`] for source failures.
    pub fn next_observation(&mut self) -> Result<Option<Valuation>, TraceError> {
        let decoder = &mut self.decoder;
        let observation = self
            .source
            .next_record(|record, line| decoder.decode(record_text(record, line)?, line))?;
        self.observations_read += usize::from(observation.is_some());
        Ok(observation)
    }

    /// Reads up to `max_rows` observations into `out` (which is cleared
    /// first), returning how many were read. Zero means end of input.
    ///
    /// # Errors
    ///
    /// See [`StreamingCsvReader::next_observation`].
    pub fn read_chunk(
        &mut self,
        max_rows: usize,
        out: &mut Vec<Valuation>,
    ) -> Result<usize, TraceError> {
        out.clear();
        while out.len() < max_rows {
            match self.next_observation()? {
                Some(observation) => out.push(observation),
                None => break,
            }
        }
        Ok(out.len())
    }

    /// Reads the next observation as an id into
    /// [`distinct_observations`](StreamingCsvReader::distinct_observations),
    /// or `None` at end of input. Ids are dense and numbered in order of
    /// first occurrence.
    ///
    /// # Errors
    ///
    /// As for [`StreamingCsvReader::next_observation`], with the same line
    /// numbers and messages, plus [`TraceError::Parse`] when a stream holds
    /// more distinct observations than a `u32` can number.
    pub fn next_observation_id(&mut self) -> Result<Option<u32>, TraceError> {
        let (ids, decoder) = (&mut self.ids, &mut self.decoder);
        let id = self
            .source
            .next_record(|record, line| ids.lookup(record, line, decoder))?;
        self.observations_read += usize::from(id.is_some());
        Ok(id)
    }

    /// Reads up to `max_rows` observation ids into `out` (which is cleared
    /// first), returning how many were read. Zero means end of input.
    ///
    /// # Errors
    ///
    /// See [`StreamingCsvReader::next_observation_id`].
    pub fn read_chunk_ids(
        &mut self,
        max_rows: usize,
        out: &mut Vec<u32>,
    ) -> Result<usize, TraceError> {
        out.clear();
        while out.len() < max_rows {
            match self.next_observation_id()? {
                Some(id) => out.push(id),
                None => break,
            }
        }
        Ok(out.len())
    }

    /// Reads the remaining observations into an in-memory [`Trace`].
    ///
    /// # Errors
    ///
    /// See [`StreamingCsvReader::next_observation`].
    pub fn read_trace(mut self) -> Result<Trace, TraceError> {
        let mut observations = Vec::new();
        while let Some(observation) = self.next_observation()? {
            observations.push(observation);
        }
        let (signature, symbols) = self.decoder.into_parts();
        Trace::from_parts(signature, symbols, observations)
    }
}

/// The record reader under both of [`StreamingCsvReader`]'s read paths: it
/// splits the source into records, joining lines while a quoted field is
/// open, numbers lines, skips blank records, enforces
/// [`MAX_RECORD_BYTES`] and applies injected ingestion faults.
#[derive(Debug)]
struct RecordSource<R> {
    reader: R,
    /// One-based number of the last input line consumed.
    line: usize,
    /// A record that is not one whole line of the source's buffer: joined
    /// lines, a line that straddles the buffer's end, or a last line with
    /// no line end.
    record: Vec<u8>,
    /// Set when an injected short read has ended the stream: every later
    /// read reports end of input too, as from a producer that was cut off.
    #[cfg(feature = "fault-injection")]
    cut_short: bool,
}

impl<R: BufRead> RecordSource<R> {
    /// Reads the next non-blank record and hands its bytes, without the line
    /// end, to `take` with the number of its last line. Returns `None` at
    /// end of input.
    ///
    /// A record that is one whole line of the source's buffer is handed
    /// over in place, without a copy; any other is first gathered into
    /// `self.record`.
    fn next_record<T>(
        &mut self,
        take: impl FnOnce(&[u8], usize) -> Result<T, TraceError>,
    ) -> Result<Option<T>, TraceError> {
        #[cfg(feature = "fault-injection")]
        if self.cut_short {
            return Ok(None);
        }
        loop {
            let buffer = match self.reader.fill_buf() {
                // One empty read is the end of input, as for `read_until`: an
                // interactive source may have more after it.
                Ok([]) => return Ok(None),
                Ok(buffer) => buffer,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(error) => return Err(error.into()),
            };
            let (record, line_len) = match whole_line(buffer) {
                Some(line_len) => {
                    self.line += 1;
                    (trim_line_end(&buffer[..line_len]), line_len)
                }
                None => {
                    if !self.read_joined_record()? {
                        return Ok(None);
                    }
                    (self.record.as_slice(), 0)
                }
            };
            if is_blank(record) {
                self.reader.consume(line_len);
                continue;
            }
            #[cfg(feature = "fault-injection")]
            let rewritten;
            #[cfg(feature = "fault-injection")]
            let record = match inject_record_faults(record) {
                Injected::ShortRead => {
                    self.reader.consume(line_len);
                    self.cut_short = true;
                    return Ok(None);
                }
                Injected::Rewritten(bytes) => {
                    rewritten = bytes;
                    rewritten.as_slice()
                }
                Injected::Unchanged => record,
            };
            let taken = take(record, self.line);
            self.reader.consume(line_len);
            return taken.map(Some);
        }
    }

    /// Reads one more input line into `self.record`, bounded so a single
    /// newline-free line can never grow the buffer past [`MAX_RECORD_BYTES`]
    /// — a stalled or malicious producer gets a parse error, not unbounded
    /// memory. `scanner` scans only the bytes this line appended. Returns
    /// the bytes read (0 at end of input) and whether the record is complete
    /// after them.
    fn read_line_capped(
        &mut self,
        scanner: &mut RecordScanner,
    ) -> Result<(usize, bool), TraceError> {
        // One spare byte of budget distinguishes "exactly at the cap" from
        // "past it": a read that fills the whole allowance means the line
        // kept going.
        let budget = (MAX_RECORD_BYTES + 1).saturating_sub(self.record.len());
        let start = self.record.len();
        let mut limited = (&mut self.reader).take(budget as u64);
        let read = limited.read_until(b'\n', &mut self.record)?;
        let complete = scanner.feed(&self.record[start..]);
        if self.record.len() > MAX_RECORD_BYTES {
            let message = if complete {
                format!("line exceeds {MAX_RECORD_BYTES} bytes")
            } else {
                format!("record exceeds {MAX_RECORD_BYTES} bytes with an unclosed quote")
            };
            return Err(TraceError::Parse {
                line: self.line + 1,
                message,
            });
        }
        Ok((read, complete))
    }

    /// Reads the next record into `self.record` without its line end,
    /// joining lines while a quoted field is open. Returns `false` at end of
    /// input.
    fn read_joined_record(&mut self) -> Result<bool, TraceError> {
        self.record.clear();
        let mut scanner = RecordScanner::default();
        let (read, mut complete) = self.read_line_capped(&mut scanner)?;
        if read == 0 {
            return Ok(false);
        }
        self.line += 1;
        // A record continues onto following lines while a quoted field is
        // still open (an embedded newline inside the field). The scanner
        // carries its state across lines, so each byte is scanned once
        // however many lines the record joins.
        while !complete {
            let (more, now_complete) = self.read_line_capped(&mut scanner)?;
            if more == 0 {
                break; // unterminated quote; the tokenizer reports it
            }
            complete = now_complete;
            self.line += 1;
        }
        let len = trim_line_end(&self.record).len();
        self.record.truncate(len);
        Ok(true)
    }
}

/// The length, line end included, of the first line of `buffer` when that
/// line is a whole record within [`MAX_RECORD_BYTES`]: it ends in the
/// buffer and leaves no quoted field open. `None` sends the record down the
/// joining path.
fn whole_line(buffer: &[u8]) -> Option<usize> {
    let capped = &buffer[..buffer.len().min(MAX_RECORD_BYTES)];
    let line_len = find_byte(capped, b'\n')? + 1;
    RecordScanner::default()
        .feed(&buffer[..line_len])
        .then_some(line_len)
}

/// `line` without the `\n` and `\r` bytes that end it.
fn trim_line_end(line: &[u8]) -> &[u8] {
    let end = line
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |last| last + 1);
    &line[..end]
}

/// Whether a record holds only whitespace (Unicode `White_Space`, as
/// `str::trim` has it). Decides on the first non-blank ASCII byte without
/// UTF-8 validation; a record that is not UTF-8 is not blank, and fails
/// when decoded.
fn is_blank(record: &[u8]) -> bool {
    match record
        .iter()
        .position(|&b| !matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r'))
    {
        None => true,
        Some(at) if record[at].is_ascii() => false,
        Some(at) => std::str::from_utf8(&record[at..]).is_ok_and(|rest| rest.trim().is_empty()),
    }
}

/// `record` as text, or the parse error a record that is not UTF-8 gets.
fn record_text(record: &[u8], line: usize) -> Result<&str, TraceError> {
    std::str::from_utf8(record).map_err(|_| TraceError::Parse {
        line,
        message: "record is not valid UTF-8".to_owned(),
    })
}

/// The id path's two maps. A record whose bytes were seen before is found
/// by those bytes; only an unseen record is decoded, and then matched by
/// value, so ids stay exact however a value is spelt.
#[derive(Debug, Default)]
struct ObservationIds {
    /// Record bytes to id. The keys come from the input, so the map keeps
    /// std's keyed hasher.
    by_record: HashMap<Box<[u8]>, u32>,
    /// Decoded value to id.
    by_value: HashMap<Valuation, u32>,
    /// The observation of each id, in id order.
    distinct: Vec<Valuation>,
}

impl ObservationIds {
    /// The id of `record`: one hash of its bytes when they were seen before.
    fn lookup(
        &mut self,
        record: &[u8],
        line: usize,
        decoder: &mut CsvRecordDecoder,
    ) -> Result<u32, TraceError> {
        match self.by_record.get(record) {
            Some(&id) => Ok(id),
            None => self.insert(record, line, decoder),
        }
    }

    /// Decodes an unseen record and gives it the id of an equal observation,
    /// or the next free id.
    fn insert(
        &mut self,
        record: &[u8],
        line: usize,
        decoder: &mut CsvRecordDecoder,
    ) -> Result<u32, TraceError> {
        let observation = decoder.decode(record_text(record, line)?, line)?;
        let id = match self.by_value.get(&observation) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.distinct.len()).map_err(|_| TraceError::Parse {
                    line,
                    message: "more distinct observations than 32-bit ids can number".to_owned(),
                })?;
                self.by_value.insert(observation.clone(), id);
                self.distinct.push(observation);
                id
            }
        };
        self.by_record.insert(record.into(), id);
        Ok(id)
    }
}

/// What the armed ingestion faults did to a record.
#[cfg(feature = "fault-injection")]
enum Injected {
    /// The stream ends before this record, as if the producer was cut off
    /// after a complete record; no later read returns a record.
    ShortRead,
    /// The record was torn or had a byte corrupted.
    Rewritten(Vec<u8>),
    Unchanged,
}

/// Applies any armed ingestion faults to the record just read.
#[cfg(feature = "fault-injection")]
fn inject_record_faults(record: &[u8]) -> Injected {
    use tracelearn_faults::{trip, trip_value, FaultSite};

    fn char_floor(s: &str, mut at: usize) -> usize {
        while at > 0 && !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    if trip(FaultSite::CsvShortRead) {
        return Injected::ShortRead;
    }
    let torn = trip_value(FaultSite::CsvTornRecord);
    let corrupt = trip_value(FaultSite::CsvCorruptByte);
    if torn.is_none() && corrupt.is_none() {
        return Injected::Unchanged;
    }
    // A record that is not UTF-8 fails to decode whatever a fault does.
    let Ok(text) = std::str::from_utf8(record) else {
        return Injected::Unchanged;
    };
    let mut text = text.to_owned();
    if let Some(value) = torn {
        if !text.is_empty() {
            let cut = char_floor(&text, value as usize % text.len());
            text.truncate(cut);
        }
    }
    if let Some(value) = corrupt {
        if !text.is_empty() {
            let at = char_floor(&text, value as usize % text.len());
            if let Some(ch) = text[at..].chars().next() {
                // U+001A SUBSTITUTE: the classic "this byte was lost"
                // marker; parses as neither a number nor a clean name.
                text.replace_range(at..at + ch.len_utf8(), "\u{1A}");
            }
        }
    }
    Injected::Rewritten(text.into_bytes())
}

impl<R: BufRead> Iterator for StreamingCsvReader<R> {
    type Item = Result<Valuation, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_observation().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{parse_csv, to_csv};
    use crate::trace::RowEntry;

    fn sample_csv() -> String {
        let sig = Signature::builder().event("op").int("x").build();
        let mut t = Trace::new(sig);
        for (op, x) in [("read", 1), ("write,all", 2), (" pad ", 3), ("read", 4)] {
            t.push_named_row(vec![RowEntry::Event(op), RowEntry::Value(Value::Int(x))])
                .unwrap();
        }
        to_csv(&t).unwrap()
    }

    #[test]
    fn streaming_agrees_with_in_memory_parse() {
        let text = sample_csv();
        let in_memory = parse_csv(&text).unwrap();
        let streamed = StreamingCsvReader::new(text.as_bytes())
            .unwrap()
            .read_trace()
            .unwrap();
        assert_eq!(in_memory, streamed);
    }

    #[test]
    fn chunked_reading_covers_everything_in_order() {
        let text = sample_csv();
        let mut reader = StreamingCsvReader::new(text.as_bytes()).unwrap();
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        loop {
            let n = reader.read_chunk(3, &mut chunk).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 3);
            all.append(&mut chunk);
        }
        assert_eq!(reader.observations_read(), 4);
        let reference = parse_csv(&text).unwrap();
        assert_eq!(all, reference.observations().to_vec());
    }

    #[test]
    fn iterator_yields_each_observation() {
        let text = sample_csv();
        let reader = StreamingCsvReader::new(text.as_bytes()).unwrap();
        let observations: Result<Vec<_>, _> = reader.collect();
        assert_eq!(observations.unwrap().len(), 4);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(
            StreamingCsvReader::new("".as_bytes()),
            Err(TraceError::EmptyTrace)
        ));
        // Whitespace-only input has no header either.
        assert!(matches!(
            StreamingCsvReader::new("\n\n  \n".as_bytes()),
            Err(TraceError::EmptyTrace)
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut reader = StreamingCsvReader::new("x:int\n1\noops\n".as_bytes()).unwrap();
        assert!(reader.next_observation().unwrap().is_some());
        match reader.next_observation() {
            Err(TraceError::Parse { line: 3, .. }) => {}
            other => panic!("expected Parse on line 3, got {other:?}"),
        }
    }

    #[test]
    fn unclosed_quote_is_capped_not_slurped() {
        // A corrupt row whose quote never closes must fail promptly instead
        // of joining the remainder of the (possibly huge) stream into one
        // record.
        let mut text = String::from("op:event\n\"open\n");
        text.push_str(&"filler line\n".repeat(200_000)); // > 1 MiB of tail
        let mut reader = StreamingCsvReader::new(text.as_bytes()).unwrap();
        match reader.next_observation() {
            Err(TraceError::Parse { message, .. }) => {
                assert!(message.contains("unclosed quote"), "{message}")
            }
            other => panic!("expected a capped parse error, got {other:?}"),
        }
    }

    #[test]
    fn record_decoder_decodes_and_interns() {
        let mut decoder = CsvRecordDecoder::from_header("op:event,x:int").unwrap();
        let a = decoder.decode("read,1", 2).unwrap();
        let b = decoder.decode("write,2", 3).unwrap();
        let c = decoder.decode("read,3", 4).unwrap();
        assert_eq!(a.arity(), 2);
        // "read" recurs and must reuse its id.
        assert_eq!(decoder.symbols().len(), 2);
        assert_eq!(a.values()[0], c.values()[0]);
        assert_ne!(a.values()[0], b.values()[0]);
        let (signature, symbols) = decoder.into_parts();
        assert_eq!(signature.arity(), 2);
        assert_eq!(symbols.lookup("write").map(|s| s.index()), Some(1));
    }

    #[test]
    fn record_decoder_reports_malformed_records() {
        let mut decoder = CsvRecordDecoder::from_header("op:event,x:int").unwrap();
        match decoder.decode("read", 7) {
            Err(TraceError::Parse { line: 7, message }) => {
                assert!(message.contains("expected 2 fields"), "{message}")
            }
            other => panic!("expected a field-count error, got {other:?}"),
        }
        assert!(matches!(
            decoder.decode("read,notanint", 8),
            Err(TraceError::Parse { line: 8, .. })
        ));
        assert!(matches!(
            decoder.decode("\"open,1", 9),
            Err(TraceError::Parse { line: 9, .. })
        ));
        assert!(CsvRecordDecoder::from_header("op:notakind").is_err());
    }

    /// Reads `input` to its end or first error through a `BufReader` of
    /// `capacity` bytes, by value (`by_id == false`) or by id mapped back
    /// through `distinct_observations`.
    fn read_all(
        input: &[u8],
        capacity: usize,
        by_id: bool,
    ) -> (Vec<Valuation>, Option<TraceError>, SymbolTable) {
        let source = std::io::BufReader::with_capacity(capacity, input);
        let mut reader = StreamingCsvReader::new(source).unwrap();
        let mut observations = Vec::new();
        let error = loop {
            let next = if by_id {
                reader
                    .next_observation_id()
                    .map(|id| id.map(|id| reader.distinct_observations()[id as usize].clone()))
            } else {
                reader.next_observation()
            };
            match next {
                Ok(Some(observation)) => observations.push(observation),
                Ok(None) => break None,
                Err(error) => break Some(error),
            }
        };
        assert_eq!(reader.observations_read(), observations.len());
        let (_, symbols) = reader.into_parts();
        (observations, error, symbols)
    }

    #[test]
    fn ids_reproduce_decoded_observations_and_symbols() {
        // Records with equal values spelt differently (`1`, `01`, ` 1`,
        // quoted and unquoted names), quoted fields with commas, escaped
        // quotes and embedded newlines, CRLF line ends and blank lines.
        let body = "read,1,true\nread,01,true\n read , 1 ,true\n\"read\",1,true\n\n   \n\
                    \"wr\nite\",2,false\r\nwrite,2,false\r\n\r\n\"a,b\",3,true\n\
                    \"say \"\"hi\"\"\",-4,false\nread,1,true\nwrite,2,false";
        let mut valid = String::from("op:event,x:int,b:bool\r\n\n");
        for _ in 0..4 {
            valid.push_str(body);
            valid.push('\n');
        }
        let after_hits = format!("{valid}read,1,true\nread,x,true\nread,1,true\n");
        let unclosed = format!("{valid}\"open,1,true\nread,1,true\n");
        let short_row = format!("{valid}read,1\n");
        let no_last_line_end = format!("{valid}\"say \"\"hi\"\"\",-4,false\nread,1,true");
        let mut not_utf8 = valid.clone().into_bytes();
        not_utf8.extend_from_slice(b"read,1,true\nre\xffad,1,true\nread,1,true\n");
        for input in [
            valid.as_bytes(),
            after_hits.as_bytes(),
            unclosed.as_bytes(),
            short_row.as_bytes(),
            no_last_line_end.as_bytes(),
            &not_utf8,
        ] {
            // Small buffers make lines straddle the buffer's end.
            for capacity in [1, 3, 7, 16, 64, 8192] {
                let by_value = read_all(input, capacity, false);
                let by_id = read_all(input, capacity, true);
                assert_eq!(by_value, by_id, "capacity {capacity}");
            }
        }
        let (observations, error, _) = read_all(valid.as_bytes(), 5, false);
        assert_eq!(error, None);
        assert_eq!(observations.len(), 4 * 10);
        // `1`, `01`, ` 1` and a quoted name are one observation.
        let mut reader = StreamingCsvReader::new(valid.as_bytes()).unwrap();
        let mut ids = Vec::new();
        reader.read_chunk_ids(4, &mut ids).unwrap();
        assert_eq!(ids, [0, 0, 0, 0]);
        while reader.read_chunk_ids(3, &mut ids).unwrap() > 0 {}
        assert_eq!(reader.distinct_observations().len(), 5);

        let errors: Vec<Option<TraceError>> = [&after_hits, &unclosed, &short_row]
            .iter()
            .map(|input| read_all(input.as_bytes(), 8192, true).1)
            .chain([read_all(&not_utf8, 8192, true).1])
            .collect();
        let line = valid.lines().count();
        assert!(
            matches!(&errors[0], Some(TraceError::Parse { line: l, message }) if *l == line + 2 && message.contains("not an integer")),
            "{errors:?}"
        );
        assert!(
            matches!(&errors[1], Some(TraceError::Parse { .. })),
            "{errors:?}"
        );
        assert!(
            matches!(&errors[2], Some(TraceError::Parse { line: l, .. }) if *l == line + 1),
            "{errors:?}"
        );
        assert_eq!(
            errors[3],
            Some(TraceError::Parse {
                line: line + 2,
                message: "record is not valid UTF-8".to_owned(),
            })
        );
    }

    #[test]
    fn blank_records_are_those_str_trim_empties() {
        for text in [
            "",
            " ",
            "\t\u{b}\u{c}\r",
            "\u{a0}",
            "\u{3000} \u{2028}",
            "\u{85}",
            "\u{1c}",
            "x",
            " x",
            "\u{a0}x",
            "\u{3000}\u{e9}",
        ] {
            assert_eq!(
                is_blank(text.as_bytes()),
                text.trim().is_empty(),
                "{text:?}"
            );
        }
        assert!(!is_blank(b" \xff"));
    }

    #[test]
    fn symbols_accumulate_across_chunks() {
        let text = sample_csv();
        let mut reader = StreamingCsvReader::new(text.as_bytes()).unwrap();
        let mut chunk = Vec::new();
        reader.read_chunk(2, &mut chunk).unwrap();
        let after_first = reader.symbols().len();
        reader.read_chunk(2, &mut chunk).unwrap();
        // "read" recurs in the second chunk and must reuse its id.
        assert_eq!(reader.symbols().len(), 3);
        assert!(after_first <= 3);
        let (signature, symbols) = reader.into_parts();
        assert_eq!(signature.arity(), 2);
        assert_eq!(symbols.lookup("write,all").map(|s| s.index()), Some(1));
    }
}
