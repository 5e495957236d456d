//! Streaming CSV ingestion: reading traces that do not fit in memory.
//!
//! [`StreamingCsvReader`] wraps any [`BufRead`] source and yields
//! observations (or observation chunks) one at a time, interning event names
//! into a growing [`SymbolTable`] as it goes. It shares the quoting tokenizer
//! of [`parse_csv`](crate::parse_csv) — the two paths accept exactly the same
//! inputs — but never materialises more than the current record, which is
//! what makes multi-million-row traces ingestible: the learner's streaming
//! entry point keeps only a bounded window of observations plus the (small)
//! set of unique segments resident.
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

use crate::csv::{parse_header, split_record, RecordScanner};
use crate::error::TraceError;
use crate::signature::{Signature, VarKind};
use crate::symbol::SymbolTable;
use crate::trace::Trace;
use crate::valuation::Valuation;
use crate::value::Value;
use std::io::{BufRead, Read};

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
/// The header is parsed on construction; each call to
/// [`next_observation`](StreamingCsvReader::next_observation) (or the
/// [`Iterator`] implementation) consumes exactly one record. Event names are
/// interned into the reader's own [`SymbolTable`], so all observations of
/// one stream share consistent [`Value::Sym`] ids.
#[derive(Debug)]
pub struct StreamingCsvReader<R> {
    reader: R,
    decoder: CsvRecordDecoder,
    /// One-based number of the last input line consumed.
    line: usize,
    /// Scratch buffer holding the current (possibly multi-line) record.
    record: String,
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
        let mut this = StreamingCsvReader {
            reader,
            decoder: CsvRecordDecoder::new(Signature::default()),
            line: 0,
            record: String::new(),
            observations_read: 0,
        };
        if !this.next_record()? {
            return Err(TraceError::EmptyTrace);
        }
        this.decoder = CsvRecordDecoder::from_header(&this.record)?;
        Ok(this)
    }

    /// The signature parsed from the header.
    pub fn signature(&self) -> &Signature {
        self.decoder.signature()
    }

    /// The event names interned so far.
    pub fn symbols(&self) -> &SymbolTable {
        self.decoder.symbols()
    }

    /// Number of observations yielded so far.
    pub fn observations_read(&self) -> usize {
        self.observations_read
    }

    /// Consumes the reader, returning the signature and the symbol table
    /// accumulated while reading.
    pub fn into_parts(self) -> (Signature, SymbolTable) {
        self.decoder.into_parts()
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
        let read = limited.read_line(&mut self.record)?;
        let complete = scanner.feed(&self.record.as_bytes()[start..]);
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

    /// Reads the next non-blank record into `self.record`, joining lines
    /// while a quoted field is open. Returns `false` at end of input.
    fn next_record(&mut self) -> Result<bool, TraceError> {
        loop {
            self.record.clear();
            let mut scanner = RecordScanner::default();
            let (read, mut complete) = self.read_line_capped(&mut scanner)?;
            if read == 0 {
                return Ok(false);
            }
            self.line += 1;
            // A record continues onto following lines while a quoted field
            // is still open (an embedded newline inside the field). The
            // scanner carries its state across lines, so each byte is
            // scanned once however many lines the record joins.
            while !complete {
                let (more, now_complete) = self.read_line_capped(&mut scanner)?;
                if more == 0 {
                    break; // unterminated quote; the tokenizer reports it
                }
                complete = now_complete;
                self.line += 1;
            }
            while self.record.ends_with('\n') || self.record.ends_with('\r') {
                self.record.pop();
            }
            if self.record.trim().is_empty() {
                continue;
            }
            #[cfg(feature = "fault-injection")]
            if !self.inject_record_faults() {
                return Ok(false);
            }
            return Ok(true);
        }
    }

    /// Applies any armed ingestion faults to the record just read. Returns
    /// `false` when an injected short read ends the stream here.
    #[cfg(feature = "fault-injection")]
    fn inject_record_faults(&mut self) -> bool {
        use tracelearn_faults::{trip, trip_value, FaultSite};

        fn char_floor(s: &str, mut at: usize) -> usize {
            while at > 0 && !s.is_char_boundary(at) {
                at -= 1;
            }
            at
        }

        if trip(FaultSite::CsvShortRead) {
            // The stream ends early, as if the producer was cut off after a
            // complete record.
            return false;
        }
        if let Some(value) = trip_value(FaultSite::CsvTornRecord) {
            if !self.record.is_empty() {
                let cut = char_floor(&self.record, value as usize % self.record.len());
                self.record.truncate(cut);
            }
        }
        if let Some(value) = trip_value(FaultSite::CsvCorruptByte) {
            if !self.record.is_empty() {
                let at = char_floor(&self.record, value as usize % self.record.len());
                if let Some(ch) = self.record[at..].chars().next() {
                    // U+001A SUBSTITUTE: the classic "this byte was lost"
                    // marker; parses as neither a number nor a clean name.
                    self.record.replace_range(at..at + ch.len_utf8(), "\u{1A}");
                }
            }
        }
        true
    }

    /// Reads the next observation, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] (with the line number of the record's
    /// last line) for malformed rows and [`TraceError::Io`] for source
    /// failures.
    pub fn next_observation(&mut self) -> Result<Option<Valuation>, TraceError> {
        if !self.next_record()? {
            return Ok(None);
        }
        let observation = self.decoder.decode(&self.record, self.line)?;
        self.observations_read += 1;
        Ok(Some(observation))
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
