//! Minimal FASTA reading and writing.
//!
//! The evaluation datasets are synthetic, but a downstream user will want to
//! run ASMCap on real references and reads, so the crate ships a small,
//! dependency-free FASTA codec. Records with ambiguity codes (`N`, …) are
//! rejected rather than silently mangled; callers that need to tolerate them
//! can pre-filter with [`sanitize`].

use crate::base::Base;
use crate::seq::DnaSeq;
use std::fmt;
use std::io::{self, BufRead, Write};

/// One FASTA record: a header line (without `>`) and its sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text following `>` (identifier and free-form description).
    pub id: String,
    /// The record's sequence.
    pub seq: DnaSeq,
}

/// Error produced while parsing FASTA input.
#[derive(Debug)]
pub enum ParseFastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Sequence data appeared before any `>` header.
    MissingHeader {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A sequence line contained a byte outside `ACGTacgt`.
    InvalidBase {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for ParseFastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFastaError::Io(e) => write!(f, "i/o error reading fasta: {e}"),
            ParseFastaError::MissingHeader { line } => {
                write!(f, "sequence data before any '>' header at line {line}")
            }
            ParseFastaError::InvalidBase { line, byte } => {
                write!(f, "invalid base byte 0x{byte:02x} at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseFastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFastaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseFastaError {
    fn from(e: io::Error) -> Self {
        ParseFastaError::Io(e)
    }
}

/// Reads all records from FASTA-formatted input.
///
/// A mutable reference to a reader can be passed as well (`&mut r`), since
/// `BufRead` is implemented for mutable references.
///
/// # Errors
///
/// Returns [`ParseFastaError`] on I/O failure, on sequence data appearing
/// before any header, or on bytes outside the `ACGT` alphabet.
///
/// # Examples
///
/// ```
/// let input = b">chr1 test\nACGT\nacgt\n>chr2\nTTTT\n";
/// let records = asmcap_genome::fasta::read_fasta(&input[..])?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].id, "chr1 test");
/// assert_eq!(records[0].seq.to_string(), "ACGTACGT");
/// # Ok::<(), asmcap_genome::fasta::ParseFastaError>(())
/// ```
pub fn read_fasta<R: BufRead>(reader: R) -> Result<Vec<FastaRecord>, ParseFastaError> {
    let mut records = Vec::new();
    let mut current: Option<FastaRecord> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('>') {
            if let Some(done) = current.take() {
                records.push(done);
            }
            current = Some(FastaRecord {
                id: header.trim().to_owned(),
                seq: DnaSeq::new(),
            });
        } else {
            let record = current
                .as_mut()
                .ok_or(ParseFastaError::MissingHeader { line: line_no })?;
            for &byte in trimmed.as_bytes() {
                let base = Base::try_from(byte).map_err(|e| ParseFastaError::InvalidBase {
                    line: line_no,
                    byte: e.byte(),
                })?;
                record.seq.push(base);
            }
        }
    }
    if let Some(done) = current.take() {
        records.push(done);
    }
    Ok(records)
}

/// Error produced while writing FASTA output.
#[derive(Debug)]
pub enum WriteFastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A record id contains a line break (`\n` or `\r`), which would emit a
    /// corrupt stream: `read_fasta` would parse the remainder of the id as
    /// sequence data or as a forged extra record.
    IdWithLineBreak {
        /// The offending id, verbatim.
        id: String,
    },
}

impl fmt::Display for WriteFastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteFastaError::Io(e) => write!(f, "i/o error writing fasta: {e}"),
            WriteFastaError::IdWithLineBreak { id } => {
                write!(f, "record id {id:?} contains a line break")
            }
        }
    }
}

impl std::error::Error for WriteFastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteFastaError::Io(e) => Some(e),
            WriteFastaError::IdWithLineBreak { .. } => None,
        }
    }
}

impl From<io::Error> for WriteFastaError {
    fn from(e: io::Error) -> Self {
        WriteFastaError::Io(e)
    }
}

/// Writes records in FASTA format with `width`-column sequence lines.
///
/// # Errors
///
/// Returns [`WriteFastaError::IdWithLineBreak`] — before anything is
/// written — if any record id contains `\n` or `\r`: such an id would
/// produce a stream that [`read_fasta`] parses back differently (an id of
/// `"evil\n>fake"` reads back as *two* records). I/O failures from the
/// writer are propagated as [`WriteFastaError::Io`].
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn write_fasta<W: Write>(
    mut writer: W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), WriteFastaError> {
    assert!(width > 0, "line width must be positive");
    // Validate every id up front so a bad record cannot leave a partial,
    // corrupt stream behind.
    if let Some(bad) = records
        .iter()
        .find(|r| r.id.contains('\n') || r.id.contains('\r'))
    {
        return Err(WriteFastaError::IdWithLineBreak { id: bad.id.clone() });
    }
    for record in records {
        writeln!(writer, ">{}", record.id)?;
        let rendered = record.seq.to_string();
        for chunk in rendered.as_bytes().chunks(width) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Replaces every byte outside `ACGTacgt` with a deterministic base derived
/// from its position, so real-world references containing `N` runs can still
/// be loaded. Equivalent to [`sanitize_at`] with offset 0 — only correct
/// for a **whole** record; when sanitizing a record line by line, pass each
/// line's running record offset to [`sanitize_at`] instead, or the
/// replacement bases diverge from the whole-record result.
///
/// The replacement cycles `A,C,G,T` by position, which keeps composition
/// roughly uniform without pulling randomness into the parsing path.
///
/// # Examples
///
/// ```
/// let clean = asmcap_genome::fasta::sanitize(b"ACNNGT");
/// assert_eq!(&clean, b"ACGTGT");
/// ```
#[must_use]
pub fn sanitize(bytes: &[u8]) -> Vec<u8> {
    sanitize_at(bytes, 0)
}

/// [`sanitize`] for a slice that starts `offset` bases into its record:
/// replacement bases are derived from the **record** position
/// `offset + i`, not the slice position, so chunked sanitizing (line by
/// line, with a running offset) produces byte-identical output to
/// sanitizing the whole record at once.
///
/// # Examples
///
/// ```
/// use asmcap_genome::fasta::{sanitize, sanitize_at};
/// let record = b"NNACNNGT";
/// let whole = sanitize(record);
/// let mut chunked = sanitize_at(&record[..3], 0);
/// chunked.extend_from_slice(&sanitize_at(&record[3..], 3));
/// assert_eq!(chunked, whole);
/// ```
#[must_use]
pub fn sanitize_at(bytes: &[u8], offset: usize) -> Vec<u8> {
    const CYCLE: [u8; 4] = [b'A', b'C', b'G', b'T'];
    bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            if Base::try_from(b).is_ok() {
                b
            } else {
                CYCLE[(offset + i) % 4]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_writer_and_reader() {
        let records = vec![
            FastaRecord {
                id: "r1 first".to_owned(),
                seq: "ACGTACGTACGT".parse().unwrap(),
            },
            FastaRecord {
                id: "r2".to_owned(),
                seq: "TTTT".parse().unwrap(),
            },
        ];
        let mut buffer = Vec::new();
        write_fasta(&mut buffer, &records, 5).unwrap();
        let parsed = read_fasta(&buffer[..]).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn read_skips_blank_lines_and_joins_wrapped_sequence() {
        let input = b">x\nAC\n\nGT\n";
        let records = read_fasta(&input[..]).unwrap();
        assert_eq!(records[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn read_rejects_headerless_sequence() {
        let err = read_fasta(&b"ACGT\n"[..]).unwrap_err();
        assert!(matches!(err, ParseFastaError::MissingHeader { line: 1 }));
    }

    #[test]
    fn read_rejects_invalid_base_with_position() {
        let err = read_fasta(&b">x\nACNT\n"[..]).unwrap_err();
        match err {
            ParseFastaError::InvalidBase { line, byte } => {
                assert_eq!(line, 2);
                assert_eq!(byte, b'N');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(read_fasta(&b""[..]).unwrap().is_empty());
    }

    #[test]
    fn header_only_record_is_allowed() {
        let records = read_fasta(&b">empty\n"[..]).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].seq.is_empty());
    }

    #[test]
    fn sanitize_preserves_valid_bases() {
        let input = b"ACGTNRYacgt";
        let clean = sanitize(input);
        assert_eq!(clean.len(), input.len());
        assert!(
            read_fasta(format!(">s\n{}\n", String::from_utf8(clean).unwrap()).as_bytes()).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "line width")]
    fn zero_width_panics() {
        let _ = write_fasta(Vec::new(), &[], 0);
    }

    /// Regression: an id with an embedded newline used to emit a corrupt
    /// stream that read back as *two* records. It is now a typed error and
    /// nothing is written at all.
    #[test]
    fn write_rejects_ids_with_line_breaks() {
        for evil in ["evil\n>fake", "evil\rfake", "evil\r\n>fake"] {
            let records = vec![
                FastaRecord {
                    id: "good".to_owned(),
                    seq: "ACGT".parse().unwrap(),
                },
                FastaRecord {
                    id: evil.to_owned(),
                    seq: "TTTT".parse().unwrap(),
                },
            ];
            let mut buffer = Vec::new();
            let err = write_fasta(&mut buffer, &records, 60).unwrap_err();
            match err {
                WriteFastaError::IdWithLineBreak { id } => assert_eq!(id, evil),
                other => panic!("unexpected error {other:?}"),
            }
            assert!(buffer.is_empty(), "nothing may be written on a bad id");
        }
        // The clean subset still roundtrips.
        let clean = vec![FastaRecord {
            id: "good".to_owned(),
            seq: "ACGT".parse().unwrap(),
        }];
        let mut buffer = Vec::new();
        write_fasta(&mut buffer, &clean, 60).unwrap();
        assert_eq!(read_fasta(&buffer[..]).unwrap(), clean);
    }

    /// Regression: `sanitize` derived replacements from the slice offset,
    /// so line-by-line sanitizing diverged from whole-record sanitizing.
    /// `sanitize_at` with a running offset closes the gap.
    #[test]
    fn chunked_sanitize_at_matches_whole_record() {
        let record = b"NNACGNNTNNNNACGTNN";
        let whole = sanitize(record);
        for split in 0..record.len() {
            let mut chunked = sanitize_at(&record[..split], 0);
            chunked.extend_from_slice(&sanitize_at(&record[split..], split));
            assert_eq!(chunked, whole, "diverged at split {split}");
        }
        // The old bug, pinned: plain `sanitize` per chunk is NOT equivalent
        // unless the chunk starts at a multiple of the cycle length.
        let mut naive = sanitize(&record[..3]);
        naive.extend_from_slice(&sanitize(&record[3..]));
        assert_ne!(
            naive, whole,
            "offset-less chunking must stay observably wrong"
        );
    }
}
