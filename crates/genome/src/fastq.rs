//! Minimal FASTQ reading and writing.
//!
//! Sequencers emit FASTQ (sequence + per-base Phred qualities), so a
//! downstream user feeding real reads into the accelerator needs this
//! alongside [`crate::fasta`]. The parser is strict: four lines per record,
//! `ACGT` alphabet, quality string as long as the sequence.

use crate::base::Base;
use crate::seq::DnaSeq;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Phred+33 quality offset used by modern FASTQ.
const PHRED_OFFSET: u8 = 33;

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Identifier following `@` (may contain a description).
    pub id: String,
    /// The read bases.
    pub seq: DnaSeq,
    /// Phred quality scores, one per base (already offset-decoded).
    pub quals: Vec<u8>,
}

impl FastqRecord {
    /// Mean per-base error probability implied by the Phred scores
    /// (`P = 10^(-Q/10)`), or 0 for an empty record.
    #[must_use]
    pub fn mean_error_probability(&self) -> f64 {
        if self.quals.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .quals
            .iter()
            .map(|&q| 10f64.powf(-f64::from(q) / 10.0))
            .sum();
        total / self.quals.len() as f64
    }
}

/// Error produced while parsing FASTQ input.
#[derive(Debug)]
pub enum ParseFastqError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A record did not follow the `@`/seq/`+`/qual structure.
    Structure {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: &'static str,
    },
    /// A sequence byte outside `ACGTacgt`.
    InvalidBase {
        /// 1-based line number.
        line: usize,
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for ParseFastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFastqError::Io(e) => write!(f, "i/o error reading fastq: {e}"),
            ParseFastqError::Structure { line, message } => {
                write!(f, "malformed fastq at line {line}: {message}")
            }
            ParseFastqError::InvalidBase { line, byte } => {
                write!(f, "invalid base byte 0x{byte:02x} at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseFastqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFastqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseFastqError {
    fn from(e: io::Error) -> Self {
        ParseFastqError::Io(e)
    }
}

/// Reads all records from FASTQ input.
///
/// # Errors
///
/// Returns [`ParseFastqError`] on I/O failure, structural violations, bases
/// outside `ACGT`, or quality strings of the wrong length.
///
/// # Examples
///
/// ```
/// let input = b"@r1\nACGT\n+\nIIII\n";
/// let records = asmcap_genome::fastq::read_fastq(&input[..])?;
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].seq.to_string(), "ACGT");
/// assert_eq!(records[0].quals, vec![40; 4]); // 'I' = Q40
/// # Ok::<(), asmcap_genome::fastq::ParseFastqError>(())
/// ```
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<FastqRecord>, ParseFastqError> {
    let mut records = Vec::new();
    let mut lines = reader.lines().enumerate();
    while let Some((idx, header)) = lines.next() {
        let header = header?;
        let line_no = idx + 1;
        if header.trim().is_empty() {
            continue;
        }
        let id = header
            .strip_prefix('@')
            .ok_or(ParseFastqError::Structure {
                line: line_no,
                message: "expected '@' header",
            })?
            .trim()
            .to_owned();
        let (seq_idx, seq_line) = lines.next().ok_or(ParseFastqError::Structure {
            line: line_no,
            message: "missing sequence line",
        })?;
        let seq_line = seq_line?;
        let mut seq = DnaSeq::with_capacity(seq_line.len());
        for &byte in seq_line.trim_end().as_bytes() {
            let base = Base::try_from(byte).map_err(|e| ParseFastqError::InvalidBase {
                line: seq_idx + 1,
                byte: e.byte(),
            })?;
            seq.push(base);
        }
        let (plus_idx, plus_line) = lines.next().ok_or(ParseFastqError::Structure {
            line: seq_idx + 1,
            message: "missing '+' separator",
        })?;
        if !plus_line?.starts_with('+') {
            return Err(ParseFastqError::Structure {
                line: plus_idx + 1,
                message: "expected '+' separator",
            });
        }
        let (qual_idx, qual_line) = lines.next().ok_or(ParseFastqError::Structure {
            line: plus_idx + 1,
            message: "missing quality line",
        })?;
        let qual_line = qual_line?;
        let quals: Vec<u8> = qual_line
            .trim_end()
            .bytes()
            .map(|b| b.saturating_sub(PHRED_OFFSET))
            .collect();
        if quals.len() != seq.len() {
            return Err(ParseFastqError::Structure {
                line: qual_idx + 1,
                message: "quality length differs from sequence length",
            });
        }
        records.push(FastqRecord { id, seq, quals });
    }
    Ok(records)
}

/// Writes records in FASTQ format (Phred+33).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if a record's quality length differs from its sequence length or
/// a quality exceeds 93 (the Phred+33 printable range).
pub fn write_fastq<W: Write>(mut writer: W, records: &[FastqRecord]) -> io::Result<()> {
    for record in records {
        assert_eq!(
            record.quals.len(),
            record.seq.len(),
            "quality length must equal sequence length"
        );
        writeln!(writer, "@{}", record.id)?;
        writeln!(writer, "{}", record.seq)?;
        writeln!(writer, "+")?;
        let encoded: Vec<u8> = record
            .quals
            .iter()
            .map(|&q| {
                assert!(q <= 93, "quality {q} outside Phred+33 printable range");
                q + PHRED_OFFSET
            })
            .collect();
        writer.write_all(&encoded)?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let records = vec![FastqRecord {
            id: "read1 sample".to_owned(),
            seq: "ACGTACGT".parse().unwrap(),
            quals: vec![30, 32, 40, 40, 12, 2, 38, 41],
        }];
        let mut buffer = Vec::new();
        write_fastq(&mut buffer, &records).unwrap();
        let parsed = read_fastq(&buffer[..]).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn rejects_quality_length_mismatch() {
        let err = read_fastq(&b"@x\nACGT\n+\nII\n"[..]).unwrap_err();
        assert!(matches!(err, ParseFastqError::Structure { line: 4, .. }));
    }

    #[test]
    fn rejects_missing_plus() {
        let err = read_fastq(&b"@x\nACGT\nIIII\nIIII\n"[..]).unwrap_err();
        assert!(matches!(
            err,
            ParseFastqError::Structure {
                message: "expected '+' separator",
                ..
            }
        ));
    }

    #[test]
    fn rejects_invalid_base_with_line() {
        let err = read_fastq(&b"@x\nACNT\n+\nIIII\n"[..]).unwrap_err();
        match err {
            ParseFastqError::InvalidBase { line, byte } => {
                assert_eq!(line, 2);
                assert_eq!(byte, b'N');
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mean_error_probability_tracks_quality() {
        let good = FastqRecord {
            id: "good".into(),
            seq: "ACGT".parse().unwrap(),
            quals: vec![40; 4], // 1e-4 each
        };
        let bad = FastqRecord {
            id: "bad".into(),
            seq: "ACGT".parse().unwrap(),
            quals: vec![10; 4], // 1e-1 each
        };
        assert!((good.mean_error_probability() - 1e-4).abs() < 1e-9);
        assert!((bad.mean_error_probability() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn blank_lines_between_records_are_tolerated() {
        let records = read_fastq(&b"@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n"[..]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].id, "b");
    }
}
