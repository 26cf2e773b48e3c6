//! The durable evidence log: an append-only sequence of checksummed
//! [`TrustEvent`] frames.
//!
//! Snapshots capture a model at one instant; the log captures the
//! *stream* — every event a trust service accepted, stamped with the
//! issuing peer and the issuer's sequence number. A crashed service
//! restores the last snapshot and replays the log tail; a service that
//! receives gossip twice (retries, overlapping relays) relies on the
//! `(issuer, seq)` dedup of [`EvidenceLog::replay`] to fold each record
//! exactly once.
//!
//! ## Format
//!
//! ```text
//! log   := magic "TXEL" version:u16 frame*
//! frame := payload_len:u32 payload[payload_len] crc32c:u32
//! payload := issuer:u32 seq:u64 event
//! ```
//!
//! Each frame carries its own CRC-32C, so a crash-truncated tail or a
//! bit-flipped frame surfaces as a typed [`PersistError`] on replay —
//! never a panic, never a silently-wrong model.
//!
//! ## Replay
//!
//! [`EvidenceLog::replay`] reads the log twice. The first pass checks
//! every frame in full and collects one `u128` key per frame:
//! `issuer << 96 | seq << 32 | frame index`. Sorting the keys puts all
//! frames of one `(issuer, seq)` next to each other, earliest first, so
//! every later one is marked a duplicate. The second pass decodes the
//! unmarked frames in log order. Keys read from disk never reach a hash
//! table: dedup costs O(n log n) on any input, adversarial logs
//! included. [`EvidenceLog::open`] runs the first pass only, to verify
//! and count the frames.
//!
//! ```
//! use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
//! use trustex_trust::prelude::*;
//!
//! let mut log = EvidenceLog::new();
//! let record = EvidenceRecord {
//!     issuer: PeerId(7),
//!     seq: 0,
//!     event: TrustEvent::direct(PeerId(3), Conduct::Dishonest, 1),
//! };
//! log.append(&record);
//! log.append(&record); // a gossip duplicate
//! let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
//! assert_eq!(replay.records.len(), 1);
//! assert_eq!(replay.duplicates, 1);
//! ```

use crate::engine::TrustEvent;
use crate::model::PeerId;
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::{crc32c, PersistError, FORMAT_VERSION};

/// Magic identifying an evidence log.
pub const LOG_MAGIC: [u8; 4] = *b"TXEL";

/// The log header: magic and format version.
const HEADER_LEN: usize = 4 + 2;

/// The smallest frame: length, a direct-event payload (issuer 4 + seq 8
/// + event 14) and the CRC.
const MIN_FRAME_LEN: usize = 4 + 26 + 4;

/// One logged event: who issued it, the issuer's sequence number (the
/// dedup key together with the issuer) and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// The peer that issued (submitted) the event.
    pub issuer: PeerId,
    /// The issuer's monotone sequence number for this event.
    pub seq: u64,
    /// The event payload.
    pub event: TrustEvent,
}

/// The result of replaying a log: the surviving records in append order
/// and how many duplicate frames were folded away.
#[derive(Debug, Clone)]
pub struct LogReplay {
    /// Deduplicated records, first occurrence wins, in log order.
    pub records: Vec<EvidenceRecord>,
    /// Frames dropped because their `(issuer, seq)` was already seen.
    pub duplicates: usize,
}

/// An append-only, checksummed event log (see the module docs for the
/// wire format).
#[derive(Debug, Clone)]
pub struct EvidenceLog {
    buf: ByteWriter,
    appended: usize,
}

impl Default for EvidenceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EvidenceLog {
    /// Starts an empty log (header only).
    pub fn new() -> EvidenceLog {
        let mut buf = ByteWriter::new();
        buf.put_bytes(&LOG_MAGIC);
        buf.put_u16(FORMAT_VERSION);
        EvidenceLog { buf, appended: 0 }
    }

    /// Re-opens an existing log for further appends, verifying every
    /// frame first — appending after a truncated tail would bury the
    /// corruption. This is replay's first pass without the keys: every
    /// frame is checked, its event included, but no record is kept and
    /// nothing is deduplicated, so [`frames`] counts duplicates too.
    ///
    /// [`frames`]: EvidenceLog::frames
    pub fn open(bytes: Vec<u8>) -> Result<EvidenceLog, PersistError> {
        let appended = walk_frames(log_body(&bytes)?, |frame| frame.event().map(drop))?;
        Ok(EvidenceLog {
            buf: ByteWriter::from(bytes),
            appended,
        })
    }

    /// Appends one record as a checksummed frame, written in place: the
    /// length is reserved, the payload encoded after it, then the length
    /// patched and the CRC-32C taken over the payload just written.
    pub fn append(&mut self, record: &EvidenceRecord) {
        let len_at = self.buf.len();
        self.buf.put_u32(0);
        let start = self.buf.len();
        self.buf.put_u32(record.issuer.0);
        self.buf.put_u64(record.seq);
        record.event.encode_into(&mut self.buf);
        let end = self.buf.len();
        self.buf.patch_u32(len_at, (end - start) as u32);
        let crc = crc32c(&self.buf.as_bytes()[start..end]);
        self.buf.put_u32(crc);
        self.appended += 1;
    }

    /// Frames appended so far (including any the log was opened with).
    pub fn frames(&self) -> usize {
        self.appended
    }

    /// The serialized log.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.as_bytes()
    }

    /// Consumes the log, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_bytes()
    }

    /// Verifies and replays a serialized log: every frame's CRC and
    /// event are checked, then records are deduplicated on
    /// `(issuer, seq)` with the first occurrence winning. Any truncation
    /// or corruption — including a partial final frame from a crash
    /// mid-append — is a typed error, the one the first bad frame
    /// raises. A log of more than 2³² frames is `Malformed`.
    ///
    /// Two passes: the first checks every frame and sorts one packed
    /// `(issuer, seq, frame index)` key per frame, which marks every
    /// frame after the first of its key a duplicate; the second decodes
    /// the unmarked frames in log order. The sort costs O(n log n) on
    /// any input.
    pub fn replay(bytes: &[u8]) -> Result<LogReplay, PersistError> {
        let body = log_body(bytes)?;
        // Sized from the input, as `take_len` bounds a length prefix: no
        // log holds more frames than its bytes over the smallest frame.
        let mut keys: Vec<u128> = Vec::with_capacity(body.len() / MIN_FRAME_LEN);
        let frames = walk_frames(body, |frame| {
            let key = u128::from(frame.issuer) << 96
                | u128::from(frame.seq) << 32
                | u128::from(frame.index);
            frame.event()?;
            keys.push(key);
            Ok(())
        })?;
        // Sorted, the frames of one (issuer, seq) are adjacent, earliest
        // first; each later one is a duplicate.
        keys.sort_unstable();
        let mut duplicate = vec![false; frames];
        let mut duplicates = 0;
        for pair in keys.windows(2) {
            if pair[0] >> 32 == pair[1] >> 32 {
                duplicate[pair[1] as u32 as usize] = true;
                duplicates += 1;
            }
        }
        drop(keys);
        let mut records = Vec::with_capacity(frames - duplicates);
        walk_frames(body, |frame| {
            if !duplicate[frame.index as usize] {
                records.push(EvidenceRecord {
                    issuer: PeerId(frame.issuer),
                    seq: frame.seq,
                    event: frame.event()?,
                });
            }
            Ok(())
        })?;
        Ok(LogReplay {
            records,
            duplicates,
        })
    }
}

/// Checks the log header and returns the frames after it.
fn log_body(bytes: &[u8]) -> Result<&[u8], PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take_tag("log magic")?;
    if magic != LOG_MAGIC {
        return Err(PersistError::BadMagic {
            expected: LOG_MAGIC,
            found: magic,
        });
    }
    let version = r.take_u16()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(&bytes[HEADER_LEN..])
}

/// One frame whose length, CRC-32C, issuer and seq are checked; its
/// event is still undecoded.
struct Frame<'a> {
    /// Position of the frame in the log, from 0.
    index: u32,
    issuer: u32,
    seq: u64,
    /// The payload after the issuer and seq.
    rest: ByteReader<'a>,
}

impl Frame<'_> {
    /// Decodes the event and checks that it ends the payload.
    fn event(mut self) -> Result<TrustEvent, PersistError> {
        let event = TrustEvent::decode_from(&mut self.rest)?;
        self.rest.finish()?;
        Ok(event)
    }
}

/// Walks the frames of a log body in order — the one place a frame is
/// parsed. Each frame's length, CRC-32C, issuer and seq are checked
/// before `visit` sees it; `visit` decodes the event where it needs it.
/// Returns the number of frames.
fn walk_frames<'a>(
    body: &'a [u8],
    mut visit: impl FnMut(Frame<'a>) -> Result<(), PersistError>,
) -> Result<usize, PersistError> {
    let mut r = ByteReader::new(body);
    let mut frames = 0usize;
    while !r.is_exhausted() {
        let index = u32::try_from(frames).map_err(|_| PersistError::Malformed {
            context: "evidence log holds more than 2^32 frames",
        })?;
        let len = r.take_u32()? as usize;
        if len + 4 > r.remaining() {
            return Err(PersistError::Truncated {
                context: "evidence-log frame",
            });
        }
        let payload = r.take_bytes(len, "evidence-log payload")?;
        let stored_crc = r.take_u32()?;
        if crc32c(payload) != stored_crc {
            return Err(PersistError::CrcMismatch { section: LOG_MAGIC });
        }
        let mut rest = ByteReader::new(payload);
        let issuer = rest.take_u32()?;
        let seq = rest.take_u64()?;
        visit(Frame {
            index,
            issuer,
            seq,
            rest,
        })?;
        frames += 1;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Conduct, WitnessReport};

    fn sample_records() -> Vec<EvidenceRecord> {
        (0..10)
            .map(|i| EvidenceRecord {
                issuer: PeerId(i % 3),
                seq: (i / 3) as u64,
                event: if i % 2 == 0 {
                    TrustEvent::direct(PeerId(i + 1), Conduct::from_honest(i % 4 == 0), i as u64)
                } else {
                    TrustEvent::Witness(WitnessReport {
                        witness: PeerId(i),
                        subject: PeerId(i + 2),
                        conduct: Conduct::Dishonest,
                        round: i as u64,
                    })
                },
            })
            .collect()
    }

    #[test]
    fn append_replay_round_trip() {
        let records = sample_records();
        let mut log = EvidenceLog::new();
        for rec in &records {
            log.append(rec);
        }
        assert_eq!(log.frames(), records.len());
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.duplicates, 0);
    }

    #[test]
    fn smallest_frame_is_a_direct_event() {
        let mut log = EvidenceLog::new();
        log.append(&EvidenceRecord {
            issuer: PeerId(1),
            seq: 0,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 0),
        });
        assert_eq!(log.as_bytes().len(), 4 + 2 + MIN_FRAME_LEN);
    }

    #[test]
    fn duplicates_fold_first_wins() {
        let mut log = EvidenceLog::new();
        let first = EvidenceRecord {
            issuer: PeerId(1),
            seq: 5,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 0),
        };
        // Same (issuer, seq), different payload: a retry that raced a
        // mutation. First occurrence wins.
        let retry = EvidenceRecord {
            event: TrustEvent::direct(PeerId(2), Conduct::Dishonest, 0),
            ..first
        };
        let other_issuer = EvidenceRecord {
            issuer: PeerId(2),
            ..first
        };
        log.append(&first);
        log.append(&retry);
        log.append(&other_issuer);
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        assert_eq!(replay.records, vec![first, other_issuer]);
        assert_eq!(replay.duplicates, 1);
    }

    #[test]
    fn truncated_tail_is_detected_at_every_cut() {
        let mut log = EvidenceLog::new();
        for rec in &sample_records() {
            log.append(rec);
        }
        let bytes = log.as_bytes();
        let header = 6; // magic + version
        for cut in header..bytes.len() {
            // A cut can land exactly on a frame boundary — then the log
            // simply has fewer complete frames and replays cleanly; any
            // other cut must be a typed error.
            match EvidenceLog::replay(&bytes[..cut]) {
                Ok(replay) => assert!(
                    replay.records.len() < 10,
                    "cut at {cut} cannot preserve all frames"
                ),
                Err(
                    PersistError::Truncated { .. }
                    | PersistError::CrcMismatch { .. }
                    | PersistError::Malformed { .. },
                ) => {}
                Err(other) => panic!("unexpected error class at cut {cut}: {other:?}"),
            }
        }
        // Cutting into the header is always an error.
        for cut in 0..header {
            assert!(EvidenceLog::replay(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut log = EvidenceLog::new();
        for rec in &sample_records() {
            log.append(rec);
        }
        let bytes = log.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                EvidenceLog::replay(&corrupt).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn open_validates_before_appending() {
        let mut log = EvidenceLog::new();
        let records = sample_records();
        for rec in &records[..5] {
            log.append(rec);
        }
        // Two gossip re-sends: `open` counts frames, duplicates included.
        log.append(&records[1]);
        log.append(&records[3]);
        let mut reopened = EvidenceLog::open(log.into_bytes()).unwrap();
        assert_eq!(reopened.frames(), 7);
        for rec in &records[5..] {
            reopened.append(rec);
        }
        reopened.append(&records[0]);
        assert_eq!(reopened.frames(), 13);
        let replay = EvidenceLog::replay(reopened.as_bytes()).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.duplicates, 3);
        // A corrupt log refuses to open.
        let mut bad = reopened.into_bytes();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(EvidenceLog::open(bad).is_err());
    }

    /// Every frame repeats one `(issuer, seq)`, and the last one carries
    /// conduct byte 7 under a valid CRC. Dedup alone would drop that
    /// frame unread, so only the first pass's event decode can catch it.
    #[test]
    fn undecodable_duplicate_is_malformed() {
        let record = EvidenceRecord {
            issuer: PeerId(4),
            seq: 9,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 1),
        };
        let mut log = EvidenceLog::new();
        for _ in 0..4 {
            log.append(&record);
        }
        let mut bytes = log.into_bytes();
        let payload_at = bytes.len() - MIN_FRAME_LEN + 4;
        let payload_end = bytes.len() - 4;
        // Payload: issuer 4, seq 8, variant tag 1, subject 4, conduct 1.
        bytes[payload_at + 17] = 7;
        let crc = crc32c(&bytes[payload_at..payload_end]);
        bytes[payload_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            EvidenceLog::replay(&bytes),
            Err(PersistError::Malformed { .. })
        ));
        assert!(matches!(
            EvidenceLog::open(bytes),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version() {
        let log = EvidenceLog::new();
        let mut bytes = log.as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            EvidenceLog::replay(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
        let mut bytes = log.as_bytes().to_vec();
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            EvidenceLog::replay(&bytes),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }
}
