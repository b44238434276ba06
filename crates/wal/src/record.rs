//! On-disk formats: log record frames and checkpoint files.
//!
//! **Log frame** (all integers little-endian):
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload]
//! payload = [seq: u64][n: u32][key: u64, value: u64] × n
//! ```
//!
//! `seq` is the transaction's dense commit sequence number — its logical
//! commit timestamp. A frame is valid iff its length is structurally
//! consistent (`payload_len == 12 + 16 n`, below the sanity cap) and the
//! CRC matches; decoding stops at the first invalid frame, which is how a
//! torn tail is detected.
//!
//! **Checkpoint file** `ckpt-<next_seq>.snap`:
//!
//! ```text
//! [magic: u64 = "RKVCKPT1"][next_seq: u64][n: u32][value: u64] × n [crc32: u32]
//! ```
//!
//! The values are the full key table (`value[i]` is key `i`); `next_seq`
//! is the first sequence number *not* folded into the snapshot. The CRC
//! covers every preceding byte, so a checkpoint torn mid-write never
//! validates.

use crate::crc::crc32;

/// Sanity cap on a single record payload (a TxKV write set is at most a
/// few entries; anything near this is corruption, not data).
pub const MAX_RECORD_PAYLOAD: u32 = 1 << 24;

/// Checkpoint file magic: `b"RKVCKPT1"` as a little-endian u64.
pub const CKPT_MAGIC: u64 = u64::from_le_bytes(*b"RKVCKPT1");

/// One committed transaction's redo entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Dense commit sequence number (the commit timestamp).
    pub seq: u64,
    /// The transaction's write set in key space: `(key, new value)`.
    pub writes: Vec<(u64, u64)>,
}

/// Appends the frame of the record `(seq, writes)` to `buf`, encoding the
/// payload in place (the writer calls this once per record, straight from
/// a ring slot).
pub fn encode_frame(seq: u64, writes: &[(u64, u64)], buf: &mut Vec<u8>) {
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for &(k, v) in writes {
        buf.extend_from_slice(&k.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let payload_len = (buf.len() - header - 8) as u32;
    let crc = crc32(&buf[header + 8..]);
    buf[header..header + 4].copy_from_slice(&payload_len.to_le_bytes());
    buf[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
}

impl WalRecord {
    /// Appends this record's frame to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_frame(self.seq, &self.writes, buf);
    }

    /// The encoded frame size of this record in bytes.
    pub fn frame_len(&self) -> usize {
        8 + 12 + 16 * self.writes.len()
    }
}

/// How decoding a log image ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeEnd {
    /// Every byte parsed into valid frames.
    Clean,
    /// An invalid frame was found: everything from `offset` on is a torn
    /// or corrupt tail and must be truncated.
    Torn {
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// Why the frame was rejected.
        reason: &'static str,
    },
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Decodes consecutive frames from a log image, stopping at the first
/// invalid one (the torn-tail rule). Returns the valid records in file
/// order plus where and why decoding stopped.
pub fn decode_all(bytes: &[u8]) -> (Vec<WalRecord>, DecodeEnd) {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        if off == bytes.len() {
            return (records, DecodeEnd::Clean);
        }
        let torn = |reason| DecodeEnd::Torn {
            offset: off as u64,
            reason,
        };
        if bytes.len() - off < 8 {
            return (records, torn("truncated frame header"));
        }
        let payload_len = read_u32(&bytes[off..]) as usize;
        let crc = read_u32(&bytes[off + 4..]);
        if payload_len < 12
            || payload_len > MAX_RECORD_PAYLOAD as usize
            || !(payload_len - 12).is_multiple_of(16)
        {
            return (records, torn("implausible payload length"));
        }
        if bytes.len() - off - 8 < payload_len {
            return (records, torn("truncated payload"));
        }
        let payload = &bytes[off + 8..off + 8 + payload_len];
        if crc32(payload) != crc {
            return (records, torn("checksum mismatch"));
        }
        let seq = read_u64(payload);
        let n = read_u32(&payload[8..]) as usize;
        if payload_len != 12 + 16 * n {
            return (records, torn("write-set count disagrees with length"));
        }
        let mut writes = Vec::with_capacity(n);
        for i in 0..n {
            let base = 12 + 16 * i;
            writes.push((read_u64(&payload[base..]), read_u64(&payload[base + 8..])));
        }
        records.push(WalRecord { seq, writes });
        off += 8 + payload_len;
    }
}

/// A full key-table snapshot plus the log position it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// First sequence number not folded into `values` — replay starts
    /// here.
    pub next_seq: u64,
    /// The key table: `values[i]` is the value of key `i`.
    pub values: Vec<u64>,
}

impl Checkpoint {
    /// Serialises the checkpoint file image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24 + 8 * self.values.len());
        buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&self.next_seq.to_le_bytes());
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for &v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a checkpoint file image; `None` if the file
    /// is torn, truncated, or fails its checksum.
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        if bytes.len() < 24 || read_u64(bytes) != CKPT_MAGIC {
            return None;
        }
        let next_seq = read_u64(&bytes[8..]);
        let n = read_u32(&bytes[16..]) as usize;
        let expect = 20 + 8 * n + 4;
        if bytes.len() != expect {
            return None;
        }
        if crc32(&bytes[..expect - 4]) != read_u32(&bytes[expect - 4..]) {
            return None;
        }
        let values = (0..n).map(|i| read_u64(&bytes[20 + 8 * i..])).collect();
        Some(Checkpoint { next_seq, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, writes: &[(u64, u64)]) -> WalRecord {
        WalRecord {
            seq,
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn record_roundtrip() {
        let mut buf = Vec::new();
        let records = vec![
            rec(0, &[(3, 10)]),
            rec(1, &[]),
            rec(2, &[(1, 2), (7, u64::MAX)]),
        ];
        let mut expect_len = 0;
        for r in &records {
            r.encode_into(&mut buf);
            expect_len += r.frame_len();
            assert_eq!(buf.len(), expect_len);
        }
        let (decoded, end) = decode_all(&buf);
        assert_eq!(decoded, records);
        assert_eq!(end, DecodeEnd::Clean);
    }

    #[test]
    fn torn_tail_stops_decode_at_every_cut() {
        let mut buf = Vec::new();
        rec(5, &[(1, 1), (2, 2)]).encode_into(&mut buf);
        rec(6, &[(3, 3)]).encode_into(&mut buf);
        let first_len = rec(5, &[(1, 1), (2, 2)]).frame_len();
        for cut in 0..buf.len() {
            let (decoded, end) = decode_all(&buf[..cut]);
            if cut < first_len {
                assert!(decoded.is_empty(), "cut {cut}");
                if cut > 0 {
                    assert!(
                        matches!(end, DecodeEnd::Torn { offset: 0, .. }),
                        "cut {cut}"
                    );
                }
            } else {
                assert_eq!(decoded.len(), 1, "cut {cut}");
                assert_eq!(decoded[0].seq, 5);
            }
        }
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let mut buf = Vec::new();
        rec(9, &[(4, 4)]).encode_into(&mut buf);
        rec(10, &[(5, 5)]).encode_into(&mut buf);
        let len = buf.len();
        buf[len - 3] ^= 0x40; // flip a bit inside the second payload
        let (decoded, end) = decode_all(&buf);
        assert_eq!(decoded.len(), 1);
        assert!(matches!(
            end,
            DecodeEnd::Torn {
                reason: "checksum mismatch",
                ..
            }
        ));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut buf = vec![0xFFu8; 16];
        let (decoded, end) = decode_all(&buf);
        assert!(decoded.is_empty());
        assert!(matches!(
            end,
            DecodeEnd::Torn {
                reason: "implausible payload length",
                ..
            }
        ));
        // A zero-write record claiming extra bytes is structurally wrong.
        buf.clear();
        buf.extend_from_slice(&13u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 17]);
        let (_, end) = decode_all(&buf);
        assert!(matches!(end, DecodeEnd::Torn { .. }));
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ck = Checkpoint {
            next_seq: 42,
            values: vec![0, 1, u64::MAX, 7],
        };
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        // Any single-byte flip invalidates it.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(Checkpoint::decode(&bad).is_none(), "flip at {i}");
        }
        // Truncation invalidates it.
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(Checkpoint::decode(&[]).is_none());
    }
}
