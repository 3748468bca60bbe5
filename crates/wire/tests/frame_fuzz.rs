//! Fuzz harness for the frame codec: whatever bytes arrive — garbage,
//! lying length prefixes, truncations, pathological fragmentation — the
//! reader must return `Ok`/`Err`, never panic, and never commit memory
//! proportional to an *announced* (as opposed to *delivered*) length.
//! The same holds one layer up, for the JSON inside a whole frame:
//! `Envelope::recv` on any payload yields an envelope or an error.

use std::io::{self, Cursor, Read};

use proptest::prelude::*;

use sheriff_wire::{read_frame, write_frame, Envelope, FrameError, MAX_FRAME_LEN};

/// Valid encodings of every message variant (see `envelope_golden.rs`).
const GOLDEN: &str = include_str!("golden/envelopes.jsonl");

/// Bytes JSON is made of, so soup built from them gets past the first
/// byte often enough to reach deep into the parser.
const JSON_BYTES: &[u8] =
    b"{}[]{}[]\"\"::,,,  0123456789-+.eEtrufalsn\\/bu\x00\xe2\x80\xa8\xf0\x9f\x98\x80";

/// One whole frame carrying `payload`, through the blocking receiver:
/// never a panic, and — a frame being there — never clean EOF.
fn recv_payload(payload: &[u8]) -> Result<Envelope, FrameError> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).expect("fits");
    match Envelope::recv(&mut Cursor::new(buf)) {
        Ok(Some(env)) => Ok(env),
        Ok(None) => panic!("a whole frame read as clean EOF"),
        Err(e) => Err(e),
    }
}

/// Every strict prefix of every valid encoding is an error: an envelope
/// is an object, and no prefix of one closes it.
#[test]
fn every_truncation_of_a_valid_encoding_is_an_error() {
    for (i, line) in GOLDEN.lines().enumerate() {
        for cut in 0..line.len() {
            assert!(
                recv_payload(&line.as_bytes()[..cut]).is_err(),
                "line {i} cut at {cut}"
            );
        }
        assert!(recv_payload(line.as_bytes()).is_ok(), "line {i} whole");
    }
}

/// Wraps a byte stream and serves it in caller-hostile fragments whose
/// sizes cycle through `pattern` (0 entries are skipped — a `Read`
/// returning 0 means EOF, which we only signal at true exhaustion).
struct Fragmenter {
    inner: Cursor<Vec<u8>>,
    pattern: Vec<usize>,
    at: usize,
}

impl Fragmenter {
    fn new(bytes: Vec<u8>, pattern: Vec<usize>) -> Self {
        Fragmenter {
            inner: Cursor::new(bytes),
            pattern,
            at: 0,
        }
    }
}

impl Read for Fragmenter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let step = self.pattern[self.at % self.pattern.len()].max(1);
        self.at += 1;
        let n = buf.len().min(step);
        self.inner.read(&mut buf[..n])
    }
}

/// Counts the largest single buffer `read_exact` ever asked for: an
/// upper bound on the memory the reader commits per step.
struct MaxAsk<R> {
    inner: R,
    max_ask: usize,
}

impl<R: Read> Read for MaxAsk<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.max_ask = self.max_ask.max(buf.len());
        self.inner.read(buf)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: the reader classifies it (a frame, clean
    /// EOF, or an error) without panicking or looping.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut cur = Cursor::new(bytes);
        // Drain the stream: every iteration either consumes a frame,
        // hits clean EOF, or errors out — all acceptable.
        loop {
            match read_frame(&mut cur) {
                Ok(Some(payload)) => prop_assert!(payload.len() <= MAX_FRAME_LEN),
                Ok(None) => break,
                Err(FrameError::TooLarge(n)) => {
                    prop_assert!(n > MAX_FRAME_LEN);
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// A length prefix that promises more than the stream delivers is a
    /// prompt `UnexpectedEof` (or `TooLarge` above the cap) — and the
    /// reader never asks the transport for more than its chunk size, so
    /// the lie costs bounded memory.
    #[test]
    fn lying_lengths_cost_bounded_memory(
        announced in 0u32..=u32::MAX,
        delivered in 0usize..256,
    ) {
        let mut bytes = announced.to_be_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0x5A, delivered));
        let mut r = MaxAsk { inner: Cursor::new(bytes), max_ask: 0 };
        let res = read_frame(&mut r);
        let announced = announced as usize;
        if announced > MAX_FRAME_LEN {
            prop_assert!(matches!(res, Err(FrameError::TooLarge(n)) if n == announced));
        } else if delivered < announced {
            prop_assert!(matches!(res, Err(FrameError::UnexpectedEof)));
        } else {
            let payload = res.unwrap().expect("fully delivered frame");
            prop_assert_eq!(payload.len(), announced);
        }
        // 16 KiB chunk + slack: never the 4 GiB-ish announced length.
        prop_assert!(r.max_ask <= 16 * 1024, "asked for {} bytes", r.max_ask);
    }

    /// Roundtrip under pathological fragmentation: any payload written
    /// whole is reassembled identically from arbitrary-sized reads.
    #[test]
    fn fragmented_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        pattern in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = Fragmenter::new(buf, pattern);
        prop_assert_eq!(read_frame(&mut r).unwrap().expect("one frame"), payload);
        prop_assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Chopping a framed stream anywhere strictly inside the frame is
    /// always `UnexpectedEof`, never a short payload that "parses".
    #[test]
    fn any_truncation_is_unexpected_eof(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut_sel in any::<usize>(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let keep = cut_sel % (buf.len() - 1) + 1; // 1..=len-1: mid-frame
        let mut cur = Cursor::new(&buf[..keep]);
        prop_assert!(matches!(read_frame(&mut cur), Err(FrameError::UnexpectedEof)));
    }

    /// Arbitrary bytes as a whole frame's payload: an envelope or an
    /// error, never a panic.
    #[test]
    fn arbitrary_payloads_decode_or_fail(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = recv_payload(&bytes);
    }

    /// The same for soup of JSON's own bytes, which gets deeper into the
    /// parser than uniform bytes do.
    #[test]
    fn json_soup_payloads_decode_or_fail(
        picks in proptest::collection::vec(0..JSON_BYTES.len(), 0..512),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
        let _ = recv_payload(&bytes);
    }

    /// A valid encoding with one byte replaced: an envelope or an error,
    /// never a panic; and an envelope that decodes re-encodes to JSON
    /// that decodes to it again.
    #[test]
    fn single_byte_flips_decode_or_fail(
        line_sel in any::<usize>(),
        at_sel in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let lines: Vec<&str> = GOLDEN.lines().collect();
        let mut bytes = lines[line_sel % lines.len()].as_bytes().to_vec();
        let at = at_sel % bytes.len();
        bytes[at] = byte;
        if let Ok(env) = recv_payload(&bytes) {
            let again = serde_json::to_vec(&env).expect("encodes");
            prop_assert_eq!(recv_payload(&again).expect("re-decodes"), env);
        }
    }
}
