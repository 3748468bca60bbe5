//! Length-prefixed framing over byte streams.
//!
//! Each frame is `[len: u32 big-endian][payload: len bytes]`. The length is
//! bounded by [`MAX_FRAME_LEN`] so a corrupt or malicious peer cannot make
//! the reader allocate unbounded memory — the standard defensive rule for
//! length-prefixed protocols.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (product pages are a few KiB; 8 MiB is
/// generous headroom).
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error.
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// Stream ended mid-frame.
    UnexpectedEof,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::UnexpectedEof => write!(f, "stream ended mid-frame"),
        }
    }
}

impl Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::UnexpectedEof
        } else {
            FrameError::Io(e)
        }
    }
}

/// Appends one frame to `buf`: a 4-byte prefix, then the payload that
/// `encode` appends in place behind it, and the prefix patched once the
/// length is known — the byte layout every honest sender in this crate
/// puts on a stream. A payload over [`MAX_FRAME_LEN`] leaves `buf` as it
/// was. Returns the payload length.
pub(crate) fn append_frame(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, FrameError> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - start - 4;
    match (u32::try_from(len), buf.get_mut(start..start + 4)) {
        (Ok(prefix), Some(at)) if len <= MAX_FRAME_LEN => {
            at.copy_from_slice(&prefix.to_be_bytes());
            Ok(len)
        }
        _ => {
            buf.truncate(start);
            Err(FrameError::TooLarge(len))
        }
    }
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let mut buf = Vec::new();
    append_frame(&mut buf, |b| b.extend_from_slice(payload))?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Most a reader asks its transport for in one step: a lying length
/// prefix costs at most one chunk of memory before the stream runs dry,
/// not the full announced length.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// The receiving half of the byte rule, with no I/O in it: bytes go in
/// through [`feed`](FrameAssembler::feed) in whatever pieces the
/// transport delivered them, whole payloads come out of
/// [`next`](FrameAssembler::next) as slices of the assembler's own
/// buffer. Both readers in this crate — the blocking [`read_frame`] and
/// the reactor's nonblocking inbound pump — are loops around one of
/// these, so what the fuzz suites establish for one holds for the other.
///
/// Memory follows *delivered* bytes only: nothing is reserved on the
/// strength of an announced length, and a prefix above
/// [`MAX_FRAME_LEN`] is refused as soon as its four bytes are in. Bytes
/// fed past the end of a frame stay buffered as the start of the next.
#[derive(Debug, Default)]
pub(crate) struct FrameAssembler {
    /// Bytes fed: frames already handed out, then what is not yet.
    buf: Vec<u8>,
    /// Length of the handed-out front of `buf`, dropped at the next feed.
    taken: usize,
}

impl FrameAssembler {
    /// Bytes fed and not yet handed out: prefix first.
    fn pending(&self) -> &[u8] {
        self.buf.get(self.taken..).unwrap_or_default()
    }

    /// Payload length the buffered prefix announces, once all four of
    /// its bytes are in; [`FrameError::TooLarge`] when that is more than
    /// a frame may carry.
    fn announced(&self) -> Result<Option<usize>, FrameError> {
        let Some(prefix) = self.pending().get(..4).and_then(|p| p.try_into().ok()) else {
            return Ok(None);
        };
        match u32::from_be_bytes(prefix) as usize {
            len if len > MAX_FRAME_LEN => Err(FrameError::TooLarge(len)),
            len => Ok(Some(len)),
        }
    }

    /// How many bytes to ask the transport for next so as never to read
    /// past the current frame: what is missing of the prefix, then of
    /// the payload, at most [`READ_CHUNK`] at a time. Zero when
    /// [`next`](FrameAssembler::next) has something to report.
    pub(crate) fn wants(&self) -> usize {
        let end = match self.announced() {
            Ok(None) => 4,
            Ok(Some(len)) => 4 + len,
            Err(_) => 0,
        };
        end.saturating_sub(self.pending().len()).min(READ_CHUNK)
    }

    /// Takes in bytes the transport delivered.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.taken);
        self.taken = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Nothing is buffered: the stream sits on a frame boundary.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending().is_empty()
    }

    /// The next complete payload, borrowed until the next call;
    /// `Ok(None)` while it is still short, [`FrameError::TooLarge`] when
    /// the prefix announces more than a frame may carry (the stream is
    /// unusable from there on).
    pub(crate) fn next(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let start = self.taken + 4;
        let Some(payload) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        self.taken = start + len;
        Ok(Some(payload))
    }
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary.
///
/// Asks the stream for exactly what the [`FrameAssembler`] wants, so it
/// never reads past its own frame (callers read frame after frame off
/// one stream) and a peer that announces `MAX_FRAME_LEN` and hangs up
/// holds at most [`READ_CHUNK`] of memory here — never the announced
/// length.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (no bytes) from mid-frame EOF.
    if r.read(&mut prefix[..1])? == 0 {
        return Ok(None);
    }
    r.read_exact(&mut prefix[1..])?;
    let mut frame = FrameAssembler::default();
    frame.feed(&prefix);
    let mut chunk = Vec::new();
    loop {
        if let Some(payload) = frame.next()? {
            return Ok(Some(payload.to_vec()));
        }
        chunk.resize(frame.wants(), 0);
        r.read_exact(&mut chunk)?;
        frame.feed(&chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello world");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn roundtrip_many_frames() {
        let mut buf = Vec::new();
        for i in 0..100 {
            write_frame(&mut buf, format!("frame-{i}").as_bytes()).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for i in 0..100 {
            assert_eq!(
                read_frame(&mut cur).unwrap().unwrap(),
                format!("frame-{i}").as_bytes()
            );
        }
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn empty_payload_ok() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
    }

    #[test]
    fn oversized_frame_rejected_on_write() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full frame").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::UnexpectedEof)
        ));
    }

    #[test]
    fn payload_spanning_many_chunks_roundtrips() {
        // Crosses the incremental-read boundary twice plus a remainder.
        let payload: Vec<u8> = (0..READ_CHUNK * 2 + 7).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    /// A reader that hands out one byte at a time: the chunk loop must
    /// tolerate arbitrarily fragmented arrival.
    struct Trickle(Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn fragmented_arrival_reassembles() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"drip by drip").unwrap();
        let mut r = Trickle(Cursor::new(buf));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"drip by drip");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn lying_length_prefix_is_eof_not_a_big_allocation() {
        // Announces the maximum legal frame but delivers ten bytes. The
        // incremental reader commits at most one chunk before the
        // stream runs dry — observable here as a prompt `UnexpectedEof`
        // rather than an 8 MiB zeroed buffer.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32).to_be_bytes());
        buf.extend_from_slice(&[0xAB; 10]);
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::UnexpectedEof)
        ));
    }

    #[test]
    fn truncated_length_is_unexpected_eof() {
        let mut cur = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::UnexpectedEof)
        ));
    }

    // -----------------------------------------------------------------
    // The fuzz corpus of `tests/frame_fuzz.rs`, aimed at the assembler
    // itself and fed the way the reactor feeds it: in pieces that
    // respect no frame boundary.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    /// Feeds `bytes` in pieces whose sizes cycle through `pattern`,
    /// taking every frame that completes on the way. Returns the frames,
    /// the refusal that ended the stream (if one did), and the assembler
    /// as the last byte left it.
    fn assemble(
        bytes: &[u8],
        pattern: &[usize],
    ) -> (Vec<Vec<u8>>, Option<FrameError>, FrameAssembler) {
        let (mut frame, mut frames) = (FrameAssembler::default(), Vec::new());
        let (mut rest, mut sizes) = (bytes, pattern.iter().cycle());
        loop {
            loop {
                match frame.next() {
                    Ok(Some(payload)) => frames.push(payload.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e), frame),
                }
            }
            if rest.is_empty() {
                return (frames, None, frame);
            }
            let n = sizes.next().map_or(1, |n| (*n).clamp(1, rest.len()));
            let (piece, tail) = rest.split_at(n);
            frame.feed(piece);
            rest = tail;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whole frames back to back, then a tail of byte soup (a short
        /// prefix, a lying one, one past the cap): however the stream is
        /// cut into pieces, the assembler yields exactly what the
        /// blocking reader yields with its exact-size reads, and ends in
        /// the matching state.
        #[test]
        fn any_fragmentation_matches_the_blocking_reader(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300), 0..4),
            tail in proptest::collection::vec(any::<u8>(), 0..12),
            pattern in proptest::collection::vec(1usize..700, 1..8),
        ) {
            let mut stream = Vec::new();
            for p in &payloads {
                write_frame(&mut stream, p).unwrap();
            }
            stream.extend_from_slice(&tail);

            let mut cur = Cursor::new(&stream[..]);
            let mut expected = Vec::new();
            let end = loop {
                match read_frame(&mut cur) {
                    Ok(Some(p)) => expected.push(p),
                    other => break other,
                }
            };
            let (frames, refusal, frame) = assemble(&stream, &pattern);
            prop_assert_eq!(frames, expected);
            match end {
                // Clean end of stream: nothing left over.
                Ok(_) => prop_assert!(refusal.is_none() && frame.is_empty()),
                Err(FrameError::TooLarge(n)) => {
                    prop_assert!(n > MAX_FRAME_LEN);
                    prop_assert!(matches!(refusal, Some(FrameError::TooLarge(m)) if m == n));
                }
                // Cut short mid-frame: no short payload ever "completes".
                Err(_) => prop_assert!(refusal.is_none() && frame.wants() > 0),
            }
        }

        /// A prefix that promises more than the stream delivers holds
        /// memory in proportion to what was delivered — never to what
        /// was announced — and asks for at most a chunk at a time.
        #[test]
        fn lying_lengths_cost_delivered_memory(
            announced in 0u32..=u32::MAX,
            delivered in 0usize..256,
            pattern in proptest::collection::vec(1usize..64, 1..8),
        ) {
            let mut stream = announced.to_be_bytes().to_vec();
            stream.extend(std::iter::repeat_n(0x5A, delivered));
            let (frames, refusal, frame) = assemble(&stream, &pattern);
            let announced = announced as usize;
            if announced > MAX_FRAME_LEN {
                prop_assert!(matches!(refusal, Some(FrameError::TooLarge(n)) if n == announced));
                prop_assert_eq!(frame.wants(), 0);
            } else if delivered < announced {
                prop_assert!(frames.is_empty() && refusal.is_none());
                prop_assert!((1..=READ_CHUNK).contains(&frame.wants()));
            } else {
                prop_assert_eq!(frames[0].len(), announced);
            }
            prop_assert!(frame.buf.capacity() <= 2 * stream.len() + 8);
        }
    }
}
