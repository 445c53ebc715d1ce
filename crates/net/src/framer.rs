//! The bounded line framer behind every [`crate::EventLoop`] connection
//! (daemon and load generator alike): bytes go in as they arrive off the
//! wire, complete `\n`-terminated lines come out, and a single line
//! growing past the byte bound is a sticky protocol violation — the
//! caller drops the connection instead of buffering without limit.
//!
//! Framing is deliberately dumb: no escape processing, no UTF-8
//! validation (the protocol layer owns both). A request dripped one byte
//! per readiness event and two requests pipelined into one TCP segment
//! are the same stream to this type — only `\n` positions matter.

/// Sticky error: one line exceeded the framer's byte bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOverflow {
    /// The configured bound that was crossed.
    pub max_bytes: usize,
}

impl std::fmt::Display for LineOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request line exceeded {} bytes", self.max_bytes)
    }
}

impl std::error::Error for LineOverflow {}

/// Incremental bounded splitter of a byte stream into `\n`-terminated
/// lines. See the module docs.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf` (consumed prefixes are
    /// compacted away lazily, so a pipelining client cannot force O(n²)
    /// copying).
    start: usize,
    max_bytes: usize,
    overflowed: bool,
}

impl LineFramer {
    /// A framer refusing any single line longer than `max_bytes`
    /// (terminator excluded).
    pub fn new(max_bytes: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            max_bytes,
            overflowed: false,
        }
    }

    /// Feeds freshly received bytes. Errors (stickily) once any single
    /// line exceeds the bound — the connection is past saving, so no
    /// further bytes are retained.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), LineOverflow> {
        if self.overflowed {
            return Err(LineOverflow {
                max_bytes: self.max_bytes,
            });
        }
        self.buf.extend_from_slice(bytes);
        // Only an unterminated tail can overflow: complete lines are
        // checked as they are popped, and a pipelined batch of small
        // lines must not trip the single-line bound.
        let tail_start = match self.buf[self.start..].iter().rposition(|&b| b == b'\n') {
            Some(i) => self.start + i + 1,
            None => self.start,
        };
        if self.buf.len() - tail_start > self.max_bytes
            || self.longest_complete_line() > self.max_bytes
        {
            self.overflowed = true;
            self.buf = Vec::new();
            self.start = 0;
            return Err(LineOverflow {
                max_bytes: self.max_bytes,
            });
        }
        Ok(())
    }

    fn longest_complete_line(&self) -> usize {
        let mut longest = 0;
        let mut start = self.start;
        for (i, &b) in self.buf.iter().enumerate().skip(self.start) {
            if b == b'\n' {
                longest = longest.max(i - start);
                start = i + 1;
            }
        }
        longest
    }

    /// Pops the next complete line, without its `\n` terminator (a
    /// preceding `\r` is kept; the protocol layer trims it).
    pub fn next_line(&mut self) -> Option<Vec<u8>> {
        let rel = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = self.buf[self.start..self.start + rel].to_vec();
        self.start += rel + 1;
        // Compact once the consumed prefix dominates, keeping the buffer
        // proportional to *unconsumed* bytes.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Some(line)
    }

    /// Whether a complete line is buffered and ready to pop.
    pub fn has_line(&self) -> bool {
        self.buf[self.start..].contains(&b'\n')
    }

    /// Takes the final unterminated line at end of stream (`None` when
    /// nothing is buffered). A client that sends a request and closes
    /// without a trailing newline still gets an answer.
    pub fn take_remainder(&mut self) -> Option<Vec<u8>> {
        if self.start >= self.buf.len() {
            return None;
        }
        let rest = self.buf[self.start..].to_vec();
        self.buf = Vec::new();
        self.start = 0;
        Some(rest)
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the framer hit its byte bound (sticky).
    #[cfg(test)]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_by_byte_drip_reassembles_one_line() {
        let mut f = LineFramer::new(64);
        for &b in b"{\"cmd\":\"check\"}" {
            f.push(&[b]).unwrap();
            assert!(f.next_line().is_none(), "no line before the terminator");
        }
        f.push(b"\n").unwrap();
        assert_eq!(f.next_line().unwrap(), b"{\"cmd\":\"check\"}");
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn pipelined_lines_in_one_segment_pop_in_order() {
        let mut f = LineFramer::new(64);
        f.push(b"first\nsecond\r\nthird").unwrap();
        assert!(f.has_line());
        assert_eq!(f.next_line().unwrap(), b"first");
        assert_eq!(
            f.next_line().unwrap(),
            b"second\r",
            "\\r left for the protocol layer"
        );
        assert_eq!(f.next_line(), None, "third is not terminated yet");
        f.push(b"\n").unwrap();
        assert_eq!(f.next_line().unwrap(), b"third");
    }

    #[test]
    fn remainder_surfaces_final_unterminated_line() {
        let mut f = LineFramer::new(64);
        f.push(b"a\nlast-request").unwrap();
        assert_eq!(f.next_line().unwrap(), b"a");
        assert_eq!(f.take_remainder().unwrap(), b"last-request");
        assert_eq!(f.take_remainder(), None);
    }

    #[test]
    fn unterminated_overflow_is_sticky() {
        let mut f = LineFramer::new(8);
        f.push(b"12345678").unwrap(); // at the bound, not over
        let err = f.push(b"9").unwrap_err();
        assert_eq!(err.max_bytes, 8);
        assert!(f.overflowed());
        assert!(f.push(b"\n").is_err(), "overflow does not heal");
        assert_eq!(f.pending_bytes(), 0, "an overflowed framer retains nothing");
    }

    #[test]
    fn oversized_complete_line_overflows_too() {
        let mut f = LineFramer::new(8);
        assert!(f.push(b"123456789\n").is_err());
        assert!(f.overflowed());
    }

    #[test]
    fn many_small_lines_never_trip_the_single_line_bound() {
        let mut f = LineFramer::new(8);
        let mut batch = Vec::new();
        for _ in 0..1000 {
            batch.extend_from_slice(b"1234567\n");
        }
        f.push(&batch).unwrap();
        for _ in 0..1000 {
            assert_eq!(f.next_line().unwrap(), b"1234567");
        }
        assert_eq!(f.pending_bytes(), 0);
        assert!(
            f.buf.capacity() < 2 * batch.len(),
            "compaction bounds the buffer"
        );
    }
}
