//! Error type for the serving subsystem.

use std::fmt;

use mtlsplit_split::SplitError;

use crate::frame::{ErrorCode, OpCode};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors raised by the wire protocol, the transports and the server.
#[derive(Debug)]
pub enum ServeError {
    /// A frame buffer ended before the declared length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame did not start with the protocol magic.
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame declared a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The frame carried an op code this build does not know.
    UnknownOpCode {
        /// The op code byte found.
        code: u8,
    },
    /// The frame declared a body larger than the configured maximum.
    Oversized {
        /// Declared body length in bytes.
        len: usize,
        /// Configured maximum body length in bytes.
        max: usize,
    },
    /// The frame's CRC-32 did not match its contents — the frame was
    /// corrupted in transit (any single flipped byte triggers this unless a
    /// more specific magic/version/length error catches it first).
    ChecksumMismatch {
        /// The checksum the frame declared.
        declared: u32,
        /// The checksum computed over the received bytes.
        actual: u32,
    },
    /// A frame arrived with an op code the caller did not expect.
    UnexpectedFrame {
        /// What the caller was waiting for.
        expected: &'static str,
        /// The op code that actually arrived.
        got: OpCode,
    },
    /// A response arrived for a different request id than the one in flight.
    MismatchedResponse {
        /// Request id that was sent.
        sent: u64,
        /// Request id that came back.
        received: u64,
    },
    /// A frame body failed structural validation (e.g. a string field that
    /// is not UTF-8, or a split assignment naming an unknown stage).
    Malformed {
        /// What was malformed.
        what: String,
    },
    /// The server reported a failure through a typed error frame.
    Remote {
        /// Machine-readable classification ([`ErrorCode::App`] when the
        /// body carries no known code byte).
        code: ErrorCode,
        /// The server's error message.
        message: String,
    },
    /// The per-request deadline budget ran out before any attempt succeeded.
    DeadlineExceeded {
        /// Attempts made before the budget was exhausted.
        attempts: u32,
        /// The configured budget, in milliseconds.
        budget_ms: f64,
    },
    /// The server's request queue is full (backpressure).
    QueueFull,
    /// The server worker has shut down and no longer accepts requests.
    ServerUnavailable,
    /// A payload or tensor operation failed.
    Split(SplitError),
    /// A socket operation failed.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Truncated { needed, got } => {
                write!(f, "frame truncated: needed {needed} bytes, got {got}")
            }
            ServeError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x}")
            }
            ServeError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            ServeError::UnknownOpCode { code } => write!(f, "unknown op code {code}"),
            ServeError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the maximum {max}")
            }
            ServeError::ChecksumMismatch { declared, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: declared {declared:#010x}, computed {actual:#010x}"
                )
            }
            ServeError::UnexpectedFrame { expected, got } => {
                write!(f, "expected {expected}, got a {got:?} frame")
            }
            ServeError::MismatchedResponse { sent, received } => {
                write!(
                    f,
                    "sent request {sent} but received a response for {received}"
                )
            }
            ServeError::Malformed { what } => write!(f, "malformed body: {what}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ServeError::DeadlineExceeded {
                attempts,
                budget_ms,
            } => {
                write!(
                    f,
                    "deadline budget of {budget_ms:.1} ms exhausted after {attempts} attempt(s)"
                )
            }
            ServeError::QueueFull => write!(f, "server request queue is full"),
            ServeError::ServerUnavailable => write!(f, "server has shut down"),
            ServeError::Split(err) => write!(f, "payload error: {err}"),
            ServeError::Io(err) => write!(f, "socket error: {err}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Split(err) => Some(err),
            ServeError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SplitError> for ServeError {
    fn from(err: SplitError) -> Self {
        ServeError::Split(err)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }

    #[test]
    fn display_mentions_the_interesting_numbers() {
        let truncated = ServeError::Truncated { needed: 18, got: 3 };
        assert!(truncated.to_string().contains("18"));
        let mismatch = ServeError::MismatchedResponse {
            sent: 7,
            received: 9,
        };
        let text = mismatch.to_string();
        assert!(text.contains('7') && text.contains('9'));
    }
}
