//! Offline stand-in for `serde_json`.
//!
//! **Unused.** No workspace source uses serde; JSON is read and written
//! by `verus_trace::json`. This stub stays only because the eight crates
//! `perfbench` links still list serde/serde_json in their manifests, and
//! dropping those lines rewrites the tracked `perfbench/Cargo.lock`; the
//! next benchmark change removes the lines and this crate.
//!
//! Every entry point returns [`Error::Unsupported`].

use std::fmt;
use std::io;

/// The single error this stub produces.
#[derive(Debug)]
pub enum Error {
    /// Serialization is unavailable in the offline build.
    Unsupported,
    /// An I/O error wrapped for `From<io::Error>` conversions.
    Io(io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unsupported => {
                write!(f, "serde_json stub: JSON codec unavailable in offline build")
            }
            Self::Io(e) => write!(f, "serde_json stub: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// `Result` alias matching upstream.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: see crate docs.
pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error::Unsupported)
}

/// Always fails: see crate docs.
pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error::Unsupported)
}

/// Always fails: see crate docs.
pub fn to_writer<W: io::Write, T: ?Sized + serde::Serialize>(
    _writer: W,
    _value: &T,
) -> Result<()> {
    Err(Error::Unsupported)
}

/// Always fails: see crate docs.
pub fn from_str<T: serde::DeserializeOwned>(_s: &str) -> Result<T> {
    Err(Error::Unsupported)
}

/// Always fails: see crate docs.
pub fn from_reader<R: io::Read, T: serde::DeserializeOwned>(_reader: R) -> Result<T> {
    Err(Error::Unsupported)
}

/// Always fails: see crate docs.
pub fn from_slice<T: serde::DeserializeOwned>(_v: &[u8]) -> Result<T> {
    Err(Error::Unsupported)
}
