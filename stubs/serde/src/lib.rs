//! Offline stand-in for `serde`.
//!
//! **Unused.** No workspace source uses serde; JSON is read and written
//! by `verus_trace::json`. This stub stays only because the eight crates
//! `perfbench` links still list serde/serde_json in their manifests, and
//! dropping those lines rewrites the tracked `perfbench/Cargo.lock`; the
//! next benchmark change removes the lines and this crate.
//!
//! The traits are empty markers with blanket impls: every bound like
//! `T: Serialize` is satisfied, every derive is a no-op, and nothing
//! can actually serialize.

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all types.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all types.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned {}
impl<T: ?Sized> DeserializeOwned for T {}

pub mod de {
    //! Deserialization traits (marker subset).
    pub use crate::{Deserialize, DeserializeOwned};
}

pub mod ser {
    //! Serialization traits (marker subset).
    pub use crate::Serialize;
}

// Derive macros live in the macro namespace, the traits above in the
// type namespace — same dual-export trick the real crate uses.
pub use serde_derive::{Deserialize, Serialize};
