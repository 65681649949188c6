//! Offline stand-in for `serde_derive`.
//!
//! **Unused.** No workspace source uses serde; JSON is read and written
//! by `verus_trace::json`. This stub stays only because the eight crates
//! `perfbench` links still list serde/serde_json in their manifests, and
//! dropping those lines rewrites the tracked `perfbench/Cargo.lock`; the
//! next benchmark change removes the lines and this crate.
//!
//! The real derives generate `Serialize`/`Deserialize` impls; here the
//! `serde` stub provides blanket impls for every type, so these derives
//! only need to *exist* (so `#[derive(Serialize, Deserialize)]` parses)
//! and to register the `#[serde(...)]` helper attribute. They expand to
//! nothing.

use proc_macro::TokenStream;

/// No-op `Serialize` derive; the `serde` stub's blanket impl covers the type.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive; the `serde` stub's blanket impl covers the type.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
