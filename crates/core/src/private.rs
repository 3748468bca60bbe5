//! A peer's plaintext as a type (paper §3.6, §4).

/// A PPC's browsing identity. It has no `Debug`, `Display`, `Serialize`,
/// `Clone`, `Deref` or way back to `T`, so it cannot sit in a `ProtoMsg`,
/// a report, a metric name or a format string. `clippy.toml` bans its
/// two exits outside files that `#![expect(clippy::disallowed_methods)]`.
/// ```compile_fail,E0277
/// let _ = format!("{}", sheriff_core::private::Private::new(0.5)); // no `Display`
/// ```
/// ```
/// let _ = format!("{}", *sheriff_core::private::Private::new(0.5).expose());
/// ```
/// ```compile_fail,E0277
/// let _ = format!("{:?}", sheriff_core::private::Private::new(0.5)); // no `Debug`
/// ```
/// ```
/// let _ = format!("{:?}", *sheriff_core::private::Private::new(0.5).expose());
/// ```
/// ```compile_fail,E0277
/// fn to_wire<T: serde::Serialize>(_: &T) {}
/// to_wire(&sheriff_core::private::Private::new(0.5)); // no `Serialize`
/// ```
/// ```
/// fn to_wire<T: serde::Serialize>(_: &T) {}
/// to_wire(sheriff_core::private::Private::new(0.5).expose());
/// ```
/// ```compile_fail,E0616
/// let _ = sheriff_core::private::Private::new(0.5).0; // the field is private
/// ```
/// ```
/// let _ = *sheriff_core::private::Private::new(0.5).expose();
/// ```
pub struct Private<T>(T);

impl<T> Private<T> {
    /// Wraps a peer's plaintext.
    pub fn new(value: T) -> Self {
        Private(value)
    }

    /// Reads the plaintext: a listed exit.
    pub fn expose(&self) -> &T {
        &self.0
    }

    /// Updates the plaintext in place: a listed exit.
    pub fn expose_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
