//! Fixture crate for `scripts/surface.sh --self-test`.
//!
//! ```
//! a::documented();
//! assert_eq!(a::SHOWN, 2);
//! ```
//!
//! A mention of `in_prose` outside a doc example is not a call.

/// Called from crate b.
pub fn called_elsewhere() {}

/// Named only in prose: in_prose.
pub fn in_prose() {}

/// Called from the doc example above.
pub fn documented() {}

/// Allowed: a deliberate seam.
pub fn hook() {}

/// Allowed, but crate b calls it: a stale entry.
pub fn allowed_and_called() {}

/// Not `pub`: out of scope.
pub(crate) fn internal() {}

/// A `const fn` is a `pub fn` too.
pub const fn constant() -> u32 {
    0
}

pub struct Widget;

impl Widget {
    /// Called as a method from the example.
    pub fn method(&self) {}

    /// Its only call is in a comment: // Widget.unused_method()
    pub fn unused_method(&self) {}
}

fn private() {}

/// Shares its name with crate b's module, field and local; none of
/// them is a call.
pub fn settings() {}

/// Named by its path as a value in crate b: a use, not a call.
pub fn as_value() {}

/// Called only by the unit test below and by tests/it.rs.
pub fn only_tests() {}

/// Read by crate b.
pub const READ: u32 = 1;

/// Read by the doc example above.
pub const SHOWN: u32 = 2;

/// Read by the next constant's definition.
pub const BASE: u32 = 3;

/// Derived from another; read by nothing.
pub const DERIVED: u32 = BASE + 1;

/// Named only in prose and by the unit test below: UNREAD.
pub const UNREAD: u32 = 5;

/// A static is a constant to the check: read by crate b.
pub static GREETING: &str = "hi";

/// Read by nothing.
pub static mut COUNTER: u32 = 0;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::only_tests();
        super::in_prose();
        super::constant();
        assert_eq!(super::UNREAD, 5);
    }
}

/// After the first `#[cfg(test)]`: not scanned.
pub fn after_tests() {}
