// Integration tests are not callers.
fn main() {
    a::only_tests();
}
