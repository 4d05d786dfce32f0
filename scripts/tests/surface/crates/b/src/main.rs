// A `fn <name>` definition is not a call of another function so named.
fn hook() {}

fn main() {
    a::called_elsewhere();
    a::allowed_and_called();
}
