// A `fn <name>` definition is not a call of another function so named.
fn hook() {}

mod settings {
    pub const LEVEL: u32 = 0;
}

struct Config {
    settings: u32,
}

fn main() {
    a::called_elsewhere();
    a::allowed_and_called();
    let settings = Config { settings: settings::LEVEL };
    let _ = settings.settings;
    let _hook: fn() = a::as_value;
    let _ = (a::READ, a::GREETING);
}
