fn main() {
    a::Widget.method();
}
