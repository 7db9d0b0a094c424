fn main() {
    std::process::exit(h2bench::cli::main());
}
