#[global_allocator]
static ALLOC: h2bench::alloc::Counting = h2bench::alloc::Counting;

fn main() {
    std::process::exit(h2bench::cli::main());
}
