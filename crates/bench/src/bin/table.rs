//! Runs the experiment tables: `table <e1…e22|all> [--quick]
//! [--cache DIR] [--json PATH | --no-json]`. See `fm_bench::driver`.

#[global_allocator]
static ALLOC: fm_bench::driver::CountingAlloc = fm_bench::driver::CountingAlloc;

fn main() {
    std::process::exit(fm_bench::driver::main(std::env::args().skip(1)));
}
