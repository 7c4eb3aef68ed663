//! `spf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit on standard error and, as the
//! last line of standard output, the result object of the benchmark
//! contract. `--benchmark-json` prints the `BENCHMARK.json` the code
//! implements instead.

use std::path::Path;
use std::process::ExitCode;

use spf_benchmark::host::Affinity;
use spf_benchmark::run::{benchmark_json, parse_args, run_plain, run_traced, RUN_SECONDS};
use spf_benchmark::{Sizes, BENCH_CPU};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--benchmark-json"] {
        print!("{}", benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spf-benchmark: {message}");
            eprintln!(
                "usage: spf-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    // Every thread the run spawns inherits this mask.
    let pinned = Affinity::only(BENCH_CPU).apply();
    let mut report = if args.trace {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        run_traced(&args, &Sizes::FULL, &out_dir)
    } else {
        run_plain(&args, &Sizes::FULL)
    };
    report.notes.push(if pinned {
        format!("process pinned to CPU {BENCH_CPU}")
    } else {
        format!("CPU {BENCH_CPU} refused: the run was NOT pinned and will be noisier")
    });
    eprint!("{}", report.table(&args));
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
