//! The `prop` binary: thin wrapper over the testable library half.

use prop_cli::{parse_args, run, EXIT_BROKEN_PIPE, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(e.code);
        }
    };
    if let Err(e) = run(command) {
        // A reader that closed stdout early is not an error worth a word.
        if e.code != EXIT_BROKEN_PIPE {
            eprintln!("error: {e}");
        }
        std::process::exit(e.code);
    }
}
