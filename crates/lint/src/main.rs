//! Command-line entry point for rmdp-lint.
//!
//! ```text
//! rmdp-lint [--format text|json] [--out FILE] [--list] [ROOT]
//! ```
//!
//! Scans the workspace rooted at `ROOT` (default: the current directory)
//! and prints the report in the requested format. With `--out`, the
//! requested format goes to the file and the human-readable report still
//! goes to stdout, which is the shape CI wants: a failing log you can read
//! and a machine-readable artifact you can archive. Exit status is 0 when
//! clean, 1 on violations, 2 on usage or I/O errors.

use rmdp_lint::{run_workspace, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Options {
    /// Output format: `"text"` or `"json"`.
    format: String,
    /// Where to write the formatted report instead of stdout.
    out: Option<PathBuf>,
    /// Print the rule table and exit.
    list: bool,
    /// Workspace root to scan.
    root: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: "text".to_owned(),
        out: None,
        list: false,
        root: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let value = args.next().ok_or("--format needs a value")?;
                if value != "text" && value != "json" {
                    return Err(format!("unknown format `{value}` (text|json)"));
                }
                opts.format = value;
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?));
            }
            "--list" => opts.list = true,
            "--help" | "-h" => {
                return Err(
                    "usage: rmdp-lint [--format text|json] [--out FILE] [--list] [ROOT]".to_owned(),
                )
            }
            other if !other.starts_with('-') => opts.root = PathBuf::from(other),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("rmdp-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for rule in RULES {
            println!("{:<19} {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }
    let report = match run_workspace(&opts.root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("rmdp-lint: scanning {}: {err}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    let rendered = if opts.format == "json" {
        report.to_json()
    } else {
        report.render_text()
    };
    match &opts.out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &rendered) {
                eprintln!("rmdp-lint: writing {}: {err}", path.display());
                return ExitCode::from(2);
            }
            print!("{}", report.render_text());
        }
        None => print!("{rendered}"),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
