//! The "CLI flag index" table in `docs/OPERATIONS.md` must match what the
//! parser accepts: every (flag, subcommand) pair it lists parses.

const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");

const SUBCOMMANDS: [&str; 8] =
    ["simulate", "analyze", "monitor", "pipeline", "train", "predict", "serve", "top"];

/// The arguments each subcommand needs before any optional flag parses.
fn required_args(subcommand: &str) -> &'static [&'static str] {
    match subcommand {
        "simulate" => &["--out", "x.csv"],
        "analyze" => &["x.csv"],
        "monitor" => &["--train", "a.csv", "--live", "b.csv"],
        "train" => &["--save-model", "m.dds"],
        "predict" => &["--model", "m.dds", "--live", "b.csv"],
        _ => &[],
    }
}

/// A value the flag accepts; "1" suits every count and path.
fn sample_value(flag: &str) -> &'static str {
    match flag {
        "--scale" => "test",
        "--trace-level" => "info",
        "--chaos" => "drop=0.1",
        "--listen" => "127.0.0.1:0",
        _ => "1",
    }
}

/// The table rows as (flag, takes a value, subcommands).
fn flag_index() -> Vec<(String, bool, Vec<String>)> {
    let section =
        OPERATIONS.split_once("## CLI flag index").expect("OPERATIONS.md has a CLI flag index").1;
    let rows: Vec<_> = section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter(|line| line.starts_with("| `--"))
        .map(|line| {
            let cells: Vec<&str> = line.split(" | ").collect();
            let usage = cells[0].trim_start_matches("| `").split('`').next().unwrap();
            let (flag, value) = match usage.split_once(' ') {
                Some((flag, _)) => (flag, true),
                None => (usage, false),
            };
            let subcommands = match cells[1].trim() {
                "all" => SUBCOMMANDS.iter().map(|s| s.to_string()).collect(),
                list => list.split(", ").map(str::to_string).collect(),
            };
            (flag.to_string(), value, subcommands)
        })
        .collect();
    assert!(rows.len() > 20, "flag index parsed only {} rows", rows.len());
    rows
}

#[test]
fn every_listed_flag_parses_on_every_listed_subcommand() {
    let mut rejected = Vec::new();
    for (flag, takes_value, subcommands) in flag_index() {
        for subcommand in &subcommands {
            assert!(SUBCOMMANDS.contains(&subcommand.as_str()), "{flag}: unknown {subcommand:?}");
            let mut argv = vec![subcommand.clone()];
            argv.extend(required_args(subcommand).iter().map(|s| s.to_string()));
            argv.push(flag.clone());
            if takes_value {
                argv.push(sample_value(&flag).to_string());
            }
            if let Err(e) = dds_cli::parse(argv) {
                rejected.push(format!("{subcommand} {flag}: {e}"));
            }
        }
    }
    assert!(
        rejected.is_empty(),
        "docs/OPERATIONS.md lists flags the parser rejects:\n{rejected:#?}"
    );
}
