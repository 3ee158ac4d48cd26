//! The one bench entry point: `cargo run --release -p pm2-bench -- <name>`
//! runs the row of [`pm2_bench::DRILLS`] called `<name>` (`list` prints
//! them).  An unknown or missing name prints the table and exits non-zero.

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match pm2_bench::DRILLS.iter().find(|d| d.0 == name) {
        Some(&(_, _, run)) => run(),
        None => {
            eprintln!("pm2-bench: no experiment named {name:?}; the table is:");
            pm2_bench::list();
            std::process::exit(2);
        }
    }
}
