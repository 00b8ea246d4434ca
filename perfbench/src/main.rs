//! Probe for the repository benchmark. `perfbench/run.py` builds and
//! drives it; each subcommand prints JSON lines on stdout.
//!
//! ```text
//! perfbench batch --workload paper|contention|sweep --seed N --root DIR
//! perfbench judge < check values
//! perfbench layers --workload W --seed N --root DIR --spans FILE
//! perfbench serve-load --seed N --seconds S --mode full|probe
//! ```
//!
//! `batch` sets up (printing a `ready` line with the sweep's golden
//! check), runs one timed iteration of the workload and prints the result
//! with the fidelity checks' values resolved on its reports; `judge` judges
//! each check's mean across seeds. `layers` is the traced run: the workload
//! untraced, traced and serial, then spans around calls into every layer
//! with the workload's inputs, written to `--spans`. `serve-load` computes
//! the expected `/run` bodies, fills a daemon's store, and offers the
//! open-loop read ladder plus the miss stream; it reads daemon addresses
//! from stdin.

mod json;
mod layers;
mod loadgen;
mod serveload;
mod trace;
mod work;

use json::J;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use trace::Tracer;
use wavelan_core::Executor;
use work::Workload;

pub fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

/// `--key value` flags.
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                fail(&format!("unexpected argument {}", args[i]));
            };
            let Some(value) = args.get(i + 1) else {
                fail(&format!("--{key} needs a value"));
            };
            values.insert(key.to_string(), value.clone());
            i += 2;
        }
        Args { values }
    }

    fn get(&self, key: &str) -> &str {
        self.values
            .get(key)
            .map(String::as_str)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn num(&self, key: &str) -> u64 {
        self.get(key)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key} needs a whole number")))
    }

    fn workload(&self) -> Workload {
        Workload::parse(self.get("workload")).unwrap_or_else(|| fail("unknown workload"))
    }
}

/// Prints one JSON line and flushes, so `run.py` sees it at once.
pub fn emit(value: &J) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{value}").expect("stdout is writable");
    out.flush().expect("stdout is writable");
}

fn batch(args: &Args) {
    let workload = args.workload();
    let seed = args.num("seed");
    let root = PathBuf::from(args.get("root"));
    let exec = Executor::new(work::JOBS);
    let setup = match workload {
        Workload::Sweep => work::sweep_golden_check(&root, &exec),
        Workload::Paper | Workload::Contention => Ok(()),
        Workload::Serve => fail("serve is not a batch workload"),
    };
    emit(&J::obj(vec![
        ("ready", J::Bool(true)),
        ("setup_ok", J::Bool(setup.is_ok())),
        (
            "setup_problem",
            setup.as_ref().err().map_or(J::Null, |e| J::str(e)),
        ),
    ]));
    let it = work::run_batch(workload, seed, &exec, &mut Tracer::new(false));
    let checks = work::resolve_checks(&it.reports, wavelan_core::Scale::Paper);
    emit(&J::obj(vec![
        ("wall_s", J::Num(it.wall_s)),
        (
            "ops",
            J::Arr(
                it.ops
                    .iter()
                    .map(|op| J::obj(vec![("name", J::str(&op.name)), ("s", J::Num(op.seconds))]))
                    .collect(),
            ),
        ),
        ("attempted", J::Int(it.attempted)),
        ("failed", J::Int(it.failed)),
        ("digest", J::Str(format!("{:016x}", it.digest))),
        ("output_bytes", J::Int(it.output_bytes)),
        (
            "checks",
            J::Arr(
                checks
                    .iter()
                    .map(|c| {
                        J::obj(vec![
                            ("artifact", J::str(c.artifact)),
                            ("id", J::str(c.id)),
                            ("value", c.value.as_ref().map_or(J::Null, |v| J::Num(*v))),
                            (
                                "error",
                                c.value.as_ref().err().map_or(J::Null, |e| J::str(e)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "problems",
            J::Arr(it.problems.iter().map(|p| J::str(p)).collect()),
        ),
    ]));
}

/// Reads `<check id> <value> <value> ...` lines and prints one JSON line
/// per failing check: each check's mean across the values is judged.
fn judge() {
    for line in std::io::stdin().lines() {
        let line = line.expect("stdin is readable");
        let mut fields = line.split_whitespace();
        let Some(id) = fields.next() else { continue };
        let values: Result<Vec<f64>, _> = fields.map(str::parse::<f64>).collect();
        let verdict = values
            .map_err(|_| format!("{id}: unparsable value"))
            .and_then(|v| work::judge(id, &v));
        if let Err(why) = verdict {
            emit(&J::obj(vec![("id", J::str(id)), ("why", J::Str(why))]));
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        fail("usage: perfbench batch|layers|serve-load [flags]");
    };
    let args = Args::parse(rest);
    match command.as_str() {
        "batch" => batch(&args),
        "judge" => judge(),
        "layers" => layers::main(
            args.workload(),
            args.num("seed"),
            &PathBuf::from(args.get("root")),
            &PathBuf::from(args.get("spans")),
        ),
        "serve-load" => serveload::main(args.num("seed"), args.num("seconds"), args.get("mode")),
        other => fail(&format!("unknown subcommand {other}")),
    }
}
