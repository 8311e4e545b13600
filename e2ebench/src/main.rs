//! Command line of the end-to-end benchmark:
//!
//! ```text
//! qokit-e2ebench --workload <labs_deep|landscape_scan|serve_mix> --seed <n>
//!                --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! The last line of standard output is the result object; the full record
//! (machine context, sample counts, op log) and, when traced, the spans
//! are written to `out/` next to this package's manifest.

use qokit_e2ebench::{record_json, result_json, run, RunCtx, Size};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    ctx: RunCtx,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err("--size takes full or smoke".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: RunCtx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qokit-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args.workload, args.ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qokit-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.ctx.seed, args.ctx.trace as u8
    );
    let record = record_json(&args.workload, &args.ctx, &out);
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), &record))
        .and_then(|()| match &out.spans {
            Some(t) => std::fs::write(dir.join(format!("{stem}-spans.json")), t.to_json()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("qokit-e2ebench: writing the run record: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{}: correct {} attempted {} failed {}; record in {}",
        args.workload,
        out.correct(),
        out.attempted,
        out.failed,
        dir.join(format!("{stem}.json")).display()
    );
    println!("{}", result_json(&out, args.ctx.trace));
    ExitCode::SUCCESS
}
