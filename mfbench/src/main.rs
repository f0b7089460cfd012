use mfbench::inputs::Workload;
use mfbench::metrics::{END_TO_END, PER_LAYER};
use mfbench::trace::Tracer;
use mfbench::{layers, procstat, serve, synth};
use std::io::Write;

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_trace";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match mfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfbench: {e}");
            std::process::exit(2);
        }
    };
    let serve = matches!(args.workload, Workload::ServeReuse | Workload::ServeCold);
    let (outcome, defs) = if args.trace {
        let mut tracer = Tracer::new(true);
        let outcome = if serve {
            serve::run_traced(&args, &mut tracer)
        } else {
            synth::run_traced(&args, &mut tracer)
        };
        print!("{}", layers::table(&tracer.totals()));
        if let Err(e) = write_spans(&args, &tracer) {
            eprintln!("mfbench: could not write the spans: {e}");
            std::process::exit(1);
        }
        (outcome, PER_LAYER)
    } else if serve {
        (serve::run(&args), END_TO_END)
    } else {
        (synth::run(&args), END_TO_END)
    };
    for b in &outcome.broken {
        eprintln!("mfbench: {b}");
    }
    println!(
        r#"{{"workload":"{}","seed":{},"trace":{},"nproc":{},"threads":{},"commit":"{}"}}"#,
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        procstat::nproc(),
        mfhls_par::max_threads(),
        procstat::commit()
    );
    match outcome.result_line(defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("mfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn write_spans(args: &mfbench::RunArgs, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    out.flush()?;
    println!("mfbench: {} spans written to {path}", tracer.spans().len());
    Ok(())
}
