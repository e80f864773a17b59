//! Log memory footprint over time (§6.2):
//! `spbc-memory [workload] [clusters] [ckpt-every]` (default: a wave every
//! sixth of the run, so the saw-tooth of log GC shows).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let w = args
        .get(1)
        .and_then(|n| spbc_apps::Workload::by_name(n))
        .unwrap_or(spbc_apps::Workload::MiniGhost);
    let k: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
    let scale = spbc_harness::Scale::from_env();
    let every: u64 =
        args.get(3).and_then(|v| v.parse().ok()).unwrap_or_else(|| (scale.iters / 6).max(1));
    eprintln!("scale: {scale:?}");
    let tick = std::time::Duration::from_millis(5);
    let profile =
        spbc_harness::memory::run_workload(w, &scale, k, every, tick).expect("memory run");
    println!("{}", spbc_harness::memory::render(&profile));
}
