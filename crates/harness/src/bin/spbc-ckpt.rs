//! Regenerate the `ckpt_delta` report (logical vs physical checkpoint
//! bytes under CDC manifests and full blobs) and write the
//! `BENCH_ckpt.json` baseline. An optional argument overrides the output
//! path.

fn main() {
    let scale = spbc_harness::Scale::from_env();
    eprintln!("scale: {scale:?}");
    let rows = spbc_harness::ckpt::run(&scale).expect("ckpt report run");
    println!("{}", spbc_harness::ckpt::render(&rows));
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_ckpt.json".into());
    std::fs::write(&out, spbc_harness::ckpt::to_json(&rows)).expect("write BENCH_ckpt.json");
    eprintln!("wrote {out}");
}
