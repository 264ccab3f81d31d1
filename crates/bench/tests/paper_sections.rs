//! The paper's own evaluation, pinned: the stdout of the seven
//! paper-section bins (§VIII-D1/D2/D3, §VIII-B, the ablation suite, the
//! §V deployment modes, the SWF trace replay) must equal
//! `tests/golden/<bin>.txt` byte for byte. The goldens are also what
//! EXPERIMENTS.md quotes (`scripts/doccheck.sh` holds the two together).
//!
//! Regenerate deliberately: `target/release/<bin> >
//! crates/bench/tests/golden/<bin>.txt` — and say so in the PR.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{bin}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual == expected {
        return;
    }
    let saved = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}.txt"));
    std::fs::write(&saved, &actual).expect("write actual stdout");
    let same = expected
        .lines()
        .zip(actual.lines())
        .take_while(|(w, g)| w == g)
        .count();
    panic!(
        "{bin} stdout differs from {} at line {}\n  golden: {}\n  actual: {}\nfull actual output: diff {} {}",
        golden.display(),
        same + 1,
        expected.lines().nth(same).unwrap_or("<end of file>"),
        actual.lines().nth(same).unwrap_or("<end of output>"),
        golden.display(),
        saved.display(),
    );
}

macro_rules! paper_section {
    ($($(#[$attr:meta])* $bin:ident),* $(,)?) => {$(
        #[test]
        $(#[$attr])*
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

paper_section! {
    // 55 s unoptimised against 4 s in release; `scripts/ci.sh` runs this
    // file with `--release`, where nothing is ignored
    #[cfg_attr(debug_assertions, ignore)]
    scalability,
    netsweep,
    diskio,
    overhead,
    ablations,
    deployment_modes,
    trace_replay,
}
