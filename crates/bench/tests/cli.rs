//! The `experiments` binary rejects what it cannot run: an unknown
//! subcommand or a non-numeric `--threads` prints the subcommand list and
//! exits 2 instead of silently doing nothing (or something else).

use std::process::Command;

#[test]
fn bad_invocations_print_the_subcommands_and_exit_2() {
    for args in [
        &["solver-gate", "-D"][..],
        &["bench"],
        &["fig2", "--threads", "four"],
        &["fig2", "--threads"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("subcommands: fig2 fig3"),
            "{args:?}: {stderr}"
        );
    }
}
