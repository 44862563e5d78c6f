#!/usr/bin/env sh
# Full local CI, in this order:
# - a Cargo.lock that matches the workspace: a plain `cargo build`
#   silently rewrites one that does not, so a mismatch would pass and
#   leave the tree dirty. `--locked` rejects a lock that lacks a member or
#   dependency; a resolution without it must leave the lock unchanged,
#   which catches an entry nothing uses any more (a deleted crate's);
# - release build, rustdoc and workspace clippy, warnings as errors;
# - a negative check that the toolchain and the provenance unit test
#   reject one injected violation of each model-integrity invariant;
# - `cargo test`. Its tests/integration_equivalence.rs is the determinism
#   gate: three golden-profile registry runs (profiled on one worker,
#   whose sweeps shard on two or more cores, unprofiled on four and
#   unprofiled on one) each match every digest in tests/goldens/;
# - one whole-registry all_figures smoke at 1/256 with --profile: every
#   job ok, every figure's JSON and SVG, one profile per job;
# - the machine.rs facade size gate;
# - a failure run: an injected job failure stays isolated, is recorded in
#   the manifest and exits nonzero, and nothing is profiled without
#   --profile;
# - perfbench's self-test and its unit tests;
# - service_bench's overload check: admission control sheds load with the
#   same report on two runs, and a service without admission fails it.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

echo "== ci: cargo build --release --locked"
cargo build --release --locked
LOCK_TMP=$(mktemp)
cp Cargo.lock "$LOCK_TMP"
cargo metadata --offline --format-version 1 >/dev/null
if ! cmp -s Cargo.lock "$LOCK_TMP"; then
    cp "$LOCK_TMP" Cargo.lock
    rm -f "$LOCK_TMP"
    echo "ci: FAIL — Cargo.lock lists packages the workspace no longer has; rebuild and commit it" >&2
    exit 1
fi
rm -f "$LOCK_TMP"

echo "== ci: rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== ci: clippy on the workspace, every target (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== ci: toolchain negative check (injected invariant violations must not build)"
# The workspace lints, clippy.toml, the private cycle types and the counter
# destructurings apply only inside this workspace, so the violations go
# into a scratch copy of it. Each check greps the JSON diagnostics for a
# lint or error code.
TC_TMP=$(mktemp -d)
mkdir -p "$TC_TMP/ws"
cp -r Cargo.toml Cargo.lock clippy.toml crates vendor tests examples "$TC_TMP/ws/"
tc_build() { # <log> <cargo command> <args>...: run cargo in the copy; must fail
    _log=$1
    _cmd=$2
    shift 2
    if (cd "$TC_TMP/ws" && CARGO_TARGET_DIR="$TC_TMP/target" cargo "$_cmd" \
            --message-format json "$@") > "$_log" 2>/dev/null; then
        echo "ci: FAIL — cargo $_cmd $* accepted an injected violation" >&2
        exit 1
    fi
}
tc_names() { # <log> <code>...: each code must appear in the diagnostics
    _log=$1
    shift
    for _code in "$@"; do
        if ! grep -q "\"code\":{\"code\":\"$_code\"" "$_log"; then
            echo "ci: FAIL — an injected violation did not surface as $_code" >&2
            exit 1
        fi
    done
}
DES="$TC_TMP/ws/crates/sgx-serve/src/des.rs"
cp "$DES" "$TC_TMP/des.rs"
cat >> "$DES" <<'EOF'

#[allow(dead_code)]
fn injected_violations(k: &EvKind, o: std::cmp::Ordering, x: Option<u64>) -> u64 {
    unsafe {}
    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let t = std::time::Instant::now();
    let wide = match o {
        std::cmp::Ordering::Less => 1,
        _ => 0,
    };
    match k {
        EvKind::Arrive { .. } => x.unwrap() + m.len() as u64 + t.elapsed().as_secs() + wide,
        _ => 0,
    }
}
EOF
tc_build "$TC_TMP/clippy.json" clippy -q -p sgx-serve -- -D warnings
tc_names "$TC_TMP/clippy.json" unsafe_code clippy::disallowed_types clippy::unwrap_used \
    clippy::wildcard_enum_match_arm clippy::match_wildcard_for_single_variants
for ty in std::collections::HashMap std::time::Instant; do
    if ! grep -q "disallowed type \`$ty\`" "$TC_TMP/clippy.json"; then
        echo "ci: FAIL — the injected $ty did not surface as a disallowed type" >&2
        exit 1
    fi
done
cp "$TC_TMP/des.rs" "$DES"
# Model integrity in an operator crate: an uncharged read of simulated
# memory, and a `Result` dropped by `let _ =` or by `.ok();`.
OPS="$TC_TMP/ws/crates/sgx-joins/src/data.rs"
cp "$OPS" "$TC_TMP/ops.rs"
cat >> "$OPS" <<'EOF'

/// An uncharged read and two dropped results.
pub fn injected_untracked_sum(r: &SimVec<Row>) -> u64 {
    let _ = "1".parse::<u32>();
    "1".parse::<u32>().ok();
    r.as_slice_untracked().iter().map(|row| u64::from(row.key)).sum()
}
EOF
tc_build "$TC_TMP/ops.json" clippy -q -p sgx-joins -- -D warnings
tc_names "$TC_TMP/ops.json" clippy::disallowed_methods clippy::let_underscore_must_use \
    clippy::unused_result_ok
cp "$TC_TMP/ops.rs" "$OPS"
# A narrowing cast of a counter.
CNT="$TC_TMP/ws/crates/sgx-sim/src/counters.rs"
cp "$CNT" "$TC_TMP/counters.rs"
cat >> "$CNT" <<'EOF'

/// A narrowing counter cast.
pub fn injected_truncation(c: &Counters) -> u32 {
    c.loads as u32
}
EOF
tc_build "$TC_TMP/cast.json" clippy -q -p sgx-sim -- -D warnings
tc_names "$TC_TMP/cast.json" clippy::cast_possible_truncation
cp "$TC_TMP/counters.rs" "$CNT"
# Cycles that skip `Core::commit` and the fault tick: a layer adding to
# the busy clock (E0368: `Busy` has no `+=`) or to the wall clock's
# private field (E0616).
HIER="$TC_TMP/ws/crates/sgx-sim/src/machine/hierarchy.rs"
cp "$HIER" "$TC_TMP/hierarchy.rs"
cat >> "$HIER" <<'EOF'

impl<'m> Core<'m> {
    pub(super) fn turbo_bump(&mut self) {
        self.cycles += 7.0;
    }

    pub(super) fn wall_bump(&mut self) {
        self.m.wall.0 += 1.0;
    }
}
EOF
tc_build "$TC_TMP/cycles.json" check -q -p sgx-sim
tc_names "$TC_TMP/cycles.json" E0368 E0616
cp "$TC_TMP/hierarchy.rs" "$HIER"
# A calibration constant without provenance fails its unit test.
CFG="$TC_TMP/ws/crates/sgx-sim/src/config.rs"
cp "$CFG" "$TC_TMP/config.rs"
awk '$0 == "#[cfg(test)]" && !done { print "pub const INJECTED: f64 = 3.5;"; print ""; done = 1 } { print }' \
    "$TC_TMP/config.rs" > "$CFG"
tc_build "$TC_TMP/provenance.log" test -q -p sgx-sim --lib \
    config::tests::calibration_constants_carry_provenance
if ! grep -q "hold a numeric constant without" "$TC_TMP/provenance.log"; then
    echo "ci: FAIL — an untagged config.rs constant did not fail the provenance test" >&2
    exit 1
fi
cp "$TC_TMP/config.rs" "$CFG"
# One new field per counter struct must fail to compile (E0027: a
# destructuring pattern does not mention it) until it is merged and
# reported.
for spec in "sgx-sim/src/counters.rs:pub struct Counters {" \
    "sgx-sim/src/profile.rs:pub struct CategoryCycles {" \
    "sgx-serve/src/counters.rs:pub struct ServiceCounters {"; do
    file="$TC_TMP/ws/crates/${spec%%:*}"
    decl=${spec#*:}
    cp "$file" "$TC_TMP/orig.rs"
    awk -v decl="$decl" '{ print } $0 == decl { print "    pub injected: u64," }' \
        "$TC_TMP/orig.rs" > "$file"
    if ! grep -q "pub injected: u64" "$file"; then
        echo "ci: FAIL — no \`$decl\` line to inject a field after" >&2
        exit 1
    fi
    tc_build "$TC_TMP/check.json" check -q --workspace
    tc_names "$TC_TMP/check.json" E0027
    cp "$TC_TMP/orig.rs" "$file"
done
rm -rf "$TC_TMP"

echo "== ci: cargo test -q"
cargo test -q

BIN=target/release/all_figures
FIGS=target/figures
MANIFEST=$FIGS/manifest.json

echo "== ci: all_figures smoke (whole registry, tiny scale, --profile)"
# The one registry run here. It runs at 1/256, a scale the goldens do not
# pin, and checks what only the binary does: the files it writes.
rm -rf "$FIGS"
"$BIN" --scale 256 --reps 1 --profile >/dev/null
REGISTERED=$("$BIN" --list | wc -l)
OK=$(grep -c '"status": "ok"' "$MANIFEST")
if [ "$OK" -ne "$REGISTERED" ]; then
    echo "ci: FAIL — manifest has $OK ok jobs, expected all $REGISTERED" >&2
    exit 1
fi
if grep -q '"status": "failed"' "$MANIFEST" || grep -q '"status": "skipped"' "$MANIFEST"; then
    echo "ci: FAIL — clean run must have no failed/skipped manifest entries" >&2
    exit 1
fi
for id in $("$BIN" --list); do
    for ext in profile.json profile.svg; do
        if [ ! -f "$FIGS/$id.$ext" ]; then
            echo "ci: FAIL — --profile wrote no $id.$ext" >&2
            exit 1
        fi
    done
done
for f in "$FIGS"/*.json; do
    case "$f" in "$MANIFEST" | *.profile.json) continue ;; esac
    if [ ! -f "${f%.json}.svg" ]; then
        echo "ci: FAIL — $(basename "$f") has no SVG next to it" >&2
        exit 1
    fi
done

echo "== ci: layered facade size gate"
MACHINE_LINES=$(wc -l < crates/sgx-sim/src/machine.rs)
if [ "$MACHINE_LINES" -gt 400 ]; then
    echo "ci: FAIL — machine.rs facade is $MACHINE_LINES lines (gate: 400); grow the layer modules under crates/sgx-sim/src/machine/ instead" >&2
    exit 1
fi
echo "ci: machine.rs facade at $MACHINE_LINES lines (gate: 400)"

echo "== ci: all_figures negative check (injected failure, no profiles without --profile)"
rm -f "$FIGS"/*.profile.json "$FIGS"/*.profile.svg "$FIGS"/fig05.json
if ALL_FIGURES_FAIL=fig07 "$BIN" --only fig05,fig07 --scale 256 --reps 1 >/dev/null 2>&1; then
    echo "ci: FAIL — injected figure failure must exit nonzero" >&2
    exit 1
fi
FAILED=$(grep -c '"status": "failed"' "$MANIFEST")
if [ "$FAILED" -ne 1 ]; then
    echo "ci: FAIL — expected exactly one failed manifest entry, got $FAILED" >&2
    exit 1
fi
if ! grep -q '"id": "fig07"' "$MANIFEST"; then
    echo "ci: FAIL — manifest must name the failed job" >&2
    exit 1
fi
if [ ! -f "$FIGS/fig05.json" ]; then
    echo "ci: FAIL — figures before the failure must still be emitted" >&2
    exit 1
fi
for f in "$FIGS"/*.profile.json "$FIGS"/*.profile.svg; do
    if [ -e "$f" ]; then
        echo "ci: FAIL — profiles must not be emitted without --profile ($(basename "$f"))" >&2
        exit 1
    fi
done

echo "== ci: benchmark self-test (a flipped digest must exit 1, retagged goldens exit 2)"
python3 perfbench/run.py --self-test

echo "== ci: benchmark unit tests (perfbench is a workspace of its own)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== ci: service overload negative check (admission control must shed load)"
SVC_TMP=$(mktemp -d)
SB=target/release/service_bench
"$SB" --scale 256 --overload 8 --expect-shedding --json "$SVC_TMP/shed1.json" 2>/dev/null
"$SB" --scale 256 --overload 8 --expect-shedding --json "$SVC_TMP/shed2.json" 2>/dev/null
if ! cmp -s "$SVC_TMP/shed1.json" "$SVC_TMP/shed2.json"; then
    echo "ci: FAIL — service_bench report must be byte-identical across runs" >&2
    exit 1
fi
# A service with admission disabled cannot shed: the same check must fail.
if "$SB" --scale 256 --overload 8 --no-admission --expect-shedding >/dev/null 2>&1; then
    echo "ci: FAIL — --no-admission under overload must fail the shedding check (rejected=0)" >&2
    exit 1
fi
rm -rf "$SVC_TMP"

echo "== ci: OK"
