#!/usr/bin/env sh
# Full local CI: build, rustdoc, workspace clippy, a negative check that
# the toolchain and the provenance unit test reject one injected violation
# of each model-integrity invariant, tests, and an end-to-end smoke of the
# resilient all_figures harness — including a negative check that an
# injected figure failure is isolated, recorded in the manifest, and
# turned into a nonzero exit.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

echo "== ci: cargo build --release"
cargo build --release

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
MANIFEST=target/figures/manifest.json

echo "== ci: all_figures smoke (tiny scale)"
"$BIN" --scale 256 --reps 1 >/dev/null
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

echo "== ci: layered facade size gate"
MACHINE_LINES=$(wc -l < crates/sgx-sim/src/machine.rs)
if [ "$MACHINE_LINES" -gt 400 ]; then
    echo "ci: FAIL — machine.rs facade is $MACHINE_LINES lines (gate: 400); grow the layer modules under crates/sgx-sim/src/machine/ instead" >&2
    exit 1
fi
echo "ci: machine.rs facade at $MACHINE_LINES lines (gate: 400)"

echo "== ci: parallel determinism (--jobs 1 vs --jobs 2, byte-identical outputs)"
# Every job whose points go through `sweep` runs them on
# max(1, cores / workers) threads. On a 2-core host this therefore also
# compares those jobs sharded (--jobs 1) against inline (--jobs 2); on
# one core both runs keep them inline.
if [ "$(nproc)" -le 1 ]; then
    echo "ci: one CPU — both runs keep every job's point sweep inline; sharded vs inline is not compared here"
fi
FIG_TMP=$(mktemp -d)
T0=$(date +%s)
"$BIN" --scale 256 --reps 1 --jobs 1 >/dev/null
T1=$(date +%s)
mkdir -p "$FIG_TMP/jobs1"
cp target/figures/*.json target/figures/*.svg "$FIG_TMP/jobs1/"
"$BIN" --normalize-manifest "$MANIFEST" > "$FIG_TMP/jobs1.manifest.normalized.json"
T2=$(date +%s)
"$BIN" --scale 256 --reps 1 --jobs 2 >/dev/null
T3=$(date +%s)
"$BIN" --normalize-manifest "$MANIFEST" > "$FIG_TMP/jobs2.manifest.normalized.json"
echo "ci: timings — jobs=1: $((T1 - T0))s, jobs=2: $((T3 - T2))s (a 1-CPU container shows no speedup; multi-core hosts do)"
if ! cmp -s "$FIG_TMP/jobs1.manifest.normalized.json" "$FIG_TMP/jobs2.manifest.normalized.json"; then
    echo "ci: FAIL — normalized manifests differ between --jobs 1 and --jobs 2" >&2
    exit 1
fi
for f in "$FIG_TMP"/jobs1/*.json "$FIG_TMP"/jobs1/*.svg; do
    name=$(basename "$f")
    case "$name" in manifest*) continue ;; esac
    if ! cmp -s "$f" "target/figures/$name"; then
        echo "ci: FAIL — $name differs between --jobs 1 and --jobs 2" >&2
        exit 1
    fi
done
rm -rf "$FIG_TMP"

echo "== ci: profile determinism (--profile off by default, byte-identical across --jobs)"
PROF_TMP=$(mktemp -d)
rm -f target/figures/*.profile.json target/figures/*.profile.svg
"$BIN" --scale 256 --reps 1 --jobs 1 >/dev/null
if ls target/figures/*.profile.json >/dev/null 2>&1; then
    echo "ci: FAIL — profiles must not be emitted without --profile" >&2
    exit 1
fi
mkdir -p "$PROF_TMP/plain"
cp target/figures/*.json "$PROF_TMP/plain/"
"$BIN" --scale 256 --reps 1 --jobs 1 --profile >/dev/null
if ! ls target/figures/*.profile.json >/dev/null 2>&1; then
    echo "ci: FAIL — --profile must emit at least one profile.json" >&2
    exit 1
fi
mkdir -p "$PROF_TMP/jobs1"
cp target/figures/*.json target/figures/*.svg "$PROF_TMP/jobs1/"
for f in "$PROF_TMP"/plain/*.json; do
    name=$(basename "$f")
    case "$name" in manifest*) continue ;; esac
    if ! cmp -s "$f" "target/figures/$name"; then
        echo "ci: FAIL — --profile perturbed figure output $name" >&2
        exit 1
    fi
done
"$BIN" --scale 256 --reps 1 --jobs 2 --profile >/dev/null
for f in "$PROF_TMP"/jobs1/*.json "$PROF_TMP"/jobs1/*.svg; do
    name=$(basename "$f")
    case "$name" in manifest*) continue ;; esac
    if ! cmp -s "$f" "target/figures/$name"; then
        echo "ci: FAIL — $name differs between --profile --jobs 1 and --jobs 2" >&2
        exit 1
    fi
done
rm -rf "$PROF_TMP"
rm -f target/figures/*.profile.json target/figures/*.profile.svg

echo "== ci: all_figures negative check (injected failure)"
rm -f target/figures/fig05.json
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
if [ ! -f target/figures/fig05.json ]; then
    echo "ci: FAIL — figures before the failure must still be emitted" >&2
    exit 1
fi

echo "== ci: benchmark self-test (a flipped digest must exit 1, retagged goldens exit 2)"
python3 perfbench/run.py --self-test

echo "== ci: benchmark unit tests (perfbench is a workspace of its own)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# With `--only <one job>`, run_registry clamps the worker count to the
# number of selected jobs, so both runs below use one worker whatever
# `--jobs` says: this smoke and the storage-path one are two-run
# determinism checks. integration_equivalence.rs covers `--jobs 4`.
echo "== ci: service tail smoke (byte-identical across two runs)"
SVC_TMP=$(mktemp -d)
"$BIN" --only ext_service_tail --scale 256 --reps 1 --jobs 1 >/dev/null
mkdir -p "$SVC_TMP/run1"
cp target/figures/ext_service_tail*.json "$SVC_TMP/run1/"
"$BIN" --only ext_service_tail --scale 256 --reps 1 --jobs 2 >/dev/null
for f in "$SVC_TMP"/run1/*.json; do
    name=$(basename "$f")
    if ! cmp -s "$f" "target/figures/$name"; then
        echo "ci: FAIL — $name differs between two service-tail runs" >&2
        exit 1
    fi
done

echo "== ci: service overload negative check (admission control must shed load)"
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

echo "== ci: storage path smoke (byte-identical across two runs)"
STO_TMP=$(mktemp -d)
"$BIN" --only ext_storage_path --scale 256 --reps 1 --jobs 1 >/dev/null
mkdir -p "$STO_TMP/run1"
cp target/figures/ext_storage_path*.json "$STO_TMP/run1/"
"$BIN" --only ext_storage_path --scale 256 --reps 1 --jobs 4 >/dev/null
for f in "$STO_TMP"/run1/*.json; do
    name=$(basename "$f")
    if ! cmp -s "$f" "target/figures/$name"; then
        echo "ci: FAIL — $name differs between two storage-path runs" >&2
        exit 1
    fi
done
rm -rf "$STO_TMP"

# Pick the two highest-numbered BENCH_pr<N>.json trajectory files in $1,
# oldest first, one per line. Extracts <N> by stripping the literal
# prefix/suffix and refuses to proceed if what remains is not a pure
# decimal number: the old `sort -t'r' -k2 -n` hack split on the letter
# 'r' (field 2 of BENCH_pr10.json is empty), silently falling back to
# lexical order, so pr9 sorted after pr10 and the gate compared the
# wrong PRs.
pick_trend_files() {
    _dir=$1
    _rows=""
    for _f in "$_dir"/BENCH_pr*.json; do
        [ -e "$_f" ] || return 0
        _base=$(basename "$_f")
        _n=${_base#BENCH_pr}
        _n=${_n%.json}
        case "$_n" in
            ''|*[!0-9]*)
                echo "ci: FAIL — unparseable trajectory name '$_base' (want BENCH_pr<number>.json)" >&2
                return 1
                ;;
        esac
        _rows="$_rows$_n $_base
"
    done
    printf '%s' "$_rows" | sort -n -k1,1 | tail -2 | while read -r _n _base; do
        echo "$_dir/$_base"
    done
}

echo "== ci: perf-trend file-picker checks (numeric order, malformed names fail)"
TREND_TMP=$(mktemp -d)
echo '{}' > "$TREND_TMP/BENCH_pr9.json"
echo '{}' > "$TREND_TMP/BENCH_pr10.json"
PICKED=$(pick_trend_files "$TREND_TMP")
WANT="$TREND_TMP/BENCH_pr9.json
$TREND_TMP/BENCH_pr10.json"
if [ "$PICKED" != "$WANT" ]; then
    echo "ci: FAIL — trend picker must order pr9 before pr10 (numeric, not lexical); got: $PICKED" >&2
    exit 1
fi
echo '{}' > "$TREND_TMP/BENCH_prX.json"
if pick_trend_files "$TREND_TMP" >/dev/null 2>&1; then
    echo "ci: FAIL — malformed BENCH_pr name must fail the trend picker" >&2
    exit 1
fi
rm -rf "$TREND_TMP"

echo "== ci: perf-trend gate (latest two BENCH_*.json, watched rows via sim_bench --trend)"
# Compare the two newest checked-in trajectory files on the watched rows
# (join-smoke, scan-smoke): a >30 % events/sec drop fails CI. Wall-clock
# throughput is only comparable on a multi-core host of the trajectory's
# class; on a 1-CPU container the gate still runs but demotes a trip to a
# loud warning (--warn-only) instead of a failure.
TREND_FILES=$(pick_trend_files .)
if [ "$(printf '%s\n' $TREND_FILES | wc -l)" -lt 2 ]; then
    echo "ci: perf-trend gate skipped — need at least two BENCH_pr*.json files"
else
    TREND_OLD=$(printf '%s\n' $TREND_FILES | head -1)
    TREND_NEW=$(printf '%s\n' $TREND_FILES | tail -1)
    TREND_FLAGS=""
    if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
        TREND_FLAGS="--warn-only"
    fi
    target/release/sim_bench --trend "$TREND_OLD" "$TREND_NEW" $TREND_FLAGS
fi

echo "== ci: OK"
