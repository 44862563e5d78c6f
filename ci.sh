#!/usr/bin/env sh
# Full local CI: build, rustdoc, tests, model-integrity lint, and an end-to-end
# smoke of the resilient all_figures harness — including a negative check
# that an injected figure failure is isolated, recorded in the manifest,
# and turned into a nonzero exit.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

echo "== ci: cargo build --release"
cargo build --release

echo "== ci: rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== ci: cargo test -q"
cargo test -q

echo "== ci: lint"
./lint.sh

echo "== ci: lint corpus self-check"
./lint.sh --score-corpus crates/sgx-lint/corpus >/dev/null

LINT=target/release/sgx-lint
LINT_TMP=$(mktemp -d)

echo "== ci: lint JSON baseline gate (two runs, byte-identical)"
"$LINT" --format json --baseline lint-baseline.json crates tests > "$LINT_TMP/run1.json"
"$LINT" --format json --baseline lint-baseline.json crates tests > "$LINT_TMP/run2.json"
if ! cmp -s "$LINT_TMP/run1.json" "$LINT_TMP/run2.json"; then
    echo "ci: FAIL — lint JSON report must be byte-identical across runs" >&2
    exit 1
fi
if ! grep -q '"total": 0.0' "$LINT_TMP/run1.json"; then
    echo "ci: FAIL — unbaselined lint findings present" >&2
    exit 1
fi

echo "== ci: lint negative self-check (injected violation)"
mkdir -p "$LINT_TMP/inject/src"
cat > "$LINT_TMP/inject/src/lib.rs" <<'EOF'
pub struct Counters {
    pub ghost: u64,
}
EOF
if "$LINT" --format json "$LINT_TMP/inject" > "$LINT_TMP/inject.json" 2>&1; then
    echo "ci: FAIL — injected violation must exit nonzero" >&2
    exit 1
fi
if ! grep -q '"rule": "counter-conservation"' "$LINT_TMP/inject.json"; then
    echo "ci: FAIL — injected violation must surface as counter-conservation" >&2
    exit 1
fi

echo "== ci: lint charge-escape negative check (injected choke-point bypass)"
# Copy the machine crate to scratch, verify the workspace+scratch scan is
# clean, then inject a `cycles +=` outside the `Core::commit` closure into
# the scratch copy: the dataflow rule must flag the bypass.
SIM_TMP=$(mktemp -d)
cp -r crates/sgx-sim "$SIM_TMP/sgx-sim"
if ! "$LINT" --baseline lint-baseline.json crates tests "$SIM_TMP/sgx-sim" >/dev/null 2>&1; then
    echo "ci: FAIL — pristine scratch copy of sgx-sim must lint clean alongside the workspace" >&2
    exit 1
fi
cat >> "$SIM_TMP/sgx-sim/src/machine/hierarchy.rs" <<'EOF'

impl<'m> Core<'m> {
    pub(super) fn turbo_bump(&mut self) {
        self.cycles += 7.0;
    }
}
EOF
if "$LINT" --format json --baseline lint-baseline.json crates tests "$SIM_TMP/sgx-sim" > "$LINT_TMP/bypass.json" 2>&1; then
    echo "ci: FAIL — injected commit bypass must exit nonzero" >&2
    exit 1
fi
if ! grep -q '"rule": "charge-escape"' "$LINT_TMP/bypass.json"; then
    echo "ci: FAIL — injected commit bypass must surface as charge-escape" >&2
    exit 1
fi
rm -rf "$SIM_TMP"

echo "== ci: lint stale-baseline self-check"
cat > "$LINT_TMP/stale.json" <<'EOF'
{"baseline": [{"path": "crates/does-not-exist.rs", "rule": "unsafe-code", "line": 1, "reason": "stale entry for the CI self-check"}]}
EOF
if "$LINT" --baseline "$LINT_TMP/stale.json" crates tests >/dev/null 2>&1; then
    echo "ci: FAIL — a stale baseline entry must exit nonzero" >&2
    exit 1
fi
rm -rf "$LINT_TMP"

RD_TMP=$(mktemp -d)
RD_FLOOR=95

echo "== ci: lint robustness RD gate (floor $RD_FLOOR, byte-identical across runs and --jobs)"
"$LINT" robustness --floor "$RD_FLOOR" --format json > "$RD_TMP/rd1.json"
"$LINT" robustness --floor "$RD_FLOOR" --format json > "$RD_TMP/rd2.json"
"$LINT" robustness --floor "$RD_FLOOR" --format json --jobs 4 > "$RD_TMP/rd4.json"
if ! cmp -s "$RD_TMP/rd1.json" "$RD_TMP/rd2.json"; then
    echo "ci: FAIL — robustness report must be byte-identical across runs" >&2
    exit 1
fi
if ! cmp -s "$RD_TMP/rd1.json" "$RD_TMP/rd4.json"; then
    echo "ci: FAIL — robustness report must be byte-identical across --jobs" >&2
    exit 1
fi
for rule in charge-escape des-invariant; do
    if ! grep -q "\"rule\": \"$rule\"" "$RD_TMP/rd1.json"; then
        echo "ci: FAIL — robustness report is missing the $rule row" >&2
        exit 1
    fi
done
for kind in alias dyncall xsplit; do
    if ! grep -q "\"kind\": \"$kind\"" "$RD_TMP/rd1.json"; then
        echo "ci: FAIL — robustness report is missing the $kind transform row" >&2
        exit 1
    fi
done

echo "== ci: lint robustness negative check (weakened rules must fail the floor)"
if "$LINT" robustness --floor "$RD_FLOOR" --weaken taint-indirection,taint-alias >/dev/null 2>&1; then
    echo "ci: FAIL — weakened rule set must drop RD below the floor" >&2
    exit 1
fi
if "$LINT" robustness --baseline lint-baseline.json >/dev/null 2>&1; then
    echo "ci: FAIL — robustness must reject --baseline" >&2
    exit 1
fi
rm -rf "$RD_TMP"

SC_TMP=$(mktemp -d)

echo "== ci: lint selfcheck (variant fuzz over pinned clean workspace files, byte-identical)"
"$LINT" selfcheck --format json > "$SC_TMP/sc1.json"
"$LINT" selfcheck --format json > "$SC_TMP/sc2.json"
if ! cmp -s "$SC_TMP/sc1.json" "$SC_TMP/sc2.json"; then
    echo "ci: FAIL — selfcheck report must be byte-identical across runs" >&2
    exit 1
fi
if ! grep -q '"false_positives": \[\]' "$SC_TMP/sc1.json"; then
    echo "ci: FAIL — variant of a clean workspace file produced a lint finding (rule false positive)" >&2
    exit 1
fi

echo "== ci: lint selfcheck negative check (dirty pin must be a usage error)"
cat > "$SC_TMP/dirty.rs" <<'EOF'
pub fn f(x: Option<u64>) -> u64 { x.unwrap() }
pub fn g() -> u64 { 1 }
EOF
SC_CODE=0
"$LINT" selfcheck "$SC_TMP/dirty.rs" >/dev/null 2>&1 || SC_CODE=$?
if [ "$SC_CODE" -ne 2 ]; then
    echo "ci: FAIL — selfcheck on a non-clean file must exit 2 (usage error), got $SC_CODE" >&2
    exit 1
fi
rm -rf "$SC_TMP"

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
# On a 2-core host this also compares sharded against inline fig05: one
# worker gives fig05's point sweep both cores, two workers leave it one.
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
