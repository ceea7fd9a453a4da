#!/usr/bin/env sh
# Acceptance check for the parallel sweep executor: every observable
# output of a parallel run must be byte-identical to the serial run.
#
# Runs cache_explorer (stdout, merged metrics JSONL, MRC/working-set
# CSVs, heatmap JSON, per-leg snapshots, sweep manifest) and three
# representative bench drivers (stdout + CSVs) at --jobs 1 and --jobs 8
# and byte-compares everything. cache_explorer also runs at --jobs 3,
# whose lockstep groups of 2/2/1 legs share one render each, and
# across groupings: killed (SIGKILL) at --jobs 1, resumed at --jobs 3.
# The only permitted differences are the worker count echoed in the
# banner and absolute paths, which are normalized before the diff. See
# docs/parallelism.md.
#
# Usage: scripts/check_parallel_invariance.sh [build-dir]
set -eu
cd "$(dirname "$0")/.."
BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fail=0

# Strip run-local details a human reader would also ignore: the jobs
# count in the banner and the temp directory in artifact paths.
normalize() { # file jobsdir
    sed -e 's/[0-9][0-9]* jobs/N jobs/' -e "s#$2#OUT#g" "$1"
}

explorer() { # jobs outdir [extra flags...]
    jobs="$1"; out="$2"; shift 2
    mkdir -p "$out"
    "$BUILD/examples/cache_explorer" --sweep l2 --workload village \
        --frames 2 --jobs "$jobs" \
        --metrics-out "$out/run.jsonl" \
        --mrc-out "$out/mrc" --heatmap-out "$out/heat" --mrc-interval 2 \
        --checkpoint "$out/ckpt.snap" --checkpoint-every 1 \
        "$@" > "$out/stdout.txt"
}

compare_explorer() { # refdir outdir what files...
    ref="$1"; out="$2"; what="$3"; shift 3
    for f in "$@"; do
        if ! normalize "$ref/$f" "$ref" > "$WORK/a" || \
           ! normalize "$out/$f" "$out" > "$WORK/b"; then
            echo "FAIL: missing artifact $f ($what)"; fail=1; continue
        fi
        if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
            echo "FAIL: $f differs ($what)"
            diff -u "$WORK/a" "$WORK/b" | head -20
            fail=1
        fi
    done
    for snap in "$ref"/ckpt.snap.leg*; do
        if ! cmp -s "$snap" "$out/$(basename "$snap")"; then
            echo "FAIL: snapshot $(basename "$snap") differs ($what)"
            fail=1
        fi
    done
}

ALL="stdout.txt run.jsonl mrc.csv mrc.ws.csv mrc.json heat.json
     ckpt.snap.manifest"

echo "== cache_explorer --sweep l2 (jobs 1 vs 8) =="
explorer 1 "$WORK/e1"
explorer 8 "$WORK/e8"
# shellcheck disable=SC2086
compare_explorer "$WORK/e1" "$WORK/e8" "jobs=1 vs jobs=8" $ALL

# Lockstep groups: --jobs 3 splits the 5 legs into groups of 2/2/1,
# each rendering every frame once for its legs; --jobs 1 is one group.
echo "== cache_explorer --sweep l2 (jobs 1 vs 3: groups 2/2/1) =="
explorer 3 "$WORK/e3"
# shellcheck disable=SC2086
compare_explorer "$WORK/e1" "$WORK/e3" "jobs=1 vs jobs=3" $ALL

# Cross-grouping crash: SIGKILL right after leg 0's first checkpoint in
# the one-group --jobs 1 run (legs 1-4 never checkpointed), then resume
# at --jobs 3, where leg 0 resumes at frame 1 inside a group whose
# other leg starts fresh at frame 0. Stdout, snapshots and manifest
# must equal the straight run.
echo "== cache_explorer --sweep l2 (SIGKILL at jobs 1, resume at jobs 3) =="
status=0
explorer 1 "$WORK/k" --die-after-checkpoint 1 2>/dev/null || status=$?
if [ "$status" -eq 0 ]; then
    echo "FAIL: crash run was expected to die but exited 0"; fail=1
fi
if [ ! -f "$WORK/k/ckpt.snap.leg0" ] || [ -f "$WORK/k/ckpt.snap.leg1" ]; then
    echo "FAIL: crash run did not die after leg 0's first checkpoint"
    fail=1
fi
explorer 3 "$WORK/k" --resume
compare_explorer "$WORK/e1" "$WORK/k" "straight vs killed+resumed" \
    stdout.txt ckpt.snap.manifest

# Cross-mode leg: the batched access path (docs/batched_access.md) at
# jobs=8 against the scalar path at jobs=1 — one diff proving batch
# equivalence and thread invariance compose. Subshells keep the
# MLTC_BATCH override out of the other legs.
echo "== cache_explorer --sweep l2 (batched jobs 8 vs scalar jobs 1) =="
( export MLTC_BATCH=0; explorer 1 "$WORK/s1" )
( export MLTC_BATCH=1; explorer 8 "$WORK/s8" )
for f in stdout.txt run.jsonl mrc.csv mrc.ws.csv mrc.json heat.json \
         ckpt.snap.manifest; do
    if ! normalize "$WORK/s1/$f" "$WORK/s1" > "$WORK/a" || \
       ! normalize "$WORK/s8/$f" "$WORK/s8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: $f differs between scalar jobs=1 and batched jobs=8"
        diff -u "$WORK/a" "$WORK/b" | head -20
        fail=1
    fi
done
for snap in "$WORK"/s1/ckpt.snap.leg*; do
    if ! cmp -s "$snap" "$WORK/s8/$(basename "$snap")"; then
        echo "FAIL: cross-mode snapshot $(basename "$snap") differs"
        fail=1
    fi
done

multistream() { # jobs outdir
    mkdir -p "$2"
    "$BUILD/examples/cache_explorer" --streams 4 --rounds 3 \
        --l2-policy utility --stream-workloads village,city,thrasher,city \
        --jobs "$1" --metrics-out "$2/run.jsonl" \
        --checkpoint "$2/ms.snap" --checkpoint-every 2 \
        --csv-prefix "$2/ms" > "$2/stdout.txt"
}

echo "== cache_explorer --streams 4 (jobs 1 vs 8) =="
multistream 1 "$WORK/m1"
multistream 8 "$WORK/m8"
if ! cmp -s "$WORK/m1/ms.snap" "$WORK/m8/ms.snap"; then
    echo "FAIL: multi-stream checkpoint differs between jobs=1 and jobs=8"
    fail=1
fi
for f in stdout.txt run.jsonl ms.stream0.csv ms.stream1.csv \
         ms.stream2.csv ms.stream3.csv; do
    if ! normalize "$WORK/m1/$f" "$WORK/m1" > "$WORK/a" || \
       ! normalize "$WORK/m8/$f" "$WORK/m8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: multi-stream $f differs between jobs=1 and jobs=8"
        fail=1
    fi
done

echo "== cache_explorer --streams 4 (batched vs scalar) =="
( export MLTC_BATCH=0; multistream 1 "$WORK/t1" )
( export MLTC_BATCH=1; multistream 8 "$WORK/t8" )
if ! cmp -s "$WORK/t1/ms.snap" "$WORK/t8/ms.snap"; then
    echo "FAIL: multi-stream checkpoint differs between scalar and batched"
    fail=1
fi
for f in stdout.txt run.jsonl ms.stream0.csv ms.stream1.csv \
         ms.stream2.csv ms.stream3.csv; do
    if ! normalize "$WORK/t1/$f" "$WORK/t1" > "$WORK/a" || \
       ! normalize "$WORK/t8/$f" "$WORK/t8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: multi-stream $f differs between scalar and batched"
        fail=1
    fi
done

for bench in tab03_avg_bandwidth tab05_06_l2_hitrates fig09_tab02_l1; do
    echo "== $bench (MLTC_JOBS 1 vs 8) =="
    mkdir -p "$WORK/b1" "$WORK/b8"
    MLTC_FRAMES=2 MLTC_OUT_DIR="$WORK/b1" MLTC_JOBS=1 \
        "$BUILD/bench/$bench" > "$WORK/b1/$bench.txt"
    MLTC_FRAMES=2 MLTC_OUT_DIR="$WORK/b8" MLTC_JOBS=8 \
        "$BUILD/bench/$bench" > "$WORK/b8/$bench.txt"
    normalize "$WORK/b1/$bench.txt" "$WORK/b1" > "$WORK/a"
    normalize "$WORK/b8/$bench.txt" "$WORK/b8" > "$WORK/b"
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: $bench stdout differs"; fail=1
    fi
    for csv in "$WORK"/b1/*.csv; do
        if ! cmp -s "$csv" "$WORK/b8/$(basename "$csv")"; then
            echo "FAIL: $(basename "$csv") differs"; fail=1
        fi
    done
    rm -rf "$WORK/b1" "$WORK/b8"
done

if [ "$fail" -ne 0 ]; then
    echo "FAIL: parallel run is not byte-identical to serial"
    exit 1
fi
echo "OK: jobs=8 outputs byte-identical to jobs=1"
