#!/usr/bin/env bash
# Reachability check: lists the library functions that no shipped binary
# links. Configures the tree with per-function sections and linker garbage
# collection, builds every bench/ and examples/ binary plus perfbench's
# e2e_bench, and prints each strong text symbol (nm type T) of the
# libcq_*.a archives that none of those binaries keeps. A symbol on the
# list is reached by tests at most: wire it in, delete it, or say why an
# oracle keeps it.
set -euo pipefail

usage() {
  cat <<'EOF'
Usage: scripts/check_reachability.sh [build-dir]     (default: build-reach)

Builds into build-dir (perfbench's e2e_bench into build-dir/perfbench; the
perfbench/ sources are only read) and prints one demangled symbol a line.
EOF
}

if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
  usage
  exit 0
fi

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-reach}"
JOBS="$(nproc)"
(( JOBS > 4 )) && JOBS=4

# -O0 keeps every call a call: an optimised build inlines a function into
# all its callers and then drops the unused out-of-line copy, which would
# list code that the binaries do run.
GC_FLAGS=(
  -DCMAKE_BUILD_TYPE=Release
  "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
LOG="$BUILD_DIR/reachability-build.log"

# Runs a configure or build step with its output in $LOG, shown on failure.
quiet() {
  if ! "$@" >>"$LOG" 2>&1; then
    tail -n 40 "$LOG" >&2
    echo "failed: $*" >&2
    exit 1
  fi
}

# Binary target names, read from the add-functions' call sites.
mapfile -t TARGETS < <(
  sed -n 's/^cq_add_bench(\([A-Za-z0-9_]*\))$/\1/p' bench/CMakeLists.txt
  sed -n 's/^cq_add_example(\([A-Za-z0-9_]*\))$/\1/p' examples/CMakeLists.txt
)
if (( ${#TARGETS[@]} == 0 )); then
  echo "no bench/ or examples/ targets found" >&2
  exit 1
fi

mkdir -p "$BUILD_DIR"
: >"$LOG"
echo "== configure + build ${#TARGETS[@]} bench/examples binaries" \
     "(log: $LOG) ==" >&2
quiet cmake -B "$BUILD_DIR" -S . "${GC_FLAGS[@]}"
quiet cmake --build "$BUILD_DIR" -j"$JOBS" --target "${TARGETS[@]}"

echo "== configure + build perfbench e2e_bench ==" >&2
quiet cmake -B "$BUILD_DIR/perfbench" -S perfbench "${GC_FLAGS[@]}"
quiet cmake --build "$BUILD_DIR/perfbench" -j"$JOBS" --target e2e_bench

BINARIES=()
for t in "${TARGETS[@]}"; do
  bin="$(find "$BUILD_DIR/bench" "$BUILD_DIR/examples" -maxdepth 1 -type f \
           -name "$t" | head -n 1)"
  if [[ -z "$bin" ]]; then
    echo "binary for target $t not found" >&2
    exit 1
  fi
  BINARIES+=("$bin")
done
BINARIES+=("$BUILD_DIR/perfbench/e2e_bench")

mapfile -t LIBS < <(find "$BUILD_DIR/src" -name 'libcq_*.a' | sort)
if (( ${#LIBS[@]} == 0 )); then
  echo "no libcq_*.a archives under $BUILD_DIR/src" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Strong definitions in the archives (mangled), and every symbol a binary
# still defines after garbage collection.
for lib in "${LIBS[@]}"; do
  nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }'
done | sort -u >"$TMP/defined"
for bin in "${BINARIES[@]}"; do
  nm --defined-only "$bin" | awk 'NF >= 3 { print $3 }'
done | sort -u >"$TMP/kept"

comm -23 "$TMP/defined" "$TMP/kept" | c++filt | sort >"$TMP/unreached"
echo "== $(wc -l <"$TMP/unreached") of $(wc -l <"$TMP/defined") strong" \
     "library symbols are kept by no binary ==" >&2
cat "$TMP/unreached"
