#!/bin/sh
# Configure, build and run the test suite under sanitizers:
#   1. ASan+UBSan over the full suite (FSDEP_SANITIZE=address), and
#   2. TSan over the concurrency-sensitive tests (FSDEP_SANITIZE=thread):
#      the thread pool, the parse-once component cache, the parallel
#      pipeline determinism suite (intra and inter, and the serial ≡
#      parallel check of the shared per-component compiled-IR cache),
#      the inter golden and amplifier suites (which analyze shared cached
#      components from pool workers), the corpus/pipeline
#      integration tests that drive them, the observability layer (whose trace
#      buffers and metrics registry are written from every worker), and
#      the campaign engine (whose determinism guarantee — bit-identical
#      reports at any --jobs — is exactly a data-race claim), the
#      failure-eviction and clear()-during-build paths of the component
#      cache, the on-disk result cache (atomic stores + LRU eviction
#      against concurrent loads), and the serve daemon (per-connection
#      threads against the shared memo and shutdown).
# Usage: scripts/check_sanitize.sh [builddir-prefix]
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
PREFIX=${1:-"$ROOT/build-sanitize"}
JOBS=$(nproc)

echo "== ASan+UBSan: full test suite =="
cmake -B "$PREFIX" -S "$ROOT" -DFSDEP_SANITIZE=address
cmake --build "$PREFIX" -j "$JOBS"
ctest --test-dir "$PREFIX" --output-on-failure -j "$JOBS"

echo "== TSan: concurrency tests =="
cmake -B "$PREFIX-tsan" -S "$ROOT" -DFSDEP_SANITIZE=thread
cmake --build "$PREFIX-tsan" -j "$JOBS" \
  --target thread_pool_test component_cache_test pipeline_determinism_test \
           inter_golden_test amplify_test \
           pipeline_test corpus_test obs_test obs_pipeline_test campaign_test \
           profile_test cli_obs_amplify_test disk_cache_test serve_test
# Force multi-threaded execution even on single-core machines so TSan
# actually sees cross-thread interleavings. cli_obs_amplify_test drives
# a TSan-instrumented fsdep binary over the amplified corpus with
# trace+metrics+profile all enabled — the most write-heavy workload the
# per-thread trace buffers see.
for t in thread_pool_test component_cache_test pipeline_determinism_test \
         inter_golden_test amplify_test \
         pipeline_test corpus_test obs_test obs_pipeline_test campaign_test \
         profile_test cli_obs_amplify_test disk_cache_test serve_test; do
  echo "-- $t (FSDEP_JOBS=4)"
  FSDEP_JOBS=4 "$PREFIX-tsan/tests/$t"
done

echo "sanitize: all clean"
