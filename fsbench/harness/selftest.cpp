// Self-tests of the harness itself: the percentile rule, seed
// determinism of the serve-mixed request sequence, and that each
// workload's reference comparison rejects a perturbed output.
#include <cstdio>

#include "corpus/pipeline.h"
#include "fsim/digest.h"
#include "serve_mix.h"
#include "tools/campaign.h"
#include "workloads.h"

namespace fsbench {

using namespace fsdep;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("selftest %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void percentileRule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 50) == 50 && percentile(hundred, 90) == 90 &&
             percentile(hundred, 100) == 100,
         "nearest-rank percentiles of 1..100");
  expect(samplesBeyond(100, 90) == 10 && samplesBeyond(1000, 99) == 10 &&
             samplesBeyond(999, 99) == 9,
         "samples beyond a percentile");
  expect(tailPercentile(100, 99) == 90, "100 samples: the tail is p90");
  expect(tailPercentile(1000, 99) == 99, "1000 samples: the tail is p99");
  expect(tailPercentile(999, 99) == 95, "999 samples: p99 has 9 beyond, falls to p95");
  expect(tailPercentile(100000, 99) == 99, "the cap holds with many samples");
  expect(tailPercentile(20, 90) == 50 && tailPercentile(19, 90) == 0,
         "20 samples: median only; 19: nothing qualifies");
  const Tail short_tail = tailOf(std::vector<double>(19, 1.0), 90);
  expect(!short_tail.qualified && short_tail.percentile == 50,
         "an unqualified tail reports the median and says so");

  Reservoir<double> small(100, 1, -1);
  for (int i = 0; i < 50; ++i) small.add(i);
  expect(small.kept().size() == 50 && small.kept().back() == 49,
         "a reservoir keeps every value until it fills");
  Reservoir<double> a(100, 1, -1);
  Reservoir<double> b(100, 1, -1);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    a.add(i);
    b.add(i);
  }
  for (const double v : a.kept()) sum += v;
  const double mean = sum / 100;
  expect(a.seen() == 100000 && a.kept().size() == 100 && a.kept() == b.kept() &&
             mean > 30000 && mean < 70000,
         "a full reservoir keeps a seeded, uniform-looking sample of its capacity");
}

void serveDeterminism() {
  const std::vector<std::string> params = registryParameters();
  const ServeMix a = makeServeMix(7, params);
  const ServeMix b = makeServeMix(7, params);
  const ServeMix c = makeServeMix(8, params);
  bool same_keys = a.keys.size() == b.keys.size();
  for (std::size_t k = 0; same_keys && k < a.keys.size(); ++k) {
    same_keys = requestLine(a.keys[k], k) == requestLine(b.keys[k], k);
  }
  expect(same_keys, "the same seed gives the same key space");
  expect(a.blame_params != c.blame_params, "another seed draws other blame parameters");

  const auto draw = [](const ServeMix& mix, std::uint64_t seed, std::size_t client,
                       std::size_t n) {
    RequestStream stream(mix, seed, client);
    std::vector<int> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next());
    return out;
  };
  const std::size_t n = 4 * a.invalidate_period;
  const std::vector<int> first = draw(a, 7, 0, n);
  expect(first == draw(b, 7, 0, n), "the same seed and client send the same requests");
  expect(first != draw(a, 7, 1, n) && first != draw(a, 8, 0, n),
         "other clients and seeds send other requests");
  std::size_t invalidates = 0;
  for (const int key : first) invalidates += key < 0;
  expect(invalidates == 4, "exactly one invalidate per period");
}

void referencesRejectPerturbation() {
  // amplify-cold compares dependency digests.
  const std::vector<model::Dependency> deps = corpus::runTable5().unique_deps;
  std::vector<model::Dependency> changed = deps;
  changed.front().description += ".";
  std::vector<model::Dependency> reordered = deps;
  std::swap(reordered.front(), reordered.back());
  expect(!deps.empty() && dependencyDigest(deps) == dependencyDigest(corpus::runTable5().unique_deps),
         "dependency digests are reproducible");
  expect(dependencyDigest(changed) != dependencyDigest(deps) &&
             dependencyDigest(reordered) != dependencyDigest(deps),
         "a changed or reordered dependency changes the digest");

  // serve-mixed compares each response's stdout with its reference.
  const std::string good = R"({"id":"k1","ok":true,"cached":true,"wall_us":12,"stdout":"a\nb\n"})";
  expect(checkResponse(good, "a\nb\n").matches, "a matching response passes");
  expect(!checkResponse(good, "a\nc\n").matches, "a response one byte off fails");
  expect(!checkResponse(R"({"ok":false,"error":"x","stdout":"a\nb\n"})", "a\nb\n").matches &&
             !checkResponse("not json", "a\nb\n").matches,
         "an error or malformed response fails");

  // campaign looks for the committed (op, outcome, digest) triples.
  tools::CampaignReport report;
  report.seed = 42;
  report.configs.push_back(tools::SampledConfig{tools::baselineConfig(), {}, "baseline"});
  tools::MinimizedRepro repro;
  repro.op = "resize-buggy";
  repro.outcome = tools::CrashOutcome::SilentCorruption;
  repro.digest = 0x9381c234bcbe753bull;
  report.repros.push_back(repro);
  const CommittedReproKey want{"fig1.json", "resize-buggy", "silent-corruption",
                               fsim::digestHex(repro.digest)};
  CommittedReproKey other_digest = want;
  other_digest.digest = fsim::digestHex(repro.digest ^ 1);
  CommittedReproKey other_op = want;
  other_op.op = "resize";
  expect(missingCommittedRepros({want}, report).empty(), "a present reproducer is found");
  expect(missingCommittedRepros({other_digest}, report).size() == 1 &&
             missingCommittedRepros({other_op}, report).size() == 1,
         "a reproducer with another digest or op is reported missing");
}

}  // namespace

int runSelfTests() {
  failures = 0;
  percentileRule();
  serveDeterminism();
  referencesRejectPerturbation();
  return failures;
}

}  // namespace fsbench
