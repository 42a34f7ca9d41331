// The corpus amplifier: a deterministic generator of synthetic components
// with the config-flow shapes of the real corpus — getopt/switch and
// option-string parse chains, helper call trees (including mutually
// recursive pairs, so call-graph cycles are exercised), struct field stores
// behind cross-function sinks (a writer computes locals in main and
// persists them through a helper, so only inter-procedural analysis sees
// the labels reach the fields), and kernel-style readers that validate
// the shared superblock. The corpus is partitioned into ecosystems of
// six components (mirroring the real Ext4 ecosystem); each ecosystem
// bridges through its own superblock struct in its own generated header
// ("amp_sb_<e>.h"), giving the extractor the same bridge the real
// ecosystems have while keeping cross-component dependency extraction
// linear in the amplification factor.
//
// Generated components install into a process-global registry that
// componentSource(), componentSeeds() and headerSource() consult, so the
// entire existing pipeline — ComponentCache, AnalyzedComponent,
// extraction, the CLI — works on them unchanged. Generation is pure:
// the same (factor, seed) always produces byte-identical sources and
// seeds (a splitmix64 stream per component, nothing time- or
// address-dependent).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "extract/extractor.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {

struct AmplifyOptions {
  /// Number of synthetic ecosystems. Each has as many components as the
  /// real Ext4 corpus (6), so the amplified corpus has factor x 6
  /// components total.
  std::size_t factor = 100;
  std::uint64_t seed = 42;

  bool operator==(const AmplifyOptions& other) const = default;
};

/// Generates the synthetic corpus and installs it in the registry,
/// returning the component names in pipeline order. Calling again with
/// the same options is a cheap no-op returning the same names; different
/// options replace the previous set under a new name prefix (so stale
/// ComponentCache entries can never be confused with the new sources).
/// Not safe to call concurrently with an analysis over amplified
/// components.
std::vector<std::string> amplifyCorpus(const AmplifyOptions& options);

/// Removes all amplified components from the registry.
void clearAmplifiedCorpus();

/// Extract options for the amplified ecosystem (field-based params attach
/// to the synthetic "ampfs" owner).
extract::ExtractOptions amplifiedExtractOptions();

// Registry lookups, consulted as fallbacks by componentSource(),
// headerSource() and componentSeeds().
std::optional<std::string_view> amplifiedSource(std::string_view component);
std::optional<std::string> amplifiedHeader(std::string_view name);
std::vector<taint::Seed> amplifiedSeeds(std::string_view component);

}  // namespace fsdep::corpus
