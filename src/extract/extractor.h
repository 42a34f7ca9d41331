// The multi-level dependency extractor (paper §4.1).
//
// Input: per-component taint analyses (one Analyzer per component TU, run
// over the scenario's pre-selected functions). Output: deduplicated
// model::Dependency records.
//
// Rules (documented in DESIGN.md §5):
//  SD-type   — a tainted variable assigned from a typed parser function
//              (parse_num -> integer, parse_size -> size, ...).
//  SD-range  — error guard comparing one parameter against a constant;
//              bounds from multiple guards merge into one range. Guards on
//              a metadata field against a constant become SD on the
//              metadata owner's parameter (ext4.<field>), no matter which
//              component performs the check — mirroring that the on-disk
//              field is the parameter's persistent form.
//  CPD       — error guard whose violation involves exactly two parameters
//              of the same component: flag+flag -> control
//              (excludes/requires), comparison -> value.
//  CCD       — cross-component, bridged through shared metadata fields
//              (paper's key observation): a guard or derivation in
//              component B touching a field written with component A's
//              parameter. Error guards give control/value CCDs; behavioral
//              guards and multi-parameter derivations give behavioral CCDs.
//              Feature bitmaps are matched bit-precisely: a test of
//              `s_feature_compat & RESIZE_INODE` bridges only to writers
//              whose written mask overlaps.
//
// Extraction runs in two phases on the worker pool plus one serial merge
// (DESIGN.md §7): (1) each component's field writers are collected and
// concatenated in component order into a read-only writer map (the
// bridge); (2) each component's rules run against it, recording candidate
// dependencies and SD-range facts in emission order; (3) the merge
// replays those records in component order through first-wins dedup and
// range folding. The output is the same at every worker count.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "extract/guards.h"
#include "model/dependency.h"
#include "taint/analyzer.h"

namespace fsdep::extract {

/// One component's analysis, ready for extraction.
struct ComponentRun {
  std::string component;          ///< e.g. "mke2fs"
  bool is_kernel = false;
  const taint::Analyzer* analyzer = nullptr;  ///< run() already executed
  const sema::Sema* sema = nullptr;
};

struct ExtractOptions {
  /// Component that owns the on-disk metadata (field-based SDs attach
  /// here).
  std::string metadata_owner = "ext4";
  /// parser function name -> type name, for SD-type extraction.
  std::map<std::string, std::string> parser_types;
  /// callee names that mark an error path.
  std::vector<std::string> error_functions;
};

/// Extracts and deduplicates dependencies across the given component runs,
/// on `jobs` workers of the global ThreadPool (0 = ThreadPool::globalJobs(),
/// 1 = serial on the calling thread). Runs that share an analyzer are
/// extracted serially.
std::vector<model::Dependency> extractDependencies(const std::vector<ComponentRun>& runs,
                                                   const ExtractOptions& options,
                                                   std::size_t jobs = 0);

}  // namespace fsdep::extract
