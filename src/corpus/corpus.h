// The embedded file-system corpus.
//
// The paper analyzes the real Ext4 kernel sources and e2fsprogs utilities.
// This repository ships a faithful, self-contained mirror of their
// configuration-handling structure, written in the fsdep C subset: six
// components (mke2fs, mount, ext4, e4defrag, resize2fs, e2fsck) sharing
// the on-disk metadata structures through "ext4_fs.h" — the bridge the
// extractor exploits (paper §4.1). XFS and BtrFS (the paper's §6 future
// work) have three components each, bridged the same way. All three are
// entries of one table, fileSystems().
//
// Everything a scenario run needs is here: sources, taint seeds (the
// paper's manual annotations), per-scenario pre-selected functions,
// labelled ground truth, the parameter registry, manuals (for ConDocCk),
// and test-suite manifests (for Table 2).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "extract/extractor.h"
#include "extract/scoring.h"
#include "model/config_model.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {

/// One component of a file system: its main translation unit ("<name>.c")
/// and its taint seeds (the paper's manual annotations). Seed order
/// matters: the first seed listed gets the smallest label id, which makes
/// it the anchor when a condition involves several of the component's own
/// parameters.
struct Component {
  std::string name;
  std::string_view source;
  bool kernel = false;  ///< the kernel side, e.g. "ext4"
  std::vector<taint::Seed> seeds;
};

/// A usage scenario (row of Tables 3 and 5, or a SS6 ecosystem).
struct Scenario {
  std::string id;     ///< "s1".."s4", "xfs", "btrfs"
  std::string title;  ///< e.g. "mke2fs - mount - Ext4"
  /// component -> pre-selected functions to analyze.
  std::map<std::string, std::vector<std::string>> selection;
  /// The kernel component whose superblock bridges the others.
  std::string metadata_owner = "ext4";
};

/// One file system of the corpus: the header its components share (the
/// on-disk structures the extractor bridges through), its components in
/// pipeline order, and its usage scenarios. Adding a file system is one
/// source file that defines its entry plus one line in fileSystems().
struct FileSystem {
  std::string name;
  std::string header;  ///< e.g. "ext4_fs.h"
  std::string_view header_source;
  std::vector<Component> components;
  std::vector<Scenario> scenarios;
};

/// Every file system of the built-in corpus: Ext4, XFS and BtrFS, in that
/// order. Ext4 is the paper's; XFS and BtrFS are its SS6 future work,
/// analyzed with the very same pipeline.
const std::vector<FileSystem>& fileSystems();

/// The scenario with this id in any file system, or null.
const Scenario* findScenario(std::string_view id);

/// Names of the six Ext4 components, in pipeline order.
std::vector<std::string> componentNames();

/// Ext4's usage scenarios s1..s4 (Tables 3 and 5).
std::vector<Scenario> scenarios();

/// True for a file system's kernel-side component ("ext4", "xfs", ...).
bool isKernelComponent(std::string_view component);

/// Source text of a component's main translation unit ("<name>.c").
std::string_view componentSource(std::string_view component);

/// Source text of a shared header ("ext4_fs.h", "fsdep_libc.h"), or
/// nullopt when unknown. Usable as a lex::IncludeResolver.
std::optional<std::string> headerSource(std::string_view name);

/// Taint seeds (manual annotations) for a component.
std::vector<taint::Seed> componentSeeds(std::string_view component);

/// Extraction options tuned for the corpus (parser types, error
/// functions), with the Ext4 superblock as the metadata owner.
extract::ExtractOptions extractOptions();

/// The labelled ground truth for Table 5 scoring.
const std::vector<extract::GroundTruthEntry>& groundTruth();

/// The parameter registry of the ecosystem (Table 2 totals).
const model::Ecosystem& ecosystem();

/// Structured manuals (man pages) of the components: each entry is a
/// constraint the documentation states, as a model::Dependency claim plus
/// the sentence it comes from. ConDocCk diffs these claims against the
/// extracted dependencies: a code dependency with no claim is
/// undocumented; a claim whose bounds/operator disagree with the code is
/// inaccurate; a claim with no code dependency behind it is stale.
struct ManualEntry {
  model::Dependency claim;
  std::string text;
};
/// Every component's manual, concatenated.
std::vector<ManualEntry> allManuals();

/// Test-suite manifest: which parameters a suite's cases mention. Used by
/// the Table 2 coverage study.
struct SuiteManifest {
  std::string suite;            ///< "xfstest", "e2fsprogs-test"
  std::string target;           ///< component whose params are counted
  std::vector<std::string> case_texts;  ///< shell-ish test case bodies
};
std::vector<SuiteManifest> suiteManifests();

}  // namespace fsdep::corpus
