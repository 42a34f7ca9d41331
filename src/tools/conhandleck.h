// ConHandleCk (paper §4.2 usage 2): intentionally violates extracted
// dependencies — and probes the boundary configurations they describe —
// to test whether the FS ecosystem handles the situation gracefully. The
// outcome taxonomy distinguishes graceful rejection from the dangerous
// cases: silent acceptance and metadata corruption. On the shipped
// simulator the campaign finds exactly one corruption: the resize2fs
// sparse_super2 expansion of the paper's Figure 1 (§4.3: "one unexpected
// configuration handling case where resize2fs may corrupt the file
// system"). Whether an *interrupted* operation is handled gracefully is
// CrashCk's and the campaign's question (tools/crashck.h,
// tools/campaign.h), asked of the same toolchain through one cell.
#pragma once

#include <string>
#include <vector>

#include "model/dependency.h"

namespace fsdep::tools {

enum class HandleOutcome {
  RejectedGracefully,   ///< tool refused with a diagnostic
  BehavedConsistently,  ///< behavioural probe ran and the fs stayed sound
  SilentAccept,         ///< violation accepted without any complaint
  Corruption,           ///< accepted AND left the filesystem inconsistent
  NotApplicable,        ///< dependency not exercisable on the simulator
};

const char* handleOutcomeName(HandleOutcome outcome);

struct HandleCase {
  std::string dependency_id;
  std::string description;   ///< what configuration was attempted
  HandleOutcome outcome = HandleOutcome::NotApplicable;
  std::string detail;        ///< rejection message / fsck findings
};

struct HandleCheckReport {
  std::vector<HandleCase> cases;

  [[nodiscard]] int countOf(HandleOutcome outcome) const;
  [[nodiscard]] std::string summary() const;
};

/// Runs the violation/boundary campaign against the fsim toolchain for
/// the given dependencies (typically the corpus extraction output).
HandleCheckReport runHandleCheck(const std::vector<model::Dependency>& deps);

/// Convenience: extraction over the corpus, then the campaign.
HandleCheckReport runCorpusHandleCheck();

}  // namespace fsdep::tools
