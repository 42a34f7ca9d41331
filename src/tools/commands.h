// The fsdep command surface: one table of commands that both the CLI
// (src/cli/main.cpp) and the `fsdep serve` daemon (serve.cpp) dispatch
// through. Each entry is a name, an option spec and a run function:
//
//   * the spec lists switches, typed valued options (integer or string,
//     optionally repeatable), positionals and one help line each; the
//     CLI parses argv through it and the daemon binds request fields
//     through it, so both reject the same unknown or wrong-typed input;
//   * run(options, context) returns the command's stdout, stderr, exit
//     code and report facts instead of printing them, so a serve thread
//     can call it and the daemon's answer is the CLI's stdout by
//     construction. run() never touches obs::RunReport; the CLI writes
//     `facts` there.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "json/json.h"
#include "support/result.h"

namespace fsdep::tools {

enum class OptionKind {
  Switch,      ///< `--name`; request field `name: true`
  Int,         ///< `--name N`, a non-negative integer
  String,      ///< `--name VALUE`
  Positional,  ///< a bare word on the command line; request field `name`
};

struct OptionSpec {
  /// Flag without the leading "--". The request field replaces '-'
  /// with '_' (`--no-bridging` is `no_bridging`).
  std::string name;
  OptionKind kind = OptionKind::Switch;
  std::string metavar;  ///< value placeholder for usage ("N", "s1..s4")
  std::string help;     ///< one usage line
  /// Value an unset Int/String option takes ("" = none).
  std::string fallback = {};
  bool repeatable = false;
};

/// The taint-engine group (--inter, --intra) and the engine a command
/// runs when neither is given. --intra beats --inter.
enum class Engine { None, Intra, Inter };

/// Parsed, typed option values: one slot per option of the spec they
/// were bound against (the command's options, then any extra groups).
/// Unset Int/String options hold their spec fallback and the engine
/// group is resolved to exactly one of `inter`/`intra`, so two Options
/// of one command compare equal exactly when they run it the same way:
/// the serve memo key. Options refer to that spec and must not outlive
/// it (the command table is static).
class Options {
 public:
  /// True when the option was given (or has a fallback).
  [[nodiscard]] bool on(std::string_view name) const { return value(name) != nullptr; }
  /// The (last) value of a String/Positional/Int option; "" when unset.
  [[nodiscard]] const std::string& text(std::string_view name) const;
  [[nodiscard]] std::uint64_t number(std::string_view name) const;
  /// Every value of a repeatable option, in the order given.
  [[nodiscard]] std::vector<std::string> all(std::string_view name) const;
  bool operator<(const Options& other) const {
    return std::tie(values_, repeated_) < std::tie(other.values_, other.repeated_);
  }

 private:
  friend class OptionBinder;
  [[nodiscard]] const OptionSpec& spec(std::size_t slot) const;
  /// The slot of option `name`; values_.size() when there is none.
  [[nodiscard]] std::size_t slot(std::string_view name) const;
  [[nodiscard]] const std::string* value(std::string_view name) const;

  std::span<const OptionSpec> groups_[2];
  /// One per option, in spec order; a repeatable's holds its last value.
  std::vector<std::optional<std::string>> values_;
  /// (slot, value) of every repeatable value, in the order given.
  std::vector<std::pair<std::size_t, std::string>> repeated_;
};

struct CommandContext {
  /// Pipeline workers for the command's analyses (0 = the global pool).
  std::size_t jobs = 0;
};

struct CommandResult {
  std::string out = {};  ///< stdout
  std::string err = {};  ///< stderr
  int exit_code = 0;
  json::Object facts = {};  ///< obs::RunReport notes (unsigned or string values)
};

struct Command {
  std::string name;
  std::string summary;  ///< usage description
  /// The command's options; includes the engine group when `engine` is set.
  std::vector<OptionSpec> options;
  Engine engine = Engine::None;
  CommandResult (*run)(const Options&, const CommandContext&) = nullptr;
};

/// Every command, in usage order.
const std::vector<Command>& commands();
const Command* findCommand(std::string_view name);

/// Parses the words after the command name against `command`'s options
/// plus `extra` (the CLI's global options). Errors name the argument:
/// "unknown argument '--x'", "--x requires a value", "--x expects an
/// integer, got 'y'", "missing <param>: ...".
Result<Options> parseArgs(const Command& command, const std::vector<std::string>& args,
                          std::span<const OptionSpec> extra = {});

/// Binds a serve request's fields (all but `id` and `type`) through the
/// same spec. An unknown or wrong-typed field is an error naming it.
Result<Options> bindRequest(const Command& command, const json::Object& request);

}  // namespace fsdep::tools
