// Helpers shared by the golden-digest tests (token, intra and inter):
// hex rendering, the amplifier's generation-prefix normalization, and
// the canonical texts of an analyzer run and of the queries extraction
// asks it afterwards. A digest is
// corpus::contentDigest over that text, so any change to it is a change
// in observable output.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "extract/guards.h"
#include "json/json.h"
#include "model/serialization.h"
#include "taint/analyzer.h"
#include "taint/label.h"

namespace fsdep::golden {

inline std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Amplified names carry a per-process generation prefix
/// ("amp<generation>_<index>"); "amp<digits>_" becomes "amp_" so the
/// digest depends only on the corpus options.
inline std::string withoutGeneration(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    out.push_back(text[i]);
    if (text.compare(i, 3, "amp") != 0) continue;
    std::size_t j = i + 3;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    if (j > i + 3 && j < text.size() && text[j] == '_') {
      out += "mp";
      i = j - 1;  // resume at the '_'
    }
  }
  return out;
}

/// Canonical text of everything one analyzer run exposes: interned
/// labels in id order (id order is semantic — rendered sets ascend by id
/// and extraction anchors on the smallest id), field-write bridges, write
/// events, per-function return labels, and the trace of every written
/// object.
inline std::string analyzerState(const taint::Analyzer& a) {
  const taint::LabelTable& labels = a.labels();
  std::string out = "labels\n";
  for (taint::LabelId id = 0; id < labels.size(); ++id) {
    out += std::to_string(id) + " " + labels.name(id) + "\n";
  }
  out += "fields\n";
  for (const auto& [key, set] : a.fieldWrites()) {
    out += key + " " + taint::labelSetToString(labels, set) + "\n";
  }
  out += "writes\n";
  std::set<std::string> objects;
  for (const taint::WriteEvent* w : a.writeEvents()) {
    out += std::to_string(w->loc.line) + ":" + std::to_string(w->loc.column) + " ";
    out += w->object;
    out += " op=" + std::to_string(static_cast<int>(w->op)) + " callee=";
    out += w->rhs_callee;
    out += " " + taint::labelSetToString(labels, w->labels) + "\n";
    objects.emplace(w->object);
  }
  out += "returns\n";
  for (const auto& result : a.results()) {
    out += result->fn->name + " " + taint::labelSetToString(labels, result->return_labels) + "\n";
  }
  out += "traces\n";
  for (const std::string& object : objects) {
    out += object + "\n";
    if (const auto* trace = a.traceFor(object)) {
      for (const taint::TraceStep& step : *trace) {
        out += "  " + std::to_string(step.loc.line) + ":" + std::to_string(step.loc.column) + " ";
        out += step.text;
        out += "\n";
      }
    }
  }
  return out;
}

/// The fixpoint counters of the analyzer's last run.
inline std::string runCounters(const taint::Analyzer& a) {
  return "stmt_visits=" + std::to_string(a.stmtVisits()) +
         " ir_instrs=" + std::to_string(a.irInstrs()) +
         " ir_visits=" + std::to_string(a.irVisits()) +
         " merge_calls=" + std::to_string(a.mergeCalls()) +
         " concrete_skips=" + std::to_string(a.concreteSkips()) + "\n";
}

/// Canonical text of what extraction asks an analyzer after its run:
/// Analyzer::labelsOf on every guard condition collectGuards finds and on
/// each DNF atom's expression and comparison sides, in that order. Then
/// the label table the queries leave behind (a query may intern, so this
/// pins the post-run interning order), then the fixpoint counters, which
/// the queries must not move.
inline std::string guardQueries(const taint::Analyzer& a, const sema::Sema& sema,
                                const std::vector<std::string>& error_functions) {
  const taint::LabelTable& labels = a.labels();
  std::string out = "guards\n";
  for (const extract::Guard& guard : extract::collectGuards(a, sema, error_functions)) {
    const auto query = [&](const ast::Expr& expr) {
      return taint::labelSetToString(labels, a.labelsOf(expr, *guard.state));
    };
    out += guard.fn->name + " block=" + std::to_string(guard.block) +
           " disposition=" + std::to_string(static_cast<int>(guard.disposition)) + " " +
           query(*guard.condition) + "\n";
    for (std::size_t v = 0; v < guard.violations.size(); ++v) {
      for (const extract::Atom& atom : guard.violations[v]) {
        out += "  " + std::to_string(v) + (atom.negated ? " !" : " ") + query(*atom.expr);
        if (atom.is_comparison) out += " lhs=" + query(*atom.lhs) + " rhs=" + query(*atom.rhs);
        out += "\n";
      }
    }
  }
  out += "labels\n";
  for (taint::LabelId id = 0; id < labels.size(); ++id) {
    out += std::to_string(id) + " " + labels.name(id) + "\n";
  }
  return out + runCounters(a);
}

inline std::string depsJson(const std::vector<model::Dependency>& deps) {
  return json::writePretty(model::toJson(deps));
}

}  // namespace fsdep::golden
