#include "obs/report.h"

#include <cstdio>

#include "obs/jsonw.h"
#include "obs/metrics.h"

namespace fsdep::obs {

RunReport& RunReport::global() {
  static RunReport report;
  return report;
}

void RunReport::setCommand(std::string command, std::vector<std::string> args) {
  command_ = std::move(command);
  args_ = std::move(args);
}

void RunReport::setJobs(std::uint64_t jobs) { jobs_ = jobs; }
void RunReport::setWallMillis(double wall_ms) { wall_ms_ = wall_ms; }
void RunReport::setExitCode(int code) { exit_code_ = code; }

void RunReport::note(const std::string& key, std::uint64_t value) {
  for (Fact& fact : facts_) {
    if (fact.key == key) {
      fact.is_string = false;
      fact.number = value;
      return;
    }
  }
  facts_.push_back(Fact{key, /*is_string=*/false, value, {}});
}

void RunReport::note(const std::string& key, const std::string& value) {
  for (Fact& fact : facts_) {
    if (fact.key == key) {
      fact.is_string = true;
      fact.text = value;
      return;
    }
  }
  facts_.push_back(Fact{key, /*is_string=*/true, 0, value});
}

std::string RunReport::renderJson() const {
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", static_cast<std::int64_t>(kReportSchemaVersion));
  w.field("tool", "fsdep");
  w.field("version", kFsdepVersion);
  w.field("command", std::string_view(command_));
  w.key("args");
  w.beginArray();
  for (const std::string& a : args_) w.value(std::string_view(a));
  w.endArray();
  w.field("jobs", jobs_);
  w.field("wall_ms", wall_ms_);
  w.field("exit_code", static_cast<std::int64_t>(exit_code_));
  // Trace-buffer saturation (Trace::droppedEvents()); non-zero means
  // the trace and the profile under-attribute.
  w.field("trace_dropped_events", Registry::global().counterValue("trace.dropped_events"));
  w.key("facts");
  w.beginObject();
  for (const Fact& fact : facts_) {
    if (fact.is_string) {
      w.field(fact.key, std::string_view(fact.text));
    } else {
      w.field(fact.key, fact.number);
    }
  }
  w.endObject();
  // The registry render ends with a newline; strip it before splicing.
  std::string metrics = Registry::global().renderJson();
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  w.key("metrics");
  w.rawValue(metrics);
  w.endObject();
  std::string text = w.take();
  text += '\n';
  return text;
}

bool RunReport::writeFile(const std::string& path) const {
  const std::string text = renderJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void RunReport::clear() {
  command_.clear();
  args_.clear();
  jobs_ = 0;
  wall_ms_ = 0;
  exit_code_ = 0;
  facts_.clear();
}

}  // namespace fsdep::obs
