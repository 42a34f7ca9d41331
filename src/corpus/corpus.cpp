#include "corpus/corpus.h"

#include "corpus/amplify.h"
#include "corpus/sources_internal.h"

namespace fsdep::corpus {

namespace {

const Component* findComponent(std::string_view name) {
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) {
      if (component.name == name) return &component;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<FileSystem>& fileSystems() {
  static const std::vector<FileSystem> kFileSystems = {ext4FileSystem(), xfsFileSystem(),
                                                        btrfsFileSystem()};
  return kFileSystems;
}

const Scenario* findScenario(std::string_view id) {
  for (const FileSystem& fs : fileSystems()) {
    for (const Scenario& scenario : fs.scenarios) {
      if (scenario.id == id) return &scenario;
    }
  }
  return nullptr;
}

std::vector<std::string> componentNames() {
  std::vector<std::string> names;
  for (const Component& component : fileSystems().front().components) {
    names.push_back(component.name);
  }
  return names;
}

std::vector<Scenario> scenarios() { return fileSystems().front().scenarios; }

bool isKernelComponent(std::string_view component) {
  const Component* found = findComponent(component);
  return found != nullptr && found->kernel;
}

std::string_view componentSource(std::string_view component) {
  if (const Component* found = findComponent(component)) return found->source;
  if (const auto amp = amplifiedSource(component)) return *amp;
  return {};
}

std::optional<std::string> headerSource(std::string_view name) {
  if (name == "fsdep_libc.h") return std::string(kLibcHeader);
  for (const FileSystem& fs : fileSystems()) {
    if (fs.header == name) return std::string(fs.header_source);
  }
  return amplifiedHeader(name);
}

std::vector<taint::Seed> componentSeeds(std::string_view component) {
  if (const Component* found = findComponent(component)) return found->seeds;
  return amplifiedSeeds(component);
}

extract::ExtractOptions extractOptions() {
  extract::ExtractOptions options;
  options.metadata_owner = "ext4";
  options.parser_types = {
      {"parse_num", "integer"},
      {"parse_size", "size"},
  };
  options.error_functions = {"usage", "fatal_error", "com_err", "exit"};
  return options;
}

}  // namespace fsdep::corpus
