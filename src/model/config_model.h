// The configuration model of an FS ecosystem (paper §2): a set of
// *components* (the file system plus its utilities), each exposing
// configuration *parameters*. Dependencies (model/dependency.h) relate
// parameters within and across components.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fsdep::model {

/// The four configuration stages of Figure 2 in the paper.
enum class ConfigStage : std::uint8_t { Create, Mount, Online, Offline };

const char* configStageName(ConfigStage stage);

/// Value domain of a parameter.
enum class ParamType : std::uint8_t {
  Flag,     ///< boolean feature toggle (e.g. -O sparse_super2)
  Integer,  ///< numeric (e.g. -b 4096)
  String,   ///< free-form (e.g. -L label)
  Enum,     ///< one of a fixed set (e.g. data=journal|ordered|writeback)
  Size,     ///< byte/block size with unit suffixes (e.g. resize2fs <size>)
};

/// One configuration parameter of one component.
struct Parameter {
  std::string component;            ///< owning component, e.g. "mke2fs"
  std::string name;                 ///< canonical name, e.g. "blocksize"
  std::string flag;                 ///< CLI spelling, e.g. "-b" or "-O sparse_super2"
  ParamType type = ParamType::Flag;
  ConfigStage stage = ConfigStage::Create;
  std::string description;
  std::vector<std::string> enum_values;  ///< for ParamType::Enum

  /// "component.name" — the global identity used by dependencies and taint.
  [[nodiscard]] std::string qualifiedName() const { return component + "." + name; }
};

/// A component of the FS ecosystem: the file system itself or a utility.
struct Component {
  std::string name;                 ///< e.g. "mke2fs", "ext4"
  ConfigStage stage = ConfigStage::Create;  ///< stage at which it configures the FS
  bool is_kernel = false;           ///< true for the FS itself (kernel side)
  std::string description;
  std::vector<Parameter> parameters;

  [[nodiscard]] const Parameter* findParameter(std::string_view param_name) const;
};

/// The whole ecosystem: components plus lookup helpers.
class Ecosystem {
 public:
  void addComponent(Component component);

  [[nodiscard]] const std::vector<Component>& components() const { return components_; }
  [[nodiscard]] const Component* findComponent(std::string_view name) const;

  /// Looks up "component.param". Returns nullptr when unknown.
  [[nodiscard]] const Parameter* findParameter(std::string_view qualified_name) const;

 private:
  std::vector<Component> components_;
};

}  // namespace fsdep::model
