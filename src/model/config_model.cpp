#include "model/config_model.h"

namespace fsdep::model {

const char* configStageName(ConfigStage stage) {
  switch (stage) {
    case ConfigStage::Create: return "create";
    case ConfigStage::Mount: return "mount";
    case ConfigStage::Online: return "online";
    case ConfigStage::Offline: return "offline";
  }
  return "unknown";
}

const Parameter* Component::findParameter(std::string_view param_name) const {
  for (const Parameter& p : parameters) {
    if (p.name == param_name) return &p;
  }
  return nullptr;
}

void Ecosystem::addComponent(Component component) { components_.push_back(std::move(component)); }

const Component* Ecosystem::findComponent(std::string_view name) const {
  for (const Component& c : components_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const Parameter* Ecosystem::findParameter(std::string_view qualified_name) const {
  const std::size_t dot = qualified_name.find('.');
  if (dot == std::string_view::npos) return nullptr;
  const Component* c = findComponent(qualified_name.substr(0, dot));
  if (c == nullptr) return nullptr;
  return c->findParameter(qualified_name.substr(dot + 1));
}

}  // namespace fsdep::model
