#include "obs/manifest.h"

#include <cstdio>

#include "obs/metrics.h"

namespace autoce::obs {

namespace {

#ifndef AUTOCE_GIT_DESCRIBE
#define AUTOCE_GIT_DESCRIBE "unknown"
#endif

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string GitDescribe() { return AUTOCE_GIT_DESCRIBE; }

RunManifest::RunManifest(const std::string& name) : name_(name) {
  AddString("name", name);
  AddString("git_describe", GitDescribe());
}

RunManifest& RunManifest::AddString(const std::string& key,
                                    const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

RunManifest& RunManifest::AddInt(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

RunManifest& RunManifest::AddDouble(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
  return *this;
}

RunManifest& RunManifest::AddBool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

RunManifest& RunManifest::AddRaw(const std::string& key,
                                 const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

RunManifest& RunManifest::AddMetricsSnapshot() {
  if (MetricsEnabled()) {
    AddRaw("metrics", MetricsRegistry::Instance().ExportJson());
  }
  return *this;
}

std::string RunManifest::ToJson() const {
  std::string out = "{\n";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
    if (i + 1 < fields_.size()) out += ',';
    out += '\n';
  }
  out += "}\n";
  return out;
}

bool RunManifest::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "RunManifest: cannot write %s\n", path.c_str());
    return false;
  }
  std::string json = ToJson();
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

bool RunManifest::Write() const { return WriteTo("RUN_" + name_ + ".json"); }

}  // namespace autoce::obs
