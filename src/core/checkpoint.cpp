#include "core/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dqemu::core {

void CheckpointImage::add(std::string name, std::uint64_t digest) {
  digests.emplace_back(std::move(name), digest);
}

void CheckpointImage::normalize() {
  std::sort(digests.begin(), digests.end());
}

std::vector<std::string> CheckpointImage::diff(
    const CheckpointImage& other) const {
  CheckpointImage a = *this;
  CheckpointImage b = other;
  a.normalize();
  b.normalize();
  std::vector<std::string> out;
  std::size_t i = 0, j = 0;
  while (i < a.digests.size() || j < b.digests.size()) {
    if (j >= b.digests.size() ||
        (i < a.digests.size() && a.digests[i].first < b.digests[j].first)) {
      out.push_back(a.digests[i++].first);
    } else if (i >= a.digests.size() ||
               b.digests[j].first < a.digests[i].first) {
      out.push_back(b.digests[j++].first);
    } else {
      if (a.digests[i].second != b.digests[j].second) {
        out.push_back(a.digests[i].first);
      }
      ++i;
      ++j;
    }
  }
  return out;
}

bool CheckpointImage::save(const std::string& path) const {
  CheckpointImage sorted = *this;
  sorted.normalize();
  std::ofstream out(path);
  if (!out) return false;
  out << "dqemu-checkpoint v" << kVersion << "\n";
  out << "time " << virtual_time << "\n";
  char hex[32];
  for (const auto& [name, digest] : sorted.digests) {
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
    out << "digest " << name << " " << hex << "\n";
  }
  return static_cast<bool>(out);
}

bool CheckpointImage::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header) ||
      header != "dqemu-checkpoint v" + std::to_string(kVersion)) {
    return false;
  }
  digests.clear();
  virtual_time = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "time") {
      fields >> virtual_time;
      if (!fields) return false;
    } else if (key == "digest") {
      std::string name, hex;
      fields >> name >> hex;
      if (!fields || hex.size() != 16) return false;
      std::uint64_t digest = 0;
      if (std::sscanf(hex.c_str(), "%" SCNx64, &digest) != 1) return false;
      digests.emplace_back(std::move(name), digest);
    } else {
      return false;  // unknown record: refuse rather than misinterpret
    }
  }
  return true;
}

}  // namespace dqemu::core
