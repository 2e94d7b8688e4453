#include "util/ini.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace vmcons {
namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

}  // namespace

bool IniSection::has(const std::string& key) const {
  for (const auto& [k, v] : entries) {
    (void)v;
    if (k == key) {
      return true;
    }
  }
  return false;
}

std::string IniSection::get(const std::string& key,
                            const std::string& fallback) const {
  for (const auto& [k, v] : entries) {
    if (k == key) {
      return v;
    }
  }
  return fallback;
}

double IniSection::get_double(const std::string& key, double fallback) const {
  const std::string text = get(key);
  if (text.empty()) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw IoError("[" + name + "] " + key + ": expected a number, got '" +
                  text + "'");
  }
  // strtod turns an underflow into 0 or a subnormal and an overflow into
  // inf; either would plan a silently different scenario (a rate of 0
  // drops that resource's demand).
  if (errno == ERANGE) {
    throw IoError("[" + name + "] " + key + ": number '" + text +
                  "' is out of range");
  }
  return value;
}

long long IniSection::get_int(const std::string& key, long long fallback) const {
  const std::string text = get(key);
  if (text.empty()) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw IoError("[" + name + "] " + key + ": expected an integer, got '" +
                  text + "'");
  }
  if (errno == ERANGE) {
    throw IoError("[" + name + "] " + key + ": integer '" + text +
                  "' is out of range");
  }
  return value;
}

std::vector<const IniSection*> IniDocument::all(const std::string& name) const {
  std::vector<const IniSection*> matches;
  for (const auto& section : sections) {
    if (section.name == name) {
      matches.push_back(&section);
    }
  }
  return matches;
}

const IniSection* IniDocument::first(const std::string& name) const {
  for (const auto& section : sections) {
    if (section.name == name) {
      return &section;
    }
  }
  return nullptr;
}

IniDocument ini_parse(const std::string& text) {
  IniDocument document;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip comments that start a token (allow '#'/';' mid-value only after
    // whitespace, the common INI convention).
    for (const char marker : {'#', ';'}) {
      const auto position = line.find(marker);
      if (position != std::string::npos &&
          (position == 0 || line[position - 1] == ' ' ||
           line[position - 1] == '\t')) {
        line.erase(position);
      }
    }
    const std::string trimmed = trim(line);
    if (trimmed.empty()) {
      continue;
    }
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        throw IoError("INI line " + std::to_string(line_number) +
                      ": malformed section header");
      }
      document.sections.push_back(
          {trim(trimmed.substr(1, trimmed.size() - 2)), {}});
      continue;
    }
    const auto equals = trimmed.find('=');
    if (equals == std::string::npos) {
      throw IoError("INI line " + std::to_string(line_number) +
                    ": expected 'key = value'");
    }
    if (document.sections.empty()) {
      document.sections.push_back({"", {}});
    }
    document.sections.back().entries.emplace_back(
        trim(trimmed.substr(0, equals)), trim(trimmed.substr(equals + 1)));
  }
  return document;
}

IniDocument ini_parse_file(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) {
    throw IoError("cannot read INI file: " + path);
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return ini_parse(buffer.str());
}

}  // namespace vmcons
