// Minimal INI parser for scenario files.
//
// Grammar: `[section]` headers, `key = value` pairs, `#` or `;` comments,
// blank lines ignored. Repeated section names are distinct sections (the
// scenario format uses one `[service]` section per service). Values are
// kept as trimmed strings; typed accessors convert on demand.
#pragma once

#include <string>
#include <vector>

namespace vmcons {

struct IniSection {
  std::string name;
  std::vector<std::pair<std::string, std::string>> entries;

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  /// Throws IoError on text that is not a base-10 integer or that does not
  /// fit a long long (never a saturated value).
  long long get_int(const std::string& key, long long fallback) const;
};

struct IniDocument {
  std::vector<IniSection> sections;

  /// All sections with the given name (case-sensitive).
  std::vector<const IniSection*> all(const std::string& name) const;
  /// First section with the given name, or nullptr.
  const IniSection* first(const std::string& name) const;
};

/// Parses INI text; throws IoError on malformed lines.
IniDocument ini_parse(const std::string& text);

/// Reads and parses a file; throws IoError if unreadable.
IniDocument ini_parse_file(const std::string& path);

}  // namespace vmcons
