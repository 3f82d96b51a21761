#pragma once

/// \file cli.hpp
/// Tiny command-line flag parser for benches and examples.
///
/// Flags use the form `--name=value` or `--name value`; `--flag` alone sets
/// a boolean to true. Unknown flags abort with a usage message so typos in
/// experiment sweeps are caught instead of silently running defaults.

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace coupon {

/// Parses all of `text` as a number (an integer or floating type):
/// nullopt on an empty string, a leading space or '+', trailing
/// characters ("10x"), or overflow. A floating result may still be NaN
/// or infinite; callers range-check. Shared by the flag parser and the
/// "name:arg" scenario spellings.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// Declarative flag registry with typed accessors.
class CliFlags {
 public:
  /// Registers flags with their default values and help strings.
  CliFlags& add_int(const std::string& name, std::int64_t default_value,
                    const std::string& help);
  CliFlags& add_double(const std::string& name, double default_value,
                       const std::string& help);
  CliFlags& add_bool(const std::string& name, bool default_value,
                     const std::string& help);
  CliFlags& add_string(const std::string& name,
                       const std::string& default_value,
                       const std::string& help);

  /// Parses argv. Returns false (after printing usage) on `--help` or on
  /// any malformed/unknown flag.
  bool parse(int argc, const char* const* argv);

  /// Typed lookups; assert if the name was never registered.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Renders the usage/help text.
  std::string usage(const std::string& program) const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  const Flag& find(const std::string& name, Type type) const;
  bool set_from_string(Flag& flag, const std::string& text);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace coupon
