#pragma once
// Minimal command-line option parser shared by the bench harnesses and
// examples. Supports "--name value", "--name=value" and boolean flags
// ("--full"). Unknown options raise an error listing valid names so each
// binary is self-documenting via --help.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sweep::util {

class CliParser {
 public:
  CliParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Register options before parse(). `help` is shown by --help.
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Why parsing stopped: --help was requested (empty message) or argv was
  /// rejected (message, prefixed with the program name).
  struct Rejection {
    std::string message;
    bool show_help = false;  ///< parse() prints the help text after it
  };

  /// Parses argv. Returns false if --help was requested (help printed) or an
  /// error occurred (message printed); callers should exit in that case.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// parse() without printing: std::nullopt when argv parsed, otherwise why
  /// it stopped. For callers that report the rejection themselves.
  [[nodiscard]] std::optional<Rejection> parse_quiet(int argc,
                                                     const char* const* argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string str(const std::string& name) const;
  /// Numeric accessors parse strictly (whole token, in range) and throw
  /// std::invalid_argument naming the option on malformed values — a typo
  /// like "--procs=abc" must not silently become 0 processors downstream.
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  /// integer() for counts and sizes: a negative value throws the same
  /// std::invalid_argument, so "--cache-bytes -1" cannot wrap to 2^64 - 1.
  [[nodiscard]] std::size_t non_negative(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  /// Comma-separated integer list, e.g. "--procs 8,16,32". Empty string is
  /// the empty list; empty or malformed elements throw.
  [[nodiscard]] std::vector<std::int64_t> int_list(const std::string& name) const;

  void print_help() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace sweep::util
