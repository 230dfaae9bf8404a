#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace sweep::util {
namespace {

/// Strict integer parsing: the whole token must be one base-10 integer in
/// range. strtoll with a null endptr would silently turn "--procs=abc" into
/// 0 downstream; here every malformed value names the offending option.
std::int64_t parse_strict_int(const std::string& name,
                              const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                text + "'");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": integer out of range: '" +
                                text + "'");
  }
  return value;
}

double parse_strict_real(const std::string& name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                text + "'");
  }
  // Overflow to +-HUGE_VAL is an error; denormal underflow (also ERANGE) is
  // an acceptable rounding and kept.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    throw std::invalid_argument("--" + name + ": number out of range: '" +
                                text + "'");
  }
  return value;
}

bool is_boolean_token(const std::string& text) {
  return text == "true" || text == "false" || text == "1" || text == "0";
}

}  // namespace

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{help, "false", /*is_flag=*/true, false};
}

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{help, default_value, /*is_flag=*/false, false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  const std::optional<Rejection> rejection = parse_quiet(argc, argv);
  if (!rejection) return true;
  if (!rejection->message.empty()) {
    std::fprintf(stderr, "%s\n", rejection->message.c_str());
  }
  if (rejection->show_help) print_help();
  return false;
}

std::optional<CliParser::Rejection> CliParser::parse_quiet(
    int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Rejection{"", true};
    if (arg.rfind("--", 0) != 0) {
      return Rejection{
          program_ + ": unexpected positional argument '" + arg + "'", true};
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      return Rejection{program_ + ": unknown option '--" + name + "'", true};
    }
    Option& opt = it->second;
    opt.seen = true;
    if (opt.is_flag) {
      const std::string value = inline_value.value_or("true");
      if (!is_boolean_token(value)) {
        return Rejection{program_ + ": flag '--" + name +
                         "' takes no value or true/false/1/0, got '" + value +
                         "'"};
      }
      opt.value = value;
    } else if (inline_value) {
      opt.value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        return Rejection{program_ + ": option '--" + name +
                         "' requires a value"};
      }
      opt.value = argv[++i];
    }
  }
  return std::nullopt;
}

bool CliParser::flag(const std::string& name) const {
  const auto& opt = options_.at(name);
  return opt.value == "true" || opt.value == "1";
}

std::string CliParser::str(const std::string& name) const {
  return options_.at(name).value;
}

std::int64_t CliParser::integer(const std::string& name) const {
  return parse_strict_int(name, options_.at(name).value);
}

std::size_t CliParser::non_negative(const std::string& name) const {
  const std::string& text = options_.at(name).value;
  const std::int64_t value = parse_strict_int(name, text);
  if (value < 0) {
    throw std::invalid_argument("--" + name +
                                ": expected a non-negative integer, got '" +
                                text + "'");
  }
  return static_cast<std::size_t>(value);
}

double CliParser::real(const std::string& name) const {
  return parse_strict_real(name, options_.at(name).value);
}

std::vector<std::int64_t> CliParser::int_list(const std::string& name) const {
  std::vector<std::int64_t> values;
  const std::string& text = options_.at(name).value;
  if (text.empty()) return values;  // "" is the conventional empty default
  std::size_t start = 0;
  for (;;) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    values.push_back(parse_strict_int(name, text.substr(start, comma - start)));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return values;
}

void CliParser::print_help() const {
  std::printf("%s — %s\n\nOptions:\n", program_.c_str(), description_.c_str());
  for (const auto& [name, opt] : options_) {
    if (opt.is_flag) {
      std::printf("  --%-22s %s\n", name.c_str(), opt.help.c_str());
    } else {
      std::printf("  --%-22s %s (default: %s)\n", (name + " <v>").c_str(),
                  opt.help.c_str(), opt.value.c_str());
    }
  }
}

}  // namespace sweep::util
