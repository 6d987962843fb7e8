#include "fault/plan_parse.h"

#include <limits>
#include <sstream>

#include "util/decimal.h"

namespace compreg::fault::plan_parse {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const std::optional<std::uint64_t> v = parse_decimal(text.c_str());
  if (v) out = *v;
  return v.has_value();
}

bool parse_int(const std::string& text, int& out) {
  const std::optional<std::uint64_t> v =
      parse_decimal(text.c_str(), 0, std::numeric_limits<int>::max());
  if (v) out = static_cast<int>(*v);
  return v.has_value();
}

std::optional<std::vector<std::pair<std::string, std::string>>> split_specs(
    const std::string& text) {
  // Strict: no empty input, no empty specs (",," or trailing comma).
  if (text.empty() || text.back() == ',') return std::nullopt;
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(text);
  std::string spec;
  while (std::getline(is, spec, ',')) {
    if (spec.empty()) return std::nullopt;
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) return std::nullopt;
    out.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
  }
  return out;
}

bool parse_spec_body(const std::string& body, int& proc, std::uint64_t& a,
                     std::uint64_t* b) {
  const std::size_t at = body.find('@');
  if (at == std::string::npos || at == 0) return false;
  if (!parse_int(body.substr(0, at), proc)) return false;
  const std::string rest = body.substr(at + 1);
  const std::size_t plus = rest.find('+');
  if (b == nullptr) {
    if (plus != std::string::npos) return false;
    return parse_u64(rest, a);
  }
  if (plus == std::string::npos || plus == 0) return false;
  return parse_u64(rest.substr(0, plus), a) &&
         parse_u64(rest.substr(plus + 1), *b);
}

}  // namespace compreg::fault::plan_parse
