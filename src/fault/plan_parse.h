// Shared helpers for the textual fault-plan grammars.
//
// Both plan families — the shared-memory FaultPlan ("crash:0@4,...")
// and the network NetFaultPlan ("drop:100,partition:40+200@0.1,...") —
// are comma-separated lists of "kind:body" specs. The splitting and the
// strict integer parsing live here so the two parsers reject the same
// junk the same way (empty specs, trailing commas, partial numbers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace compreg::fault::plan_parse {

// Strict parses (util/decimal.h): the whole string must be the digits
// of one number that fits. No sign, no space.
bool parse_u64(const std::string& text, std::uint64_t& out);
bool parse_int(const std::string& text, int& out);

// Splits "kind:body,kind:body" into (kind, body) pairs. Returns nullopt
// on an empty input, an empty spec, a trailing comma, or a spec with no
// ':' separator.
std::optional<std::vector<std::pair<std::string, std::string>>> split_specs(
    const std::string& text);

// Parses "<int>@<u64>" (b == nullptr) or "<int>@<u64>+<u64>"; returns
// false on junk.
bool parse_spec_body(const std::string& body, int& proc, std::uint64_t& a,
                     std::uint64_t* b);

}  // namespace compreg::fault::plan_parse
