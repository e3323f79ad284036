/// \file string_util.h
/// \brief String helpers: split/join/trim, numeric parsing and formatting.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace vr {

/// Splits \p input on \p delim; empty tokens are kept unless
/// \p skip_empty is true.
std::vector<std::string> Split(std::string_view input, char delim,
                               bool skip_empty = false);

/// Splits \p input on any ASCII whitespace, skipping empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if \p s begins with \p prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if \p s ends with \p suffix.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lowercases ASCII letters.
std::string ToLower(std::string_view s);

/// Parses a signed 64-bit integer from the whole of \p s.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double from the whole of \p s.
Result<double> ParseDouble(std::string_view s);

/// Formats a double as the shortest decimal that parses back to the same
/// bits (std::to_chars); never longer than "%.17g". NaN and infinities
/// are spelled "nan", "inf", with a leading '-' when the sign bit is set.
std::string FormatDouble(double v);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a byte count like "4.2 KiB".
std::string HumanBytes(uint64_t bytes);

}  // namespace vr
