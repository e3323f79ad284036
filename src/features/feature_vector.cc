#include "features/feature_vector.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/string_util.h"

namespace vr {

const char* FeatureKindName(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kColorHistogram:
      return "histogram";
    case FeatureKind::kGlcm:
      return "glcm";
    case FeatureKind::kGabor:
      return "gabor";
    case FeatureKind::kTamura:
      return "tamura";
    case FeatureKind::kAutoCorrelogram:
      return "acc";
    case FeatureKind::kNaiveSignature:
      return "naive";
    case FeatureKind::kRegionGrowing:
      return "regions";
    case FeatureKind::kEdgeHistogram:
      return "edgehist";
    case FeatureKind::kColorMoments:
      return "moments";
    case FeatureKind::kColorSignature:
      return "colorsig";
  }
  return "unknown";
}

Result<FeatureKind> FeatureKindFromName(const std::string& name) {
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const FeatureKind kind = static_cast<FeatureKind>(i);
    if (name == FeatureKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown feature kind: " + name);
}

std::string FeatureVector::ToString() const {
  std::string out = type_;
  out += ' ';
  out += std::to_string(values_.size());
  for (double v : values_) {
    out += ' ';
    out += FormatDouble(v);
  }
  return out;
}

namespace {

/// ASCII whitespace, as std::isspace in the "C" locale, but inlined: the
/// tokenizer tests every byte of every stored feature row.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Pops the next whitespace-delimited token off the front of \p rest;
/// empty once no token remains.
std::string_view NextToken(std::string_view* rest) {
  size_t begin = 0;
  while (begin < rest->size() && IsSpace((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsSpace((*rest)[end])) ++end;
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return token;
}

}  // namespace

Result<FeatureVector> FeatureVector::FromString(const std::string& text) {
  // Tokens are views into text and every number is parsed in place.
  std::string_view rest = text;
  const std::string_view type = NextToken(&rest);
  const std::string_view count = NextToken(&rest);
  if (count.empty()) {
    return Status::Corruption("feature string too short");
  }
  VR_ASSIGN_OR_RETURN(int64_t n, ParseInt64(count));
  // The values present are counted before anything is sized from n, so a
  // corrupt count cannot drive an allocation.
  size_t present = 0;
  for (std::string_view scan = rest; !NextToken(&scan).empty();) ++present;
  if (n < 0 || static_cast<size_t>(n) != present) {
    return Status::Corruption(StringPrintf(
        "feature string declares %lld values but carries %zu",
        static_cast<long long>(n), present));
  }
  std::vector<double> values(present);
  for (double& v : values) {
    VR_ASSIGN_OR_RETURN(v, ParseDouble(NextToken(&rest)));
  }
  return FeatureVector(std::string(type), std::move(values));
}

double FeatureVector::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double FeatureVector::Norm() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return std::sqrt(s);
}

void FeatureVector::NormalizeL1() {
  const double s = Sum();
  if (s == 0.0) return;
  for (double& v : values_) v /= s;
}

double FeatureExtractor::DistanceSpan(const double* a, size_t na,
                                      const double* b, size_t nb) const {
  // Default: L2 over the common prefix; dimension mismatch contributes
  // the missing mass.
  const size_t n = std::min(na, nb);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  for (size_t i = n; i < na; ++i) acc += a[i] * a[i];
  for (size_t i = n; i < nb; ++i) acc += b[i] * b[i];
  return std::sqrt(acc);
}

void FeatureExtractor::BatchDistance(const double* query, size_t qn,
                                     const double* rows, size_t stride,
                                     const uint32_t* lengths,
                                     const uint32_t* indices, size_t count,
                                     double* out) const {
  for (size_t i = 0; i < count; ++i) {
    const uint32_t r = indices[i];
    out[i] = DistanceSpan(query, qn, rows + static_cast<size_t>(r) * stride,
                          lengths[r]);
  }
}

}  // namespace vr
