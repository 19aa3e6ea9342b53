#include "agg/merge_partials.h"

#include <string>

namespace rj::agg {

Result<MergedPartials> MergePartials(const std::vector<ShardPartial>& parts) {
  MergedPartials merged;

  // Establish the polygon count from the first non-empty shard; every
  // later non-empty shard must agree.
  std::size_t num_polygons = 0;
  bool have_arrays = false;
  for (const ShardPartial& part : parts) {
    if (part.arrays.count.size() == 0) continue;
    if (!have_arrays) {
      num_polygons = part.arrays.count.size();
      have_arrays = true;
    } else if (part.arrays.count.size() != num_polygons) {
      return Status::InvalidArgument(
          "shard partials disagree on polygon count: " +
          std::to_string(num_polygons) + " vs " +
          std::to_string(part.arrays.count.size()));
    }
  }
  if (have_arrays) {
    merged.arrays.Resize(num_polygons);
    for (const ShardPartial& part : parts) {
      if (part.arrays.count.size() == 0) continue;
      merged.arrays.AddFrom(part.arrays);
    }
  }

  // Ranges: component-wise interval sums (see header for the exactness
  // contract). Loose and expected vectors travel together.
  std::size_t num_ranged = 0;
  bool have_ranges = false;
  for (const ShardPartial& part : parts) {
    if (part.ranges.loose.empty() && part.ranges.expected.empty()) continue;
    if (part.ranges.loose.size() != part.ranges.expected.size()) {
      return Status::InvalidArgument(
          "shard ranges have mismatched loose/expected sizes");
    }
    if (!have_ranges) {
      num_ranged = part.ranges.loose.size();
      have_ranges = true;
    } else if (part.ranges.loose.size() != num_ranged) {
      return Status::InvalidArgument(
          "shard partials disagree on ranged polygon count");
    }
  }
  if (have_ranges) {
    merged.ranges.loose.assign(num_ranged, ResultInterval{});
    merged.ranges.expected.assign(num_ranged, ResultInterval{});
    for (const ShardPartial& part : parts) {
      if (part.ranges.loose.empty()) continue;
      for (std::size_t i = 0; i < num_ranged; ++i) {
        merged.ranges.loose[i].lower += part.ranges.loose[i].lower;
        merged.ranges.loose[i].upper += part.ranges.loose[i].upper;
        merged.ranges.expected[i].lower += part.ranges.expected[i].lower;
        merged.ranges.expected[i].upper += part.ranges.expected[i].upper;
      }
    }
  }

  for (const ShardPartial& part : parts) {
    merged.counters = merged.counters.Plus(part.counters);
    merged.timing.Add(part.timing);
  }
  return merged;
}

}  // namespace rj::agg
