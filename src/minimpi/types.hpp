// Core identifiers and constants for the minimpi message-passing substrate.
//
// minimpi reproduces the MPI semantics OMPC depends on (README, "Simulation
// design"): ranks, tags, communicator contexts, wildcard matching and
// non-overtaking delivery within a communicator. Ranks are threads of one
// process; the "wire" is the simulated network in network.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ompc::mpi {

using Rank = int;
using Tag = int;

/// Matches messages from any source (like MPI_ANY_SOURCE).
inline constexpr Rank kAnySource = -1;
/// Matches messages with any tag (like MPI_ANY_TAG).
inline constexpr Tag kAnyTag = -1;

/// User tags must stay below this bound; the range above is reserved for
/// internal protocols (collectives), mirroring MPI's MPI_TAG_UB contract.
inline constexpr Tag kMaxUserTag = (1 << 29) - 1;

/// Reserved tag space for collective operations (barrier/bcast/gather).
inline constexpr Tag kCollectiveTagBase = 1 << 29;

/// Identifies a communicator; each context is an isolated matching domain.
using ContextId = int;

/// Receive completion information (like MPI_Status).
struct Status {
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  std::size_t count = 0;  ///< Payload size in bytes.
};

/// Deterministic fault-injection order: kill `rank` once the universe has
/// been running for `at_ns` nanoseconds (see Universe::kill_rank).
struct KillSpec {
  Rank rank = -1;
  std::int64_t at_ns = 0;
};

/// Thrown by blocking operations of a rank that has been killed by fault
/// injection. Ranks are threads, so "dying" means every blocked receive or
/// probe unwinds with this error and the rank's main function returns.
class RankKilledError : public std::runtime_error {
 public:
  explicit RankKilledError(Rank rank)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " was killed by fault injection"),
        rank_(rank) {}

  Rank rank() const noexcept { return rank_; }

 private:
  Rank rank_;
};

}  // namespace ompc::mpi
