// Typed error taxonomy for the service path.
//
// Every recoverable failure the engine can hit while serving — malformed
// demand entries, uninstalled pairs, stream read/truncation errors, bad
// capacities, scratch-arena allocation failure, worker faults, a
// disconnected graph under a tree or shortest-path backend, a path system
// routed on a graph it is not bound to, a non-positive edge length, an
// exact LP oracle that finds no optimum — is
// thrown as a SorError carrying a stable {code, site, detail} triple. The
// scale and scenario layers dispatch on `code` (BatchSpec::on_error,
// scenario DegradePolicy) instead of string-matching what().
//
// SorError derives std::invalid_argument and preserves the exact legacy
// message text in what(), so existing catch sites and tests that expect
// std::invalid_argument (or std::logic_error) keep working unchanged.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace sor {

/// Stable error codes for the service path. Values are part of the
/// EpochReport/BatchReport surface (recorded as ints), so append-only.
enum class ErrorCode {
  kMalformedDemand = 0,  ///< bad (s, t, value) triple or ordering violation
  kUninstalledPair = 1,  ///< demand pair without installed candidate paths
  kStreamRead = 2,       ///< demand-stream read failure (I/O or injected)
  kStreamTruncated = 3,  ///< stream ended mid-record / injected truncation
  kBadCapacity = 4,      ///< non-finite or non-positive edge capacity
  kScratchAlloc = 5,     ///< scratch-arena acquisition failed
  kWorkerFault = 6,      ///< exception inside a route_batch worker
  kInstallFault = 7,     ///< Stage 2 (install_paths) failed
  kInfiniteDistance = 8, ///< a backend's metric has a non-finite distance
  kGraphMismatch = 9,    ///< path system bound to another Graph object
  kBadLength = 10,       ///< non-finite or non-positive edge length
  kLpNotOptimal = 11,    ///< an exact (simplex) oracle found no optimum
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedDemand: return "malformed_demand";
    case ErrorCode::kUninstalledPair: return "uninstalled_pair";
    case ErrorCode::kStreamRead: return "stream_read";
    case ErrorCode::kStreamTruncated: return "stream_truncated";
    case ErrorCode::kBadCapacity: return "bad_capacity";
    case ErrorCode::kScratchAlloc: return "scratch_alloc";
    case ErrorCode::kWorkerFault: return "worker_fault";
    case ErrorCode::kInstallFault: return "install_fault";
    case ErrorCode::kInfiniteDistance: return "infinite_distance";
    case ErrorCode::kGraphMismatch: return "graph_mismatch";
    case ErrorCode::kBadLength: return "bad_length";
    case ErrorCode::kLpNotOptimal: return "lp_not_optimal";
  }
  return "unknown";
}

class SorError : public std::invalid_argument {
 public:
  SorError(ErrorCode code, std::string site, const std::string& detail)
      : std::invalid_argument(detail), code_(code), site_(std::move(site)) {}

  ErrorCode code() const { return code_; }
  /// Where the failure happened ("demand_stream", "route_batch",
  /// "set_edge_capacity", "scratch_pool", "worker", "install", ...).
  const std::string& site() const { return site_; }
  /// The human-readable message (same text as what()).
  std::string detail() const { return what(); }

 private:
  ErrorCode code_;
  std::string site_;
};

}  // namespace sor
