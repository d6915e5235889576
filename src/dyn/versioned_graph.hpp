#pragma once

// dyn::VersionedGraph — an epoch-versioned mutable graph.
//
// The CSR format every engine consumes is immutable by design: kernels
// read row offsets and adjacency with no synchronization. This class adds
// mutation *around* that invariant instead of breaking it: a batch of
// edge inserts/deletes commits by rebuilding a fresh CSR snapshot
// (copy-on-write), and each committed batch produces a new immutable
// **epoch** — (id, fingerprint, shared_ptr<const CSRGraph>). In-flight
// readers keep the shared_ptr they grabbed and continue on their snapshot
// while mutators advance; nothing is ever modified in place.
//
// Commit semantics match applying the batch's updates sequentially:
// within one batch the last operation on an edge wins, updates that do
// not change the graph (inserting a present edge, removing an absent one,
// self loops) are dropped as no-ops, and the surviving *applied* set is
// reported normalized (u < v, deduplicated) so incremental engines can
// reason about exactly the edges that changed.
//
// Only undirected graphs are mutable: the incremental BC machinery
// downstream (dyn::IncrementalBC) relies on the
// d(s,u) == d(u,s) symmetry, so the constructor rejects directed graphs
// up front rather than letting a later refresh silently corrupt scores.
//
// Thread safety: current() and apply() may be called concurrently from
// any thread; commits serialize on an internal mutex. An epoch, once
// returned, is a value — safe to read forever without the VersionedGraph.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "trace/trace.hpp"

namespace hbc::dyn {

/// One edge mutation. Edges are undirected: {u,v} and {v,u} name the same
/// edge and are normalized to u < v when applied.
struct EdgeUpdate {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  bool insert = true;  // false = remove

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// A batch of updates committed atomically as one epoch transition.
struct UpdateBatch {
  std::vector<EdgeUpdate> edges;

  UpdateBatch& insert(graph::VertexId u, graph::VertexId v) {
    edges.push_back({u, v, true});
    return *this;
  }
  UpdateBatch& remove(graph::VertexId u, graph::VertexId v) {
    edges.push_back({u, v, false});
    return *this;
  }
  std::size_t size() const noexcept { return edges.size(); }
  bool empty() const noexcept { return edges.empty(); }
};

/// An immutable snapshot of the graph at one version. `graph` is shared
/// with every other holder of the epoch; `fingerprint` is the same
/// structural hash the service keys its result cache on
/// (graph::CSRGraph::fingerprint), so epoch transitions are observable as
/// fingerprint transitions.
struct Epoch {
  std::uint64_t id = 0;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const graph::CSRGraph> graph;
};

/// What one apply() did: the epochs on either side of the commit plus the
/// normalized set of updates that actually changed the graph.
struct CommitResult {
  Epoch before;
  Epoch after;
  /// Effective updates, normalized (u < v), one entry per changed edge.
  /// Empty when the whole batch was a no-op (before.id == after.id then).
  std::vector<EdgeUpdate> applied;
  /// Updates dropped: self loops, inserts of present edges, removes of
  /// absent ones, and same-edge operations superseded within the batch.
  std::size_t noops = 0;
};

class VersionedGraph {
 public:
  /// Epoch 0 wraps `initial` as-is (no rebuild). Throws
  /// std::invalid_argument for directed graphs. `tracer` (non-owning, may
  /// be null) receives a kDyn "epoch-commit" instant per commit.
  explicit VersionedGraph(graph::CSRGraph initial, trace::Tracer* tracer = nullptr);
  explicit VersionedGraph(std::shared_ptr<const graph::CSRGraph> initial,
                          trace::Tracer* tracer = nullptr);

  /// Snapshot of the newest committed epoch.
  Epoch current() const;
  std::uint64_t epoch_id() const;

  /// Commit `batch`: drop no-ops, rebuild the CSR with the surviving
  /// updates, advance the epoch. A batch with no effective updates keeps
  /// the current epoch (no rebuild, CommitResult::applied empty). Throws
  /// std::out_of_range if any update names a vertex >= num_vertices —
  /// the graph is untouched then. Concurrent apply() calls serialize.
  CommitResult apply(const UpdateBatch& batch);

  /// Two-phase form for callers that must do fallible work between
  /// building the new snapshot and publishing it (IncrementalBC refreshes
  /// scores in between so a cancelled refresh never strands the epoch
  /// ahead of the scores): stage() computes the CommitResult without
  /// advancing, commit() publishes it. commit() throws std::logic_error
  /// if another commit landed since the stage (stale base epoch);
  /// a staged no-op commit is accepted and does nothing.
  CommitResult stage(const UpdateBatch& batch) const;
  void commit(const CommitResult& staged);

  /// Committed batches that changed the graph (== current().id).
  std::uint64_t commits() const { return epoch_id(); }

  /// Persist the newest committed epoch as a .hbcg (optionally varint-
  /// compressed) file and return it. The epoch's structural fingerprint
  /// is embedded in the header, so a later open_mapped() verifies it is
  /// reopening exactly this epoch. Mutation keeps the heap backing; this
  /// is the handoff point to the out-of-core serving path.
  Epoch commit_to_file(const std::string& path, bool compress = false) const;

  /// Swap the current snapshot for a zero-copy mapped view of `path`
  /// (written by commit_to_file). Throws storage::FormatError if the
  /// file is corrupt or its fingerprint does not match the current
  /// epoch's — the epoch id is preserved, only the backing changes.
  /// In-flight readers keep their heap snapshot. Returns the new epoch.
  Epoch reopen_from_file(const std::string& path);

 private:
  CommitResult stage_locked(const UpdateBatch& batch) const;
  void commit_locked(const CommitResult& staged);

  trace::Tracer* tracer_ = nullptr;

  mutable std::mutex mu_;  // guards current_ and serializes commits
  Epoch current_;
};

}  // namespace hbc::dyn
