// Per-rank message matching engine.
//
// Implements MPI matching semantics: a receive matches a message when the
// communicator context is equal and source/tag are equal or wildcarded.
// Posted receives are honoured in post order; unexpected messages are kept
// and scanned in arrival order, which preserves the non-overtaking
// guarantee (messages on one communicator between a rank pair are matched
// in the order they were delivered).
//
// One context per rank may instead be *listened* (GASNet's active-message
// model): its messages bypass matching and run a handler on the thread that
// delivers them — the delivery engine, the shm drain, or the sender itself
// for self-sends and instant networks — so control traffic needs no thread
// blocked in probe/recv to pick it up.
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>

#include "minimpi/message.hpp"
#include "minimpi/request.hpp"

namespace ompc::mpi {

class Mailbox {
 public:
  /// Hands an arrived message to this rank: completes the first matching
  /// posted receive or stores it in the unexpected queue.
  void deliver(Envelope&& env);

  /// Posts a nonblocking receive into [buf, buf+capacity).
  Request post_recv(void* buf, std::size_t capacity, Rank src, Tag tag,
                    ContextId context);

  /// Blocking receive (post + wait).
  Status recv(void* buf, std::size_t capacity, Rank src, Tag tag,
              ContextId context);

  /// Nonblocking probe of the unexpected queue.
  std::optional<Status> iprobe(Rank src, Tag tag, ContextId context);

  /// Blocking probe: waits until a matching message has arrived and returns
  /// its envelope metadata without consuming it.
  Status probe(Rank src, Tag tag, ContextId context);

  /// Removes a posted receive from the matching engine (like
  /// MPI_Cancel+MPI_Request_free for receives). No-op if the request
  /// already matched. Needed when the expected sender died: the buffer the
  /// receive points into may be reused/freed, and a stale in-flight
  /// payload must not land in it.
  void cancel(const std::shared_ptr<detail::RequestState>& state);

  /// Number of unexpected (arrived, unmatched) messages — test/debug hook.
  std::size_t unexpected_count() const;

  /// Fault injection: marks the owning rank dead. Every blocked receive or
  /// probe (and any future blocking call) throws RankKilledError; arriving
  /// messages are dropped on the floor. `rank` is only used for the error.
  void poison(Rank rank);

  bool poisoned() const;

  /// Fault injection at a protocol point: `die` runs once, on the thread
  /// that next posts a receive for `tag` on `context`, before that receive
  /// matches. `die` is expected to kill the rank (poison this mailbox), so
  /// the receive throws RankKilledError exactly where the protocol stood.
  void die_at_recv(ContextId context, Tag tag, std::function<void()> die);

  // --- active-message delivery --------------------------------------------

  using MessageFn = std::function<void(Envelope&&)>;

  /// Routes every message on `context` to `on_message`, run on the
  /// delivering thread with no mailbox lock held; calls may overlap when
  /// several threads deliver at once. Messages of that context that arrived
  /// earlier are handed over first, in arrival order, on the calling thread
  /// (anything delivered meanwhile queues behind them). `on_poison` runs
  /// once when the rank is killed — at once if it already was — and later
  /// messages are dropped like every delivery to a dead rank. Both handlers
  /// must not block: they run on delivery threads. One listener per
  /// mailbox.
  void listen(ContextId context, MessageFn on_message,
              std::function<void()> on_poison);

  /// Stops listening: later messages on the context are matched again.
  /// Blocks until every handler call already in flight has returned, so
  /// their captures may be destroyed afterwards. Never call it from inside
  /// a handler.
  void unlisten();

 private:
  struct Listener {
    ContextId context = 0;
    MessageFn on_message;
    std::function<void()> on_poison;
  };

  /// Marks one handler call finished; wakes unlisten() at zero.
  void end_call();

  static bool matches(const Envelope& env, Rank src, Tag tag,
                      ContextId context) noexcept {
    return env.context == context &&
           (src == kAnySource || env.src == src) &&
           (tag == kAnyTag || env.tag == tag);
  }

  mutable std::mutex mutex_;
  std::condition_variable arrival_cv_;  ///< Signalled on unexpected arrivals.
  std::deque<Envelope> unexpected_;
  std::list<std::shared_ptr<detail::RequestState>> posted_;
  bool poisoned_ = false;
  Rank rank_ = -1;  ///< set by poison(), for the error message only

  struct Trap {
    ContextId context = 0;
    Tag tag = 0;
    std::function<void()> die;
  };
  std::optional<Trap> trap_;  ///< die_at_recv, until it fires

  std::unique_ptr<const Listener> listener_;  ///< null: nothing listened
  /// listen() is still handing over early arrivals: new messages of the
  /// listened context queue behind them in unexpected_.
  bool draining_ = false;
  int calls_ = 0;  ///< handler calls in flight
  std::condition_variable calls_cv_;  ///< signalled when calls_ drops to 0
};

}  // namespace ompc::mpi
