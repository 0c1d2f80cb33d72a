#ifndef CERTA_MODELS_SCORE_MEMO_H_
#define CERTA_MODELS_SCORE_MEMO_H_

#include <memory>

namespace certa::models {

/// Featurization state that the model calls of one explanation share.
///
/// CERTA scores perturbed copies of two records, so the batches of one
/// explanation keep meeting the same few attribute values and tokens. A
/// memo keeps what a model derives from them (value reps, token ids,
/// Jaro-Winkler of token pairs, feature blocks of value pairs) from one
/// batch to the next. Everything in it is keyed by content, never by
/// record address: perturbed records are per-batch temporaries whose
/// addresses are reused. Every memoized number is the exact double the
/// per-pair path computes, so a memo never changes a score.
///
/// ScoringEngine owns the memos of its model calls and lends one to
/// each pool chunk it runs, installed on the running thread by a Scope;
/// FeatureMatcher::ScoreBatch picks it up through Installed(), so
/// decorators between the engine and the model need not forward it. A
/// memo is never used by two threads at once and takes no lock.
class ScoreMemo {
 public:
  /// One model's share of a memo; each matcher derives its own.
  struct State {
    State() = default;
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    virtual ~State() = default;
  };

  /// The memo's state of type T, default-constructed on first use. A
  /// memo holds one model's state: asking for another type replaces it.
  template <typename T>
  T& Get() {
    T* state = dynamic_cast<T*>(state_.get());
    if (state == nullptr) {
      auto fresh = std::make_unique<T>();
      state = fresh.get();
      state_ = std::move(fresh);
    }
    return *state;
  }

  /// The memo installed on the calling thread, or nullptr.
  static ScoreMemo* Installed();

  /// Installs `memo` on the calling thread for the scope's lifetime and
  /// restores the previously installed one on exit.
  class Scope {
   public:
    explicit Scope(ScoreMemo* memo);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScoreMemo* previous_;
  };

 private:
  std::unique_ptr<State> state_;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_SCORE_MEMO_H_
