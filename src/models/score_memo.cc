#include "models/score_memo.h"

namespace certa::models {
namespace {

thread_local ScoreMemo* installed_memo = nullptr;

}  // namespace

ScoreMemo* ScoreMemo::Installed() { return installed_memo; }

ScoreMemo::Scope::Scope(ScoreMemo* memo) : previous_(installed_memo) {
  installed_memo = memo;
}

ScoreMemo::Scope::~Scope() { installed_memo = previous_; }

}  // namespace certa::models
