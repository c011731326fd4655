//===- solver/SolverSession.cpp - Scoped incremental VC sessions --------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "solver/SolverSession.h"

using namespace expresso;
using namespace expresso::solver;
using logic::Term;

SolverSession::SolverSession(CachingSolver *Cache, SmtSolver &Backend,
                             bool Incremental)
    : Cache(Cache), Backend(Backend), Absolute(*this),
      Native(Incremental && Backend.nativeIncremental()) {}

SolverSession::~SolverSession() {
  // Restore the backend to an empty stack so it can serve a later session.
  dropGuardScope();
  if (InvariantPushed)
    Backend.pop();
}

void SolverSession::markBroken() {
  if (GuardPushed) {
    Backend.pop();
    GuardPushed = false;
  }
  if (InvariantPushed) {
    Backend.pop();
    InvariantPushed = false;
  }
  Native = false;
}

bool SolverSession::setInvariant(const Term *I) {
  if (Invariant)
    return Invariant == I;
  Invariant = I;
  if (!Native || !I || I->isTrue())
    return true; // nothing worth asserting; discharges stay sound regardless
  if (!Backend.push()) {
    markBroken();
    return true;
  }
  InvariantPushed = true;
  if (!Backend.assertTerm(I))
    markBroken();
  return true;
}

void SolverSession::enterCcr(const Term *Guard) {
  dropGuardScope();
  this->Guard = Guard;
}

void SolverSession::exitCcr() {
  dropGuardScope();
  Guard = nullptr;
}

bool SolverSession::ensureGuardPushed() {
  if (!Native || GuardPushed || !Guard || Guard->isTrue())
    return GuardPushed;
  if (!Backend.push()) {
    markBroken();
    return false;
  }
  GuardPushed = true;
  if (!Backend.assertTerm(Guard)) {
    markBroken();
    return false;
  }
  return true;
}

void SolverSession::dropGuardScope() {
  if (!GuardPushed)
    return;
  Backend.pop();
  GuardPushed = false;
}

CheckResult SolverSession::computeScoped(const Term *F) {
  // Only native mode discharges through the session solver. Otherwise
  // (--incremental=off, or a snapshot backend, which would re-encode the
  // same one-shot formula with extra steps and whose Unknown-fallback would
  // double-count backend queries) each query is one absolute checkSat.
  if (Native) {
    CheckResult R = Backend.checkSatAssuming({F});
    // An incremental Unknown falls back to the one-shot discharge so a
    // session never answers weaker than --incremental=off would. (A genuine
    // Unknown re-derives deterministically; the retry only matters when the
    // session machinery itself gave up.)
    if (R.TheAnswer != Answer::Unknown)
      return R;
  }
  return Backend.checkSat(F);
}

CheckResult SolverSession::checkSatAbsolute(const Term *F) {
  ++Lookups;
  // With no prefix pushed, the session stack is empty and a scoped check is
  // *exactly* an absolute one — so it may ride the long-lived solver (this
  // is how invariant inference reuses contexts without asserting anything).
  // With prefixes pushed, absolute semantics require the backend's plain
  // checkSat, which never sees the stack.
  auto Compute = [this](const Term *G) {
    return (InvariantPushed || GuardPushed) ? Backend.checkSat(G)
                                            : computeScoped(G);
  };
  if (Cache)
    return Cache->lookupOrCompute(F, Compute);
  return Compute(F);
}

CheckResult SolverSession::checkSatUnderGuard(const Term *F) {
  ++Lookups;
  ensureGuardPushed();
  if (Cache)
    return Cache->lookupOrCompute(
        F, [this](const Term *G) { return computeScoped(G); });
  return computeScoped(F);
}

CheckResult SolverSession::checkSatUnderInvariant(const Term *F) {
  ++Lookups;
  dropGuardScope();
  if (Cache)
    return Cache->lookupOrCompute(
        F, [this](const Term *G) { return computeScoped(G); });
  return computeScoped(F);
}
