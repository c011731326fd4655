//===- logic/Term.cpp - Hash-consed logical terms --------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Interning is the engine's hottest shared path: every VC built on a
// placement worker, every scratch-context transfer into a solver, and every
// persistent-store decode funnels through here. The original design guarded
// one hash map with one mutex, which serialized all of it. This file
// replaces that with:
//
//  * 16 shards selected by the term's structural hash (a pure function of
//    shape, computable before any allocation);
//  * per-shard open-addressed tables of atomic buckets — the hit path is a
//    lock-free probe, the miss path publishes with a bucket CAS;
//  * per-shard bump-pointer arenas for the nodes themselves — a miss costs
//    one atomic offset bump instead of a heap allocation;
//  * table growth as a sealed-generation migration: the grower seals the
//    old table, drains in-flight publishers (a Dekker-style Writers gate,
//    all seq_cst), rehashes into a double-size successor, and publishes it.
//    Old generations stay alive until the context dies, so lock-free
//    readers never chase freed memory; a stale read is harmless because
//    entries are immutable and a stale *miss* re-checks the current
//    generation on the insert path.
//
// Determinism contract (see Term.h): ids come from one relaxed global
// counter claimed at candidate construction, so serial runs reproduce the
// single-mutex id sequence exactly, and with it operand sort order, printed
// Σ, and canonical TermCodec bytes.
//
//===----------------------------------------------------------------------===//

#include "logic/Term.h"

#include "logic/Printer.h"

#include <algorithm>
#include <new>
#include <thread>

using namespace expresso;
using namespace expresso::logic;

const char *logic::sortName(Sort S) {
  switch (S) {
  case Sort::Int:
    return "int";
  case Sort::Bool:
    return "bool";
  case Sort::IntArray:
    return "int[]";
  case Sort::BoolArray:
    return "bool[]";
  }
  return "?";
}

const char *logic::kindName(TermKind K) {
  switch (K) {
  case TermKind::IntConst:
    return "IntConst";
  case TermKind::BoolConst:
    return "BoolConst";
  case TermKind::Var:
    return "Var";
  case TermKind::Add:
    return "Add";
  case TermKind::Mul:
    return "Mul";
  case TermKind::Ite:
    return "Ite";
  case TermKind::Select:
    return "Select";
  case TermKind::Store:
    return "Store";
  case TermKind::Eq:
    return "Eq";
  case TermKind::Le:
    return "Le";
  case TermKind::Lt:
    return "Lt";
  case TermKind::Divides:
    return "Divides";
  case TermKind::Not:
    return "Not";
  case TermKind::And:
    return "And";
  case TermKind::Or:
    return "Or";
  }
  return "?";
}

std::string Term::str() const { return printTerm(this); }

namespace {

/// Structural hash of a prospective node, identical to the value the
/// original interner stamped after construction: shape only — kind, sort,
/// payload, name bytes (FNV-1a, not std::hash, for cross-process
/// stability), operand structural hashes. Computable before allocating the
/// node, which is what lets it double as the shard selector and table
/// probe hash.
uint64_t structuralHashOf(TermKind K, Sort S, int64_t IntVal,
                          const std::string &Name,
                          const std::vector<const Term *> &Ops) {
  uint64_t H = 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(K) + 1);
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 12) + (H >> 7);
    H *= 0xff51afd7ed558ccdULL;
  };
  Mix(static_cast<uint64_t>(S));
  Mix(static_cast<uint64_t>(IntVal));
  uint64_t NameH = 0xcbf29ce484222325ULL;
  for (char Ch : Name)
    NameH = (NameH ^ static_cast<unsigned char>(Ch)) * 0x100000001b3ULL;
  Mix(NameH);
  for (const Term *Op : Ops)
    Mix(Op->structuralHash());
  return H;
}

/// Full structural key comparison — the tie-breaker behind hash-equal
/// buckets. Operand comparison is pointer-wise: operands are already
/// canonical within the context.
bool matches(const Term *E, TermKind K, Sort S, int64_t IntVal,
             const std::string &Name,
             const std::vector<const Term *> &Ops) {
  if (E->kind() != K || E->sort() != S)
    return false;
  switch (K) {
  case TermKind::IntConst:
  case TermKind::BoolConst:
  case TermKind::Divides:
    if (E->intValue() != IntVal)
      return false;
    break;
  case TermKind::Var:
    if (E->varName() != Name)
      return false;
    break;
  default:
    break;
  }
  return E->operands() == Ops;
}

constexpr size_t InitialTableSlots = 64;       // per shard, power of two
constexpr size_t InitialChunkTerms = 64;       // first arena block
constexpr size_t MaxChunkBytes = 1u << 20;     // arena blocks cap at 1 MiB

} // namespace

TermContext::ArenaChunk::ArenaChunk(size_t Bytes)
    : Mem(new unsigned char[Bytes - Bytes % sizeof(Term)]),
      Capacity(Bytes - Bytes % sizeof(Term)) {}

TermContext::TermContext() {
  True = intern(TermKind::BoolConst, Sort::Bool, 1, "", {});
  False = intern(TermKind::BoolConst, Sort::Bool, 0, "", {});
  Zero = intern(TermKind::IntConst, Sort::Int, 0, "", {});
  One = intern(TermKind::IntConst, Sort::Int, 1, "", {});
}

TermContext::~TermContext() {
  // Nodes are arena-resident; destroy them in place so their Name/Ops heap
  // storage is released. Every offset below min(Used, Capacity) was a
  // successful allocation holding a constructed node (Capacity is a
  // multiple of sizeof(Term), and a racing over-bump only pushes Used past
  // Capacity without handing out an in-range offset).
  for (Shard &Sh : Shards)
    for (auto &Ch : Sh.Chunks) {
      size_t End = std::min(Ch->Used.load(std::memory_order_relaxed),
                            Ch->Capacity);
      for (size_t Off = 0; Off + sizeof(Term) <= End; Off += sizeof(Term))
        reinterpret_cast<Term *>(Ch->Mem.get() + Off)->~Term();
    }
}

Term *TermContext::allocateNode(Shard &Sh) {
  for (;;) {
    ArenaChunk *Ch = Sh.Chunk.load(std::memory_order_acquire);
    if (Ch) {
      size_t Off = Ch->Used.fetch_add(sizeof(Term), std::memory_order_relaxed);
      if (Off + sizeof(Term) <= Ch->Capacity)
        return reinterpret_cast<Term *>(Ch->Mem.get() + Off);
    }
    // First allocation or chunk exhausted: roll over under the arena mutex.
    // (Distinct from GrowMu: a publisher registered in the Writers gate may
    // land here, and table migration must never wait on the same lock.)
    std::lock_guard<std::mutex> Lock(Sh.ArenaMu);
    if (Sh.Chunk.load(std::memory_order_acquire) == Ch) {
      size_t Bytes = Ch ? std::min(Ch->Capacity * 2, MaxChunkBytes)
                        : InitialChunkTerms * sizeof(Term);
      auto Next = std::make_unique<ArenaChunk>(Bytes);
      ArenaChunk *P = Next.get();
      Sh.Chunks.push_back(std::move(Next));
      Sh.Chunk.store(P, std::memory_order_release);
    }
  }
}

void TermContext::growTable(Shard &Sh, Table *Old) {
  std::lock_guard<std::mutex> Lock(Sh.GrowMu);
  if (Sh.Current.load(std::memory_order_acquire) != Old)
    return; // lost the race: another thread already migrated (or created)
  if (Old) {
    // Seal, then drain in-flight publishers. Publishers register in
    // Writers *before* re-checking Sealed (both seq_cst), so either they
    // see the seal and back off, or this wait observes their registration
    // and their CAS lands before the rehash scan below — no published
    // entry can be missed.
    Old->Sealed.store(true, std::memory_order_seq_cst);
    while (Sh.Writers.load(std::memory_order_seq_cst) != 0)
      std::this_thread::yield();
  }
  size_t NewCap = Old ? Old->Capacity * 2 : InitialTableSlots;
  auto NewT = std::make_unique<Table>(NewCap);
  if (Old) {
    const size_t Mask = NewCap - 1;
    size_t Moved = 0;
    for (size_t I = 0; I < Old->Capacity; ++I) {
      const Term *E = Old->Slots[I].load(std::memory_order_relaxed);
      if (!E)
        continue;
      size_t Idx = E->structuralHash() & Mask;
      while (NewT->Slots[Idx].load(std::memory_order_relaxed))
        Idx = (Idx + 1) & Mask;
      NewT->Slots[Idx].store(E, std::memory_order_relaxed);
      ++Moved;
    }
    NewT->Used.store(Moved, std::memory_order_relaxed);
  }
  Table *Published = NewT.get();
  Sh.Tables.push_back(std::move(NewT));
  // Release-publish after all slot stores: a reader that acquires the new
  // generation sees every migrated entry. The old generation stays in
  // Sh.Tables untouched — concurrent lock-free readers may still probe it,
  // and since entries are immutable their hits stay valid; their misses
  // re-check the current generation via the insert path.
  Sh.Current.store(Published, std::memory_order_release);
}

const Term *TermContext::intern(TermKind K, Sort S, int64_t IntVal,
                                std::string Name,
                                std::vector<const Term *> Ops) {
  uint64_t H = structuralHashOf(K, S, IntVal, Name, Ops);
  Shard &Sh = Shards[H >> (64 - NumShardsLog2)];
  // Lock-free hit path: one acquire load of the table, one probe. Empty
  // buckets terminate the probe (entries are never removed).
  if (Table *T = Sh.Current.load(std::memory_order_acquire)) {
    const size_t Mask = T->Capacity - 1;
    size_t Idx = H & Mask;
    // Bounded probe: concurrent writers can briefly push a generation past
    // its load-factor target, so cap the scan at one full wrap and let the
    // miss path (which can grow the table) sort it out.
    for (size_t Step = 0; Step <= Mask; ++Step, Idx = (Idx + 1) & Mask) {
      const Term *E = T->Slots[Idx].load(std::memory_order_acquire);
      if (!E)
        break;
      if (E->structuralHash() == H && matches(E, K, S, IntVal, Name, Ops))
        return E;
    }
  }
  return internMiss(Sh, H, K, S, IntVal, std::move(Name), std::move(Ops));
}

const Term *TermContext::internMiss(Shard &Sh, uint64_t H, TermKind K, Sort S,
                                    int64_t IntVal, std::string Name,
                                    std::vector<const Term *> Ops) {
  Term *Candidate = nullptr;
  for (;;) {
    Table *T = Sh.Current.load(std::memory_order_acquire);
    if (!T ||
        (T->Used.load(std::memory_order_relaxed) + 1) * 4 > T->Capacity * 3) {
      growTable(Sh, T); // first table, or load factor above 3/4
      continue;
    }
    // Register as an in-flight publisher, then re-check the seal (Dekker
    // pairing with growTable's seal-then-drain; both sides seq_cst).
    Sh.Writers.fetch_add(1, std::memory_order_seq_cst);
    if (T->Sealed.load(std::memory_order_seq_cst) ||
        Sh.Current.load(std::memory_order_acquire) != T) {
      Sh.Writers.fetch_sub(1, std::memory_order_seq_cst);
      { std::lock_guard<std::mutex> Wait(Sh.GrowMu); } // migration in flight
      continue;
    }
    // Once a candidate exists, Name/Ops have been moved into it; key
    // comparisons from then on read the candidate's own fields. Decided at
    // each comparison, not once per pass: the candidate may be built midway
    // through this very pass, leaving the locals empty.
    auto SameKey = [&](const Term *E) {
      return E->structuralHash() == H &&
             (Candidate ? matches(E, K, S, IntVal, Candidate->Name,
                                  Candidate->Ops)
                        : matches(E, K, S, IntVal, Name, Ops));
    };
    const size_t Mask = T->Capacity - 1;
    size_t Idx = H & Mask;
    size_t Step = 0;
    for (;; Idx = (Idx + 1) & Mask, ++Step) {
      if (Step > Mask) {
        // Wrapped the whole generation without a usable bucket — writers
        // racing past the load-factor check filled it. Deregister and grow.
        Sh.Writers.fetch_sub(1, std::memory_order_seq_cst);
        growTable(Sh, T);
        break;
      }
      const Term *E = T->Slots[Idx].load(std::memory_order_acquire);
      if (E) {
        if (SameKey(E)) {
          // Someone published this structure first. A constructed candidate
          // stays in the arena (destroyed with the context); its claimed id
          // becomes a gap, which only happens under concurrency.
          Sh.Writers.fetch_sub(1, std::memory_order_seq_cst);
          return E;
        }
        continue;
      }
      if (!Candidate) {
        Candidate = allocateNode(Sh);
        new (Candidate)
            Term(K, S, NextId.fetch_add(1, std::memory_order_relaxed), H,
                 IntVal, std::move(Name), std::move(Ops));
      }
      const Term *Expected = nullptr;
      if (T->Slots[Idx].compare_exchange_strong(Expected, Candidate,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        T->Used.fetch_add(1, std::memory_order_relaxed);
        Sh.Count.fetch_add(1, std::memory_order_release);
        Sh.Writers.fetch_sub(1, std::memory_order_seq_cst);
        return Candidate;
      }
      // Lost the bucket; Expected now holds the winner. Fall through to
      // re-examine this slot on the next loop turn (the winner may be our
      // own key), by not advancing past it unexamined.
      if (SameKey(Expected)) {
        Sh.Writers.fetch_sub(1, std::memory_order_seq_cst);
        return Expected;
      }
    }
  }
}

const Term *TermContext::internRaw(TermKind K, Sort S, int64_t IntVal,
                                   std::string Name,
                                   std::vector<const Term *> Ops) {
  switch (K) {
  case TermKind::Var:
    return var(Name, S);
  case TermKind::IntConst:
    return intConst(IntVal);
  case TermKind::BoolConst:
    return boolConst(IntVal != 0);
  default:
    return intern(K, S, IntVal, std::move(Name), std::move(Ops));
  }
}

//===----------------------------------------------------------------------===//
// Leaves
//===----------------------------------------------------------------------===//

const Term *TermContext::intConst(int64_t V) {
  if (V == 0)
    return Zero;
  if (V == 1)
    return One;
  return intern(TermKind::IntConst, Sort::Int, V, "", {});
}

const Term *TermContext::boolConst(bool B) { return B ? True : False; }

const Term *TermContext::var(const std::string &Name, Sort S) {
  std::lock_guard<std::mutex> Lock(VarsMu);
  auto It = VarsByName.find(Name);
  if (It != VarsByName.end()) {
    assert(It->second->sort() == S && "variable re-declared at another sort");
    return It->second;
  }
  const Term *V = intern(TermKind::Var, S, 0, Name, {});
  VarsByName.emplace(Name, V);
  return V;
}

const Term *TermContext::lookupVar(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(VarsMu);
  auto It = VarsByName.find(Name);
  return It == VarsByName.end() ? nullptr : It->second;
}

const Term *TermContext::freshVar(const std::string &Hint, Sort S) {
  std::lock_guard<std::mutex> Lock(VarsMu);
  for (;;) {
    std::string Name = Hint + "!" + std::to_string(FreshCounter++);
    if (VarsByName.count(Name))
      continue;
    const Term *V = intern(TermKind::Var, S, 0, Name, {});
    VarsByName.emplace(Name, V);
    return V;
  }
}

//===----------------------------------------------------------------------===//
// Integer arithmetic
//===----------------------------------------------------------------------===//

const Term *TermContext::add(std::vector<const Term *> Ts) {
  std::vector<const Term *> Flat;
  int64_t ConstSum = 0;
  // Flatten nested sums and fold constants into one summand.
  std::vector<const Term *> Work(Ts.rbegin(), Ts.rend());
  while (!Work.empty()) {
    const Term *T = Work.back();
    Work.pop_back();
    assert(T->sort() == Sort::Int && "add operand must be integer");
    if (T->kind() == TermKind::Add) {
      for (auto It = T->operands().rbegin(); It != T->operands().rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    if (T->isIntConst()) {
      ConstSum += T->intValue();
      continue;
    }
    Flat.push_back(T);
  }
  // Deterministic operand order for hash-consing of commutative sums.
  std::stable_sort(Flat.begin(), Flat.end(),
                   [](const Term *A, const Term *B) { return A->id() < B->id(); });
  if (ConstSum != 0)
    Flat.push_back(intConst(ConstSum));
  if (Flat.empty())
    return Zero;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(TermKind::Add, Sort::Int, 0, "", std::move(Flat));
}

const Term *TermContext::sub(const Term *A, const Term *B) {
  return add({A, mulConst(-1, B)});
}

const Term *TermContext::neg(const Term *A) { return mulConst(-1, A); }

const Term *TermContext::mulConst(int64_t Coeff, const Term *T) {
  assert(T->sort() == Sort::Int && "mulConst operand must be integer");
  if (Coeff == 0)
    return Zero;
  if (Coeff == 1)
    return T;
  if (T->isIntConst())
    return intConst(Coeff * T->intValue());
  // Distribute over sums so sums stay flat: c*(a+b) = c*a + c*b.
  if (T->kind() == TermKind::Add) {
    std::vector<const Term *> Scaled;
    Scaled.reserve(T->numOperands());
    for (const Term *Op : T->operands())
      Scaled.push_back(mulConst(Coeff, Op));
    return add(std::move(Scaled));
  }
  // Collapse nested coefficients: c1*(c2*t) = (c1*c2)*t.
  if (T->kind() == TermKind::Mul)
    return mulConst(Coeff * T->operand(0)->intValue(), T->operand(1));
  return intern(TermKind::Mul, Sort::Int, 0, "", {intConst(Coeff), T});
}

const Term *TermContext::mul(const Term *A, const Term *B) {
  if (A->isIntConst())
    return mulConst(A->intValue(), B);
  if (B->isIntConst())
    return mulConst(B->intValue(), A);
  assert(false && "nonlinear multiplication is not supported");
  return nullptr;
}

const Term *TermContext::ite(const Term *Cond, const Term *Then,
                             const Term *Else) {
  assert(Cond->sort() == Sort::Bool && "ite condition must be boolean");
  assert(Then->sort() == Else->sort() && "ite branches must agree on sort");
  if (Cond->isTrue())
    return Then;
  if (Cond->isFalse())
    return Else;
  if (Then == Else)
    return Then;
  // Boolean ite lowers to propositional structure.
  if (Then->sort() == Sort::Bool)
    return or_(and_(Cond, Then), and_(not_(Cond), Else));
  return intern(TermKind::Ite, Then->sort(), 0, "", {Cond, Then, Else});
}

//===----------------------------------------------------------------------===//
// Arrays
//===----------------------------------------------------------------------===//

const Term *TermContext::select(const Term *Array, const Term *Index) {
  assert((Array->sort() == Sort::IntArray || Array->sort() == Sort::BoolArray) &&
         "select requires an array");
  assert(Index->sort() == Sort::Int && "array index must be integer");
  // Read-over-write: select(store(A,i,v), j) = ite(i=j, v, select(A,j)).
  if (Array->kind() == TermKind::Store) {
    const Term *A = Array->operand(0);
    const Term *I = Array->operand(1);
    const Term *V = Array->operand(2);
    if (I == Index)
      return V;
    if (I->isIntConst() && Index->isIntConst())
      return select(A, Index); // distinct constant indices
    if (V->sort() == Sort::Bool) {
      const Term *Hit = eq(I, Index);
      return or_(and_(Hit, V), and_(not_(Hit), select(A, Index)));
    }
    return ite(eq(I, Index), V, select(A, Index));
  }
  Sort Elem = elementSort(Array->sort());
  return intern(TermKind::Select, Elem, 0, "", {Array, Index});
}

const Term *TermContext::store(const Term *Array, const Term *Index,
                               const Term *Value) {
  assert((Array->sort() == Sort::IntArray || Array->sort() == Sort::BoolArray) &&
         "store requires an array");
  assert(Index->sort() == Sort::Int && "array index must be integer");
  assert(Value->sort() == elementSort(Array->sort()) &&
         "stored value must match element sort");
  // store(store(A,i,_), i, v) = store(A, i, v)
  if (Array->kind() == TermKind::Store && Array->operand(1) == Index)
    return store(Array->operand(0), Index, Value);
  return intern(TermKind::Store, Array->sort(), 0, "", {Array, Index, Value});
}

//===----------------------------------------------------------------------===//
// Atoms
//===----------------------------------------------------------------------===//

const Term *TermContext::eq(const Term *A, const Term *B) {
  assert(A->sort() == B->sort() && "equality operands must agree on sort");
  assert(A->sort() != Sort::IntArray && A->sort() != Sort::BoolArray &&
         "array equality must go through extensionality");
  if (A == B)
    return True;
  if (A->isIntConst() && B->isIntConst())
    return boolConst(A->intValue() == B->intValue());
  if (A->isBoolConst() && B->isBoolConst())
    return boolConst(A->boolValue() == B->boolValue());
  // Boolean equality with a constant side simplifies to a literal.
  if (A->sort() == Sort::Bool) {
    if (A->isTrue())
      return B;
    if (A->isFalse())
      return not_(B);
    if (B->isTrue())
      return A;
    if (B->isFalse())
      return not_(A);
  }
  if (A->id() > B->id())
    std::swap(A, B);
  return intern(TermKind::Eq, Sort::Bool, 0, "", {A, B});
}

const Term *TermContext::ne(const Term *A, const Term *B) {
  return not_(eq(A, B));
}

const Term *TermContext::le(const Term *A, const Term *B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int);
  if (A == B)
    return True;
  if (A->isIntConst() && B->isIntConst())
    return boolConst(A->intValue() <= B->intValue());
  return intern(TermKind::Le, Sort::Bool, 0, "", {A, B});
}

const Term *TermContext::lt(const Term *A, const Term *B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int);
  if (A == B)
    return False;
  if (A->isIntConst() && B->isIntConst())
    return boolConst(A->intValue() < B->intValue());
  return intern(TermKind::Lt, Sort::Bool, 0, "", {A, B});
}

const Term *TermContext::divides(int64_t Divisor, const Term *T) {
  assert(Divisor >= 1 && "divisor must be positive");
  assert(T->sort() == Sort::Int);
  if (Divisor == 1)
    return True;
  if (T->isIntConst())
    return boolConst(T->intValue() % Divisor == 0);
  return intern(TermKind::Divides, Sort::Bool, Divisor, "", {T});
}

//===----------------------------------------------------------------------===//
// Boolean structure
//===----------------------------------------------------------------------===//

const Term *TermContext::not_(const Term *A) {
  assert(A->sort() == Sort::Bool && "negation operand must be boolean");
  if (A->isTrue())
    return False;
  if (A->isFalse())
    return True;
  if (A->kind() == TermKind::Not)
    return A->operand(0);
  return intern(TermKind::Not, Sort::Bool, 0, "", {A});
}

const Term *TermContext::and_(std::vector<const Term *> Ts) {
  std::vector<const Term *> Flat;
  std::vector<const Term *> Work(Ts.rbegin(), Ts.rend());
  while (!Work.empty()) {
    const Term *T = Work.back();
    Work.pop_back();
    assert(T->sort() == Sort::Bool && "conjunct must be boolean");
    if (T->isFalse())
      return False;
    if (T->isTrue())
      continue;
    if (T->kind() == TermKind::And) {
      for (auto It = T->operands().rbegin(); It != T->operands().rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    Flat.push_back(T);
  }
  std::stable_sort(Flat.begin(), Flat.end(),
                   [](const Term *A, const Term *B) { return A->id() < B->id(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  // a and (not a) = false
  for (const Term *T : Flat)
    if (T->kind() == TermKind::Not &&
        std::binary_search(Flat.begin(), Flat.end(), T->operand(0),
                           [](const Term *A, const Term *B) {
                             return A->id() < B->id();
                           }))
      return False;
  if (Flat.empty())
    return True;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(TermKind::And, Sort::Bool, 0, "", std::move(Flat));
}

const Term *TermContext::or_(std::vector<const Term *> Ts) {
  std::vector<const Term *> Flat;
  std::vector<const Term *> Work(Ts.rbegin(), Ts.rend());
  while (!Work.empty()) {
    const Term *T = Work.back();
    Work.pop_back();
    assert(T->sort() == Sort::Bool && "disjunct must be boolean");
    if (T->isTrue())
      return True;
    if (T->isFalse())
      continue;
    if (T->kind() == TermKind::Or) {
      for (auto It = T->operands().rbegin(); It != T->operands().rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    Flat.push_back(T);
  }
  std::stable_sort(Flat.begin(), Flat.end(),
                   [](const Term *A, const Term *B) { return A->id() < B->id(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  // a or (not a) = true
  for (const Term *T : Flat)
    if (T->kind() == TermKind::Not &&
        std::binary_search(Flat.begin(), Flat.end(), T->operand(0),
                           [](const Term *A, const Term *B) {
                             return A->id() < B->id();
                           }))
      return True;
  if (Flat.empty())
    return False;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(TermKind::Or, Sort::Bool, 0, "", std::move(Flat));
}

const Term *TermContext::implies(const Term *A, const Term *B) {
  return or_(not_(A), B);
}

const Term *TermContext::iff(const Term *A, const Term *B) { return eq(A, B); }
