//===- logic/Term.h - Hash-consed logical terms -----------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, hash-consed terms of quantifier-free linear integer arithmetic
/// with booleans and integer-indexed arrays. Every verification condition,
/// guard, monitor invariant, and abduced predicate in the system is a `Term`.
///
/// Terms are interned in a `TermContext`: structurally equal terms are the
/// same pointer, so pointer equality is semantic-literal equality and terms
/// can be used as map keys. Smart constructors perform light normalization
/// (constant folding, flattening, operand sorting for commutative nodes) so
/// that trivially equal formulas coincide.
///
/// Lowered forms (no dedicated node kinds):
///   a - b      => a + (-1)*b          -a    => (-1)*a
///   a != b     => not (a = b)         a > b => b < a,  a >= b => b <= a
///   a ==> b    => (not a) or b        iff   => bool equality
///   bool ite   => (c and a) or (not c and b)
///   select(store(A,i,v), j) => ite(i = j, v, select(A, j))
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_LOGIC_TERM_H
#define EXPRESSO_LOGIC_TERM_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace expresso {
namespace logic {

/// Sort (type) of a term.
enum class Sort : uint8_t { Int, Bool, IntArray, BoolArray };

/// Returns the element sort of an array sort.
inline Sort elementSort(Sort S) {
  assert(S == Sort::IntArray || S == Sort::BoolArray);
  return S == Sort::IntArray ? Sort::Int : Sort::Bool;
}

/// Returns the array sort holding elements of \p Elem.
inline Sort arraySortOf(Sort Elem) {
  assert(Elem == Sort::Int || Elem == Sort::Bool);
  return Elem == Sort::Int ? Sort::IntArray : Sort::BoolArray;
}

const char *sortName(Sort S);

/// Node kinds of the term DAG. See the file comment for lowered sugar.
enum class TermKind : uint8_t {
  IntConst, ///< 64-bit integer literal (IntVal)
  BoolConst,///< true/false (IntVal is 0/1)
  Var,      ///< named variable of any sort
  Add,      ///< n-ary integer sum
  Mul,      ///< coefficient * term; Ops[0] is always an IntConst
  Ite,      ///< integer-sorted if-then-else (cond, then, else)
  Select,   ///< array read (array, index)
  Store,    ///< array write (array, index, value)
  Eq,       ///< equality over Int or Bool operands
  Le,       ///< integer <=
  Lt,       ///< integer <
  Divides,  ///< IntVal | Ops[0], with IntVal >= 1
  Not,      ///< boolean negation
  And,      ///< n-ary conjunction
  Or,       ///< n-ary disjunction
};

const char *kindName(TermKind K);

class TermContext;

/// A node in the hash-consed term DAG, immutable but for its simplify memo.
/// Create via TermContext.
///
/// Nodes live in their context's bump-pointer arenas (one arena per intern
/// shard): allocation is an atomic offset bump, nodes are never moved or
/// freed individually, and the whole population is destroyed with the
/// context. Pointers to terms therefore stay valid for exactly the
/// context's lifetime — the same contract the old heap-allocated nodes had,
/// now without a per-node malloc on the interning fast path.
class Term {
public:
  TermKind kind() const { return Kind; }
  Sort sort() const { return TheSort; }

  /// Stable creation index; used for deterministic operand ordering. Ids
  /// are drawn from one context-global atomic counter at publish time, so a
  /// serial run assigns exactly the sequence the single-mutex interner did.
  /// Under concurrent interning a candidate that loses its publish race
  /// leaves a gap; order stays strict and unique either way.
  uint32_t id() const { return Id; }

  /// Structural hash, computed before intern-table insertion. Depends only
  /// on the term's shape (kind, sort, payload, operand hashes) — never on
  /// pointer values or creation order — so it is stable across runs and
  /// identical for structurally equal terms built in different
  /// TermContexts. It is also the intern table's probe hash and the shard
  /// selector. Used by solver::CachingSolver to memoize checkSat results.
  uint64_t structuralHash() const { return StructHash; }

  /// Value of an IntConst / BoolConst, or the divisor of a Divides node.
  int64_t intValue() const {
    assert(Kind == TermKind::IntConst || Kind == TermKind::BoolConst ||
           Kind == TermKind::Divides);
    return IntVal;
  }

  bool boolValue() const {
    assert(Kind == TermKind::BoolConst);
    return IntVal != 0;
  }

  const std::string &varName() const {
    assert(Kind == TermKind::Var);
    return Name;
  }

  const std::vector<const Term *> &operands() const { return Ops; }
  const Term *operand(unsigned I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }
  unsigned numOperands() const { return static_cast<unsigned>(Ops.size()); }

  bool isIntConst() const { return Kind == TermKind::IntConst; }
  bool isBoolConst() const { return Kind == TermKind::BoolConst; }
  bool isVar() const { return Kind == TermKind::Var; }
  bool isTrue() const { return isBoolConst() && IntVal != 0; }
  bool isFalse() const { return isBoolConst() && IntVal == 0; }
  bool isAtomKind() const {
    return Kind == TermKind::Eq || Kind == TermKind::Le ||
           Kind == TermKind::Lt || Kind == TermKind::Divides ||
           Kind == TermKind::Var || Kind == TermKind::BoolConst ||
           Kind == TermKind::Select;
  }

  /// Renders this term with the infix pretty-printer (see Printer.h).
  std::string str() const;

private:
  friend class TermContext;
  friend const Term *simplify(TermContext &C, const Term *T);
  Term(TermKind K, Sort S, uint32_t Id, uint64_t StructHash, int64_t IntVal,
       std::string Name, std::vector<const Term *> Ops)
      : Kind(K), TheSort(S), Id(Id), IntVal(IntVal), Name(std::move(Name)),
        Ops(std::move(Ops)), StructHash(StructHash) {}

  TermKind Kind;
  Sort TheSort;
  uint32_t Id;
  int64_t IntVal;
  std::string Name;
  std::vector<const Term *> Ops;
  uint64_t StructHash;
  /// simplify()'s memo for this term: null until the first simplification
  /// finishes, then its result. Not part of the term's shape (hash, equality
  /// and serialized bytes ignore it); see Simplify.cpp.
  mutable std::atomic<const Term *> Simplified{nullptr};
};

/// Hasher for term-keyed hash maps that uses the precomputed structural
/// hash. Key equality stays pointer equality (sound within one context,
/// where interning makes structural and pointer equality coincide).
struct TermStructuralHash {
  size_t operator()(const Term *T) const {
    return static_cast<size_t>(T->structuralHash());
  }
};

/// Deterministic strict order for term-keyed ordered containers: creation
/// index, never pointer value. Pointer order varies with heap history (two
/// analyses in one process see different layouts), which leaks into solver
/// tableau column order and greedy-minimization order and makes results
/// irreproducible; creation order is a pure function of the construction
/// sequence. Use this instead of the default `std::less<const Term *>` for
/// any map/set whose iteration order can reach an observable result.
struct TermIdLess {
  bool operator()(const Term *A, const Term *B) const {
    return A->id() < B->id();
  }
};

/// Owns and interns terms. All terms built from one context may be mixed
/// freely; terms from different contexts must never meet.
///
/// Thread safety: interning (and therefore every smart constructor) is safe
/// to call from any number of threads — the parallel placement engine
/// builds VCs on worker threads, and solver scratch contexts intern during
/// transferTerm. Unlike the original single-mutex design, the intern table
/// is sharded 16 ways by structural hash, and within a shard the *hit*
/// path (the overwhelming majority of hash-consing traffic) is entirely
/// lock-free: an atomic load of the shard's open-addressed table and a
/// linear probe over atomic bucket entries. Misses allocate the node from
/// the shard's bump-pointer arena and publish it with a bucket
/// compare-exchange; only table growth takes the shard's mutex, and only
/// variable-name registration (var/freshVar/lookupVar) shares a dedicated
/// name-map mutex. A term's shape (kind, sort, payload, operands, id, hash)
/// is immutable after publication and may be read without synchronization;
/// the one mutable field, the simplify memo, is an atomic pointer that is
/// only ever set to the term's (unique) simplified form.
///
/// Determinism: Term::id values come from one context-global counter,
/// claimed when a candidate node is built. A serial construction sequence
/// therefore yields exactly the id sequence the single-mutex interner
/// produced — byte-for-byte identical operand sorting, printing, and
/// canonical (TermCodec) bytes. Concurrent interning can interleave id
/// claims (and waste an id when two threads race to publish the same
/// structure), which is the same schedule-dependence the single mutex had;
/// everything observable downstream is already guarded against it (see
/// ARCHITECTURE.md, "Determinism argument"). Note that freshVar names
/// depend on the global counter, so fresh-variable *names* are
/// interleaving-dependent under concurrency (never colliding, and never
/// semantically significant).
class TermContext {
public:
  TermContext();
  ~TermContext();
  TermContext(const TermContext &) = delete;
  TermContext &operator=(const TermContext &) = delete;

  //===--------------------------------------------------------------------===
  // Leaves
  //===--------------------------------------------------------------------===

  const Term *intConst(int64_t V);
  const Term *boolConst(bool B);
  const Term *getTrue() { return True; }
  const Term *getFalse() { return False; }
  const Term *getZero() { return Zero; }
  const Term *getOne() { return One; }

  /// Interns a variable. Re-requesting the same name must use the same sort.
  const Term *var(const std::string &Name, Sort S);

  /// Returns the existing variable named \p Name, or null if none was made.
  const Term *lookupVar(const std::string &Name) const;

  /// Creates a fresh variable with a unique suffix derived from \p Hint.
  const Term *freshVar(const std::string &Hint, Sort S);

  //===--------------------------------------------------------------------===
  // Integer arithmetic
  //===--------------------------------------------------------------------===

  const Term *add(std::vector<const Term *> Ts);
  const Term *add(const Term *A, const Term *B) { return add({A, B}); }
  const Term *sub(const Term *A, const Term *B);
  const Term *neg(const Term *A);
  /// Linear multiplication by a constant coefficient.
  const Term *mulConst(int64_t Coeff, const Term *T);
  /// General product; at least one side must be an integer constant.
  const Term *mul(const Term *A, const Term *B);
  const Term *ite(const Term *Cond, const Term *Then, const Term *Else);

  //===--------------------------------------------------------------------===
  // Arrays
  //===--------------------------------------------------------------------===

  const Term *select(const Term *Array, const Term *Index);
  const Term *store(const Term *Array, const Term *Index, const Term *Value);

  //===--------------------------------------------------------------------===
  // Atoms
  //===--------------------------------------------------------------------===

  const Term *eq(const Term *A, const Term *B);
  const Term *ne(const Term *A, const Term *B);
  const Term *le(const Term *A, const Term *B);
  const Term *lt(const Term *A, const Term *B);
  const Term *ge(const Term *A, const Term *B) { return le(B, A); }
  const Term *gt(const Term *A, const Term *B) { return lt(B, A); }
  /// Divisibility constraint Divisor | T with Divisor >= 1.
  const Term *divides(int64_t Divisor, const Term *T);

  //===--------------------------------------------------------------------===
  // Boolean structure
  //===--------------------------------------------------------------------===

  const Term *not_(const Term *A);
  const Term *and_(std::vector<const Term *> Ts);
  const Term *and_(const Term *A, const Term *B) { return and_({A, B}); }
  const Term *or_(std::vector<const Term *> Ts);
  const Term *or_(const Term *A, const Term *B) { return or_({A, B}); }
  const Term *implies(const Term *A, const Term *B);
  const Term *iff(const Term *A, const Term *B);

  //===--------------------------------------------------------------------===
  // Deserialization
  //===--------------------------------------------------------------------===

  /// Re-interns a node with exactly the given shape, preserving operand
  /// order. The smart constructors normalize (flatten, fold, re-sort
  /// commutative operands by creation id), which is wrong for terms loaded
  /// from the persistent store: those were already normalized when first
  /// built, and their operand order is part of the canonical serialized
  /// shape — re-sorting by the *loading* context's ids would change the
  /// structural hash. Callers (persist::TermReader) must validate shapes
  /// before interning; this method only routes leaves through the proper
  /// paths (Var registration, Int/Bool singletons) and dedups against the
  /// existing intern table.
  const Term *internRaw(TermKind K, Sort S, int64_t IntVal, std::string Name,
                        std::vector<const Term *> Ops);

  /// Number of distinct terms interned so far (for tests/stats). Lock-free:
  /// sums the shards' publish counters.
  size_t numTerms() const {
    size_t N = 0;
    for (const Shard &Sh : Shards)
      N += Sh.Count.load(std::memory_order_acquire);
    return N;
  }

private:
  const Term *intern(TermKind K, Sort S, int64_t IntVal, std::string Name,
                     std::vector<const Term *> Ops);

  /// One open-addressed generation of a shard's intern table. Buckets hold
  /// published Term pointers; empty buckets are null. Entries are only ever
  /// added (terms are immortal within the context), so a null bucket
  /// terminates any probe. `Sealed` flips once, when the generation is
  /// being migrated to a larger successor; see internMiss for the
  /// writer-draining protocol.
  struct Table {
    explicit Table(size_t Cap)
        : Capacity(Cap), Slots(new std::atomic<const Term *>[Cap]) {
      for (size_t I = 0; I < Cap; ++I)
        Slots[I].store(nullptr, std::memory_order_relaxed);
    }
    const size_t Capacity; ///< power of two
    std::atomic<size_t> Used{0};
    std::atomic<bool> Sealed{false};
    std::unique_ptr<std::atomic<const Term *>[]> Slots;
  };

  /// One bump-pointer arena block. `Used` is bumped with fetch_add; an
  /// allocation only succeeds when its whole object fits, so on races the
  /// counter may overshoot Capacity harmlessly (the dtor clamps). Capacity
  /// is a multiple of sizeof(Term), so every in-range offset that was
  /// handed out holds a constructed node.
  struct ArenaChunk {
    explicit ArenaChunk(size_t Bytes);
    std::unique_ptr<unsigned char[]> Mem;
    size_t Capacity; ///< bytes, multiple of sizeof(Term)
    std::atomic<size_t> Used{0};
  };

  /// One intern shard: the current table generation, its predecessors
  /// (kept alive — lock-free readers may still hold them), the arena, and
  /// the migration gate. Padded to a cache line so shard metadata does not
  /// false-share under concurrent interning.
  struct alignas(64) Shard {
    std::atomic<Table *> Current{nullptr};
    std::atomic<ArenaChunk *> Chunk{nullptr};
    std::atomic<size_t> Count{0};      ///< published terms
    std::atomic<unsigned> Writers{0};  ///< in-flight bucket publishers
    std::mutex GrowMu;                 ///< table creation/migration
    std::mutex ArenaMu;                ///< chunk rollover
    std::vector<std::unique_ptr<Table>> Tables;      ///< under GrowMu
    std::vector<std::unique_ptr<ArenaChunk>> Chunks; ///< under ArenaMu
  };

  const Term *internMiss(Shard &Sh, uint64_t H, TermKind K, Sort S,
                         int64_t IntVal, std::string Name,
                         std::vector<const Term *> Ops);
  Term *allocateNode(Shard &Sh);
  void growTable(Shard &Sh, Table *Old);

  static constexpr unsigned NumShardsLog2 = 4;
  static constexpr unsigned NumShards = 1u << NumShardsLog2;
  Shard Shards[NumShards];

  /// Sequenced id publication: one global counter keeps serial id
  /// assignment byte-identical to the single-mutex design (see class
  /// comment). A relaxed fetch_add, not a serialization point.
  std::atomic<uint32_t> NextId{0};

  /// Guards VarsByName and FreshCounter. Variable registration is a tiny
  /// fraction of interning traffic; the name map is not sharded.
  mutable std::mutex VarsMu;
  std::unordered_map<std::string, const Term *> VarsByName;
  uint64_t FreshCounter = 0;

  const Term *True = nullptr;
  const Term *False = nullptr;
  const Term *Zero = nullptr;
  const Term *One = nullptr;
};

} // namespace logic
} // namespace expresso

#endif // EXPRESSO_LOGIC_TERM_H
