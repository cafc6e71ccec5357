//===- ParallelSim.h - Compiled, multi-threaded NDRange simulator -*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NDRange simulator: executes kernel ASTs functionally while
/// counting events (Sim.h). It (a) compiles the kernel AST to an
/// execution plan before running it and (b) shards the outermost
/// parallel loop nest (Wrg/Glb) across a thread pool.
///
/// Why a compiled plan: walking the AST directly spends most of its
/// time in std::unordered_map environment lookups and per-call argument
/// vector allocation. The plan replaces the environment with a dense
/// slot array (size variables constant-folded at compile time, loop
/// variables assigned fixed slots), compiles every symbolic index
/// expression into a small program — a constant, an affine sum of slots
/// and sub-programs, or a binary floor div/mod/min/max/product node —
/// and reuses per-depth argument scratch buffers for user-function
/// calls.
///
/// Why index programs are memoized: a clamped stencil index is a tree
/// of sub-programs, most of which (row and plane clamps, the clamps the
/// loads of one statement share) do not change in the inner loop. Each
/// program records, at plan-compile time, the innermost loop slot it
/// depends on (its DepSlot). Each shard (and the sequential main state)
/// stamps a slot with a fresh clock value whenever the slot is bound,
/// rebound or unbound, and keeps each program's last value with the
/// clock it was computed at; a program is re-evaluated only when its
/// DepSlot was stamped since. That is exact because every slot a
/// program depends on belongs to a loop enclosing the DepSlot's loop,
/// so an outer slot never changes without the DepSlot being stamped
/// after it (a flattened parallel region rebinds every level inside the
/// outermost one that changed); programs whose slots do not nest that
/// way are never memoized. Evaluation stays lazy (nothing is computed
/// that the program order would not compute), and the unbound-variable
/// abort still fires: leaving a loop stamps its slot.
///
/// Why sharding is exact: iterations of Wrg/Glb loops are independent
/// work-groups/work-items by construction of the Lift code generator
/// (they write disjoint global elements and only use registers/local
/// memory they first wrote themselves). Each shard executes a
/// contiguous chunk of the flattened iteration space with its own
/// counters, register file, local/private buffers and *global-load
/// trace*; after the region:
///  * counters merge by summation (order-independent),
///  * the per-chunk global-load line traces are replayed through the
///    single set-associative LRU cache model in ascending chunk order —
///    concatenated chunk traces equal the program-order access stream
///    exactly, so GlobalLoadLineMisses (and every other counter) is
///    bit-identical for any thread count,
///  * the last chunk's registers and local/private buffers are adopted
///    (program-order last-iteration-wins semantics).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_PARALLELSIM_H
#define LIFT_OCL_PARALLELSIM_H

#include "ocl/Sim.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace lift {

class ThreadPool;

namespace ocl {

/// Executes kernels functionally while counting events, from a
/// compiled plan and with the outermost parallel loop nest sharded
/// over \p Jobs pool workers (0 = all hardware workers, 1 = the
/// calling thread only).
class ParallelExecutor {
public:
  ParallelExecutor(const Kernel &K, const SizeEnv &Sizes,
                   const CacheConfig &Cache = CacheConfig(),
                   unsigned Jobs = 0);

  /// Binds the contents of an input buffer (floats are converted to the
  /// buffer's element kind).
  void bindInput(int BufferId, const std::vector<float> &Data);

  /// Runs the kernel body once.
  void run();

  /// Returns a buffer's contents as floats (ints converted).
  std::vector<float> bufferContents(int BufferId) const;

  const ExecCounters &counters() const { return Main.Counters; }

private:
  //===--------------------------------------------------------------------===//
  // Compiled plan representation
  //===--------------------------------------------------------------------===//

  /// A compiled index expression, stored in the Progs arena. Size
  /// variables are folded to constants at compile time, so a program is
  /// one of:
  ///  * Const — fully folded;
  ///  * Affine — Base + sum(Coeff * slot) + sum(Coeff * sub-program),
  ///    the dominant form: flat row-major indices are affine in the
  ///    loop variables with clamp() sub-terms for boundary handling;
  ///  * Binary — floor div/mod, min, max (or a product of two symbolic
  ///    factors) over two operands, each a sub-program or a constant
  ///    folded into the node.
  /// Sub-programs always have smaller ids than the programs using them.
  struct IndexProgram {
    enum class Form : std::uint8_t { Const, Affine, Binary };
    enum class BinOp : std::uint8_t { Div, Mod, Min, Max, Mul };
    Form F = Form::Const;
    bool IsConst = false; ///< F == Const (kept for terse call sites)
    std::int64_t ConstVal = 0;
    std::int64_t Base = 0;                               ///< Affine
    std::vector<std::pair<std::int64_t, int>> SlotTerms; ///< (coeff, slot)
    std::vector<std::pair<std::int64_t, int>> SubTerms;  ///< (coeff, prog)
    BinOp Op = BinOp::Div; ///< Binary
    /// Binary operand programs; -1 means the operand is the constant
    /// in AVal / BVal.
    int A = -1, B = -1;
    std::int64_t AVal = 0, BVal = 0;
    /// The innermost loop slot the value depends on (through its slot
    /// terms and sub-programs); -1 when the program is not memoized
    /// (constant, or its slots do not nest at unique depths).
    int DepSlot = -1;
  };

  /// A load's or store's buffer, resolved at plan time: its id, the
  /// space that picks its storage and counters, and its element kind.
  struct BufRef {
    int Id = -1;
    MemSpace Space = MemSpace::Global;
    ir::ScalarKind Kind = ir::ScalarKind::Float;
  };

  /// Compiled KExpr node (indices into the Exprs arena).
  struct PExpr {
    KExpr::Kind Kind = KExpr::Kind::ConstScalar;
    ir::Scalar Const;
    int Prog = -1; ///< IndexVal / Load index program
    int VarId = -1;
    BufRef Buf; ///< Load
    const ir::UserFun *UF = nullptr;
    std::uint64_t FlopCost = 0;
    std::vector<int> Args;
    struct PCheck {
      int Idx, Lo, Hi;
    };
    std::vector<PCheck> Checks;
    int Then = -1, Else = -1;
  };

  /// Compiled statement tree.
  struct PStmt {
    Stmt::Kind Kind = Stmt::Kind::Store;
    BufRef Buf;    ///< Store
    int Prog = -1; ///< Store index program
    int VarId = -1;
    int Value = -1; ///< PExpr id
    // Loop
    int Slot = -1;
    int CountProg = -1;
    bool Unroll = false;
    std::vector<PStmt> Body;
  };

  /// One flattened level of a parallel (Wrg/Glb) loop nest.
  struct RegionLevel {
    int Slot = -1;
    std::int64_t Extent = 0;
    bool Unroll = false;
  };

  /// A top-level statement: either a parallel region (flattened Wrg/Glb
  /// nest with a sequential inner body) or an ordinary statement.
  struct TopStmt {
    bool IsRegion = false;
    PStmt S;                         ///< when !IsRegion
    std::vector<RegionLevel> Levels; ///< when IsRegion
    std::vector<PStmt> Inner;        ///< region inner body
  };

  //===--------------------------------------------------------------------===//
  // Runtime state
  //===--------------------------------------------------------------------===//

  /// A buffer's elements (F or I by its element kind) and, in the
  /// shared Buffers entry, its virtual base address.
  struct BufferStorage {
    std::vector<float> F;
    std::vector<std::int32_t> I;
    std::int64_t VirtualBase = 0;
  };

  /// One memoized index-program value and the shard clock at which it
  /// was computed (0: never).
  struct MemoEntry {
    std::int64_t Val = 0;
    std::uint64_t At = 0;
  };

  /// Execution state of one shard (or of the sequential main thread,
  /// with CacheLive = true).
  struct ShardState {
    std::vector<std::int64_t> Slots;
    std::vector<ir::Scalar> Registers;
    /// Per-shard copies of Local/Private buffers; Global entries stay
    /// empty and alias the shared storage.
    std::vector<BufferStorage> PrivBufs;
    ExecCounters Counters;
    bool CacheLive = false;
    std::vector<std::int64_t> Trace; ///< global-load lines (when !CacheLive)
    /// The last global-load line this shard touched (-1: none). A
    /// repeat touch is a hit on its set's most recent way and changes
    /// no LRU state, so it is skipped.
    std::int64_t LastLine = -1;
    std::vector<std::vector<ir::Scalar>> ArgScratch; ///< per UF call depth
    /// Index-program memo, per program id, and the clock at which each
    /// slot was last bound or unbound (see evalProgram).
    std::vector<MemoEntry> Memo;
    std::vector<std::uint64_t> SlotStamp;
    std::uint64_t Clock = 1;
  };

  //===--------------------------------------------------------------------===//
  // Plan compilation
  //===--------------------------------------------------------------------===//

  int slotFor(unsigned VarId);
  int compileIndex(const AExpr &E);
  int compileBinary(IndexProgram::BinOp Op, const AExpr &A, const AExpr &B);
  void toAffine(const AExpr &E, std::int64_t Scale, std::int64_t &Base,
                std::unordered_map<int, std::int64_t> &Coeffs,
                std::vector<std::pair<std::int64_t, int>> &SubTerms);
  void setOperand(int Prog, int &Ref, std::int64_t &Val) const;
  int compileExpr(const KExpr &E);
  void noteSlotDepth(int Slot, int Depth);
  PStmt compileStmt(const Stmt &S, int Depth);
  void compileTopLevel(const std::vector<StmtPtr> &Stmts);
  void assignDepSlots();

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  std::int64_t evalProgram(int ProgId, ShardState &S);
  std::int64_t computeProgram(const IndexProgram &P, ShardState &S);
  static void bindSlot(ShardState &S, int Slot, std::int64_t V);
  ir::Scalar evalExpr(int ExprId, ShardState &S, unsigned Depth);
  void execStmts(const std::vector<PStmt> &Stmts, ShardState &S);
  void execStmt(const PStmt &St, ShardState &S);
  ir::Scalar loadFrom(const BufRef &Buf, std::int64_t Index, ShardState &S);
  void storeTo(const BufRef &Buf, std::int64_t Index, ir::Scalar V,
               ShardState &S);
  BufRef bufRef(int BufferId) const;
  BufferStorage &storageFor(const BufRef &Buf, ShardState &S);
  void touchLine(std::int64_t Line, ShardState &S);
  void runRegion(const TopStmt &Region);
  ShardState makeShard() const;

  const Kernel &K;
  CacheConfig Cache;
  unsigned Jobs;

  // Plan.
  std::vector<IndexProgram> Progs;
  std::unordered_map<const ArithExpr *, int> ProgIds;
  std::unordered_map<unsigned, std::int64_t> SizeConsts;
  std::unordered_map<unsigned, int> SlotIds;
  std::vector<std::string> SlotNames; ///< for unbound-variable errors
  /// Per slot: the loop nesting depth binding it (region levels count
  /// from 0), NoDepth when no loop binds it, MixedDepth when loops at
  /// two depths do.
  std::vector<int> SlotDepths;
  std::vector<PExpr> Exprs;
  std::vector<TopStmt> TopLevel;

  // Shared runtime state. Main is the sequential state (CacheLive);
  // shard counters and traces merge into it after each region, so
  // Main.Counters is the final merged result.
  std::vector<BufferStorage> Buffers; ///< Global storage (+ layout info)
  ShardState Main;

  // Set-associative cache state: Sets x Ways line tags (-1 = empty),
  // LRU order within a set (front = most recent).
  std::vector<std::int64_t> CacheTags;
  std::int64_t CacheSets = 0;
  /// log2(Cache.LineBytes): the constructor refuses a line size that
  /// is not a power of two, so a load's line number is a shift.
  int LineShift = 0;
};

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_PARALLELSIM_H
