//===- Emitter.cpp - Kernel AST to OpenCL C or host C ----------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/Emitter.h"

#include "support/Support.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace lift;
using namespace lift::ocl;

namespace {

/// The OpenCL C spelling of a scalar kind, which user-function
/// signatures keep in both dialects.
const char *clScalarName(ir::ScalarKind K) {
  return K == ir::ScalarKind::Float ? "float" : "int";
}

/// Prints a float so it round-trips bit-exactly through the C
/// compiler: 9 significant decimal digits suffice for binary32, and a
/// trailing 'f' keeps the literal (and all arithmetic folded on it) in
/// float. Infinities and NaNs map onto the math.h macros.
std::string formatFloat(float V) {
  if (std::isnan(V))
    return "NAN";
  if (std::isinf(V))
    return V > 0 ? "INFINITY" : "(-INFINITY)";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", double(V));
  std::string S(Buf);
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S + "f";
}

/// Identifier map for everything the kernel names: buffers, registers,
/// loop variables, size arguments and the kernel itself. Names are
/// sanitized and deduplicated against each other, the C keywords, the
/// OpenCL qualifiers and builtins, the native ABI parameter names and
/// the runtime helpers, in a deterministic order, so equal kernels
/// always render identically.
class NameMap {
public:
  NameMap() {
    for (const char *R :
         {"auto",     "break",   "case",     "char",   "const",    "continue",
          "default",  "do",      "double",   "else",   "enum",     "extern",
          "float",    "for",     "goto",     "if",     "inline",   "int",
          "long",     "register", "restrict", "return", "short",   "signed",
          "sizeof",   "static",  "struct",   "switch", "typedef",  "union",
          "unsigned", "void",    "volatile", "while",  "lift_bufs",
          "lift_sizes", "lift_threads", "lift_fdiv", "lift_fmod", "lift_min",
          "lift_max", "lift_i",  "int32_t",  "sqrt",   "fmax",     "fmin",
          "lift_prof", "lift_prof_now", "lift_t0", "kernel", "global",
          "local",    "private", "constant", "barrier", "get_global_id",
          "get_global_size", "get_group_id", "get_num_groups",
          "get_local_id", "get_local_size", "CLK_LOCAL_MEM_FENCE"})
      Used.insert(R);
  }

  std::string claim(const std::string &Requested) {
    std::string Base = sanitize(Requested);
    std::string Name = Base;
    for (unsigned N = 2; !Used.insert(Name).second; ++N)
      Name = Base + "_" + std::to_string(N);
    return Name;
  }

  void setBuffer(int Id, std::string Name) { BufNames[Id] = std::move(Name); }
  void setRegister(int Id, std::string Name) {
    RegNames[Id] = std::move(Name);
  }
  void setVar(unsigned Id, std::string Name) { VarNames[Id] = std::move(Name); }

  bool hasVar(unsigned Id) const { return VarNames.count(Id) != 0; }

  const std::string &buffer(int Id) const { return BufNames.at(Id); }
  const std::string &reg(int Id) const { return RegNames.at(Id); }
  const std::string &var(unsigned Id) const {
    auto It = VarNames.find(Id);
    if (It == VarNames.end())
      fatalError("kernel printer: unbound arith variable in kernel index");
    return It->second;
  }

private:
  static std::string sanitize(const std::string &S) {
    std::string Out;
    for (char C : S)
      Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_') ? C
                                                                       : '_';
    if (Out.empty() || std::isdigit(static_cast<unsigned char>(Out[0])))
      Out = "v_" + Out;
    return Out;
  }

  std::unordered_set<std::string> Used;
  std::unordered_map<int, std::string> BufNames;
  std::unordered_map<int, std::string> RegNames;
  std::unordered_map<unsigned, std::string> VarNames;
};

/// Where registers and local/private buffers get declared: inside the
/// parallel root that (exclusively) uses them, in the body of its
/// innermost collapsed level (collapsedNest), or at function scope
/// with parallelism disabled when any use escapes that discipline.
/// The sequential plan (parallelism off) declares everything at
/// function scope, which is where OpenCL wants local memory.
struct ParPlan {
  bool Parallel = false; ///< pragmas on the roots, decls privatized
  std::set<const Stmt *> Roots; ///< outermost Glb/Wrg loops
  /// Registers / non-global buffers each root declares per work-group,
  /// in the body of its innermost collapsed level.
  std::unordered_map<const Stmt *, std::vector<int>> RootRegs;
  std::unordered_map<const Stmt *, std::vector<int>> RootBufs;
  /// Declared at function scope (sequential fallback, or unused).
  std::vector<int> TopRegs;
  std::vector<int> TopBufs;
};

bool isParallelLoop(const Stmt &S) {
  return S.K == Stmt::Kind::Loop &&
         (S.LK == LoopKind::Glb || S.LK == LoopKind::Wrg);
}

/// A node's parallel root: the outermost Glb/Wrg loop enclosing it.
const Stmt *parallelRoot(const WalkContext &C) {
  for (const Stmt *L : C.Loops)
    if (isParallelLoop(*L))
      return L;
  return nullptr;
}

class PlanBuilder {
public:
  PlanBuilder(const Kernel &K, bool WantParallel) : K(K) {
    walkKernel(
        K.Body,
        [&](const Stmt &S, const WalkContext &C) {
          const Stmt *Root = parallelRoot(C);
          if (S.K == Stmt::Kind::Store)
            noteBuffer(S.BufferId, Root);
          else if (S.K == Stmt::Kind::AssignVar)
            RegUses[S.VarId].note(Root);
          else if (!Root && isParallelLoop(S))
            Plan.Roots.insert(&S);
        },
        [&](const KExpr &E, const WalkContext &C) {
          if (E.K == KExpr::Kind::ReadVar)
            RegUses[E.VarId].note(parallelRoot(C));
          else if (E.K == KExpr::Kind::Load)
            noteBuffer(E.BufferId, parallelRoot(C));
        });
    build(WantParallel);
  }

  ParPlan take() { return std::move(Plan); }

private:
  /// Use sites of one register or buffer: the set of parallel roots it
  /// appears under, and whether it also appears outside every root.
  struct Uses {
    std::set<const Stmt *> Roots;
    bool OutsideRoot = false;

    void note(const Stmt *Root) {
      if (Root)
        Roots.insert(Root);
      else
        OutsideRoot = true;
    }
    bool privatizable() const { return !OutsideRoot && Roots.size() <= 1; }
  };

  void noteBuffer(int Id, const Stmt *Root) {
    if (K.buffer(Id).Space != MemSpace::Global)
      BufUses[Id].note(Root);
  }

  void build(bool WantParallel) {
    bool AllPrivatizable = true;
    for (const auto &KV : RegUses)
      AllPrivatizable &= KV.second.privatizable();
    for (const auto &KV : BufUses)
      AllPrivatizable &= KV.second.privatizable();
    Plan.Parallel = WantParallel && AllPrivatizable && !Plan.Roots.empty();

    // Declaration order follows the kernel's declaration lists so the
    // output is independent of use order.
    for (const BufferDecl &B : K.Buffers) {
      if (B.Space == MemSpace::Global)
        continue;
      auto It = BufUses.find(B.Id);
      const Stmt *Root = Plan.Parallel && It != BufUses.end() &&
                                 !It->second.Roots.empty()
                             ? *It->second.Roots.begin()
                             : nullptr;
      if (Root)
        Plan.RootBufs[Root].push_back(B.Id);
      else
        Plan.TopBufs.push_back(B.Id);
    }
    for (const RegisterDecl &R : K.Registers) {
      auto It = RegUses.find(R.Id);
      const Stmt *Root = Plan.Parallel && It != RegUses.end() &&
                                 !It->second.Roots.empty()
                             ? *It->second.Roots.begin()
                             : nullptr;
      if (Root)
        Plan.RootRegs[Root].push_back(R.Id);
      else
        Plan.TopRegs.push_back(R.Id);
    }
  }

  const Kernel &K;
  ParPlan Plan;
  std::unordered_map<int, Uses> RegUses;
  std::unordered_map<int, Uses> BufUses;
};

/// The SIMD legality rule: a work-item loop (never Seq, so never a
/// reduction or an unrolled loop) whose body is stores only, none of
/// them to a buffer the body also loads. Its iterations are then
/// independent and may run in vector lanes.
bool isSimdLoop(const Stmt &S) {
  if (S.LK == LoopKind::Seq)
    return false;
  bool OnlyStores = true;
  std::set<int> Stored, Loaded;
  walkKernel(
      S.Body,
      [&](const Stmt &C, const WalkContext &) {
        OnlyStores &= C.K == Stmt::Kind::Store;
        Stored.insert(C.BufferId);
      },
      [&](const KExpr &E, const WalkContext &) {
        if (E.K == KExpr::Kind::Load)
          Loaded.insert(E.BufferId);
      });
  if (!OnlyStores)
    return false;
  for (int Id : Stored)
    if (Loaded.count(Id))
      return false;
  return true;
}

/// The perfect nest a parallel root collapses into one OpenMP
/// iteration space, outermost first: the root, then each next level
/// while the current level's body is exactly one Glb/Wrg loop that is
/// neither a SIMD loop (it keeps its own pragma) nor unrolled, and
/// whose count mentions no variable of the nest above it (OpenMP's
/// rectangular collapse). The whole work-group grid then runs in
/// parallel, as on an OpenCL NDRange, even where the outer dimension
/// is shorter than the thread count.
std::vector<const Stmt *> collapsedNest(const Stmt &Root) {
  std::vector<const Stmt *> Nest{&Root};
  for (const Stmt *Cur = &Root; !Cur->Unroll && Cur->Body.size() == 1;) {
    const Stmt &Next = *Cur->Body[0];
    if (!isParallelLoop(Next) || Next.Unroll || isSimdLoop(Next))
      break;
    for (const Stmt *L : Nest)
      if (mentionsVar(Next.Count, L->LoopVar->getVarId()))
        return Nest;
    Nest.push_back(Cur = &Next);
  }
  return Nest;
}

bool holdsBarrier(const Stmt &S) {
  for (const StmtPtr &C : S.Body)
    if (C->K == Stmt::Kind::Barrier)
      return true;
  return false;
}

class Printer {
public:
  Printer(const Kernel &K, Dialect D, const ProfileTimers *Profile)
      : K(K), IsC(D == Dialect::C), Profile(Profile),
        // Profiling forces sequential emission: region timers nested in
        // a parallel loop would race and attribute one thread's clock
        // to the whole grid. OpenCL declares everything at kernel scope.
        Plan(PlanBuilder(K, IsC && !Profile).take()) {
    // Claim names in a fixed order: buffers, registers, size args,
    // loop variables (in syntactic order), so renames on collision are
    // deterministic.
    for (const BufferDecl &B : K.Buffers)
      Names.setBuffer(B.Id, Names.claim(B.Name));
    for (const RegisterDecl &R : K.Registers)
      Names.setRegister(R.Id, Names.claim(R.Name));
    for (const SizeArg &SA : K.SizeArgs)
      Names.setVar(SA.VarId, Names.claim(SA.Name));
    // The specializer's clones of one loop share its variable, so the
    // first loop over each variable names it.
    walkKernel(K.Body, [&](const Stmt &S, const WalkContext &) {
      if (S.K == Stmt::Kind::Loop && !Names.hasVar(S.LoopVar->getVarId()))
        Names.setVar(S.LoopVar->getVarId(),
                     Names.claim(S.LoopVar->getVarName()));
    });
    EntryName = Names.claim(K.Name);
    if (Profile)
      for (std::size_t I = 0; I != Profile->size(); ++I)
        RegionIdx[(*Profile)[I].first] = {I, (*Profile)[I].second};
  }

  std::string run();

private:
  void line(const std::string &S) {
    for (int I = 0; I != Indent; ++I)
      Out += "  ";
    Out += S;
    Out += '\n';
  }

  // Dialect spellings.
  std::string scalarType(ir::ScalarKind SK) const {
    return IsC && SK == ir::ScalarKind::Int ? "int32_t" : clScalarName(SK);
  }
  std::string indexType() const { return IsC ? "long long" : "int"; }
  const char *barrierLine() const {
    // In C a Lcl loop completes for all local ids before the next
    // statement runs — as on the simulator — so the barrier is
    // structural and compiles to nothing.
    return IsC ? "/* work-group barrier: implicit (loop completed) */"
               : "barrier(CLK_LOCAL_MEM_FENCE);";
  }
  void printPrelude();
  void printEntry();
  void printLoopHeader(const Stmt &S, std::size_t Collapse);
  void printDecl(int BufId);

  // The shared walk.
  std::string index(const AExpr &E) const;
  std::string indexHelpers() const;
  std::string userFun(const ir::UserFun &UF) const;
  std::string expr(const KExpr &E) const;
  void printRegDecl(int RegId);
  void printStmt(const Stmt &S);
  void printStmts(const std::vector<StmtPtr> &Body);

  const Kernel &K;
  bool IsC;
  const ProfileTimers *Profile;
  ParPlan Plan;
  NameMap Names;
  std::string EntryName;
  std::string Out;
  int Indent = 0;
  /// Profile mode: region root -> (lift_prof slot, region name).
  std::unordered_map<const Stmt *, std::pair<std::size_t, std::string>>
      RegionIdx;
};

void Printer::printPrelude() {
  if (!IsC) {
    Out += "// Generated by liftcpp (CGO'18 Lift stencil reproduction)\n\n";
    return;
  }
  Out += "// " + EntryName + ": generated by the liftcpp native backend.\n";
  Out += "// Semantics contract: bit-identical to the NDRange simulator\n";
  Out += "// (all loops run 0..count-1; floor division; exact float\n";
  Out += "// literals; float-precision math builtins).\n\n";
  Out += "#include <math.h>\n";
  Out += "#include <stdint.h>\n";
  if (Profile)
    Out += "#include <time.h>\n";
  Out += "\n";
  // OpenCL's sqrt/fmax/fmin on float stay in float; C promotes to
  // double. Map them to the float-precision versions the interpreter's
  // C++ callbacks (std::sqrt(float) etc.) compile to.
  Out += "#define sqrt(x) sqrtf(x)\n";
  Out += "#define fmax(a, b) fmaxf((a), (b))\n";
  Out += "#define fmin(a, b) fminf((a), (b))\n\n";
}

void Printer::printEntry() {
  if (!IsC) {
    std::string Params;
    for (const BufferDecl &B : K.Buffers)
      if (B.Space == MemSpace::Global)
        Params += (Params.empty() ? "global " : ", global ") +
                  scalarType(B.ElemKind) + "* restrict " + Names.buffer(B.Id);
    for (const SizeArg &SA : K.SizeArgs)
      Params += (Params.empty() ? "int " : ", int ") + Names.var(SA.VarId);
    Out += "kernel void " + EntryName + "(" + Params + ") {\n";
    Indent = 1;
    return;
  }
  Out += "void " + EntryName +
         "(void **lift_bufs, const long long *lift_sizes, "
         "int lift_threads, double *lift_prof) {\n";
  Indent = 1;
  std::size_t Slot = 0;
  for (const BufferDecl &B : K.Buffers) {
    if (B.Space != MemSpace::Global)
      continue;
    line(scalarType(B.ElemKind) + " *restrict " + Names.buffer(B.Id) + " = (" +
         scalarType(B.ElemKind) + " *)lift_bufs[" + std::to_string(Slot++) +
         "];");
  }
  // A size bound at lowering is a constant the C compiler folds into
  // strides, clamps and trip counts; its lift_sizes slot stays in the
  // ABI but is not read.
  for (std::size_t I = 0; I != K.SizeArgs.size(); ++I) {
    const SizeArg &SA = K.SizeArgs[I];
    line("const long long " + Names.var(SA.VarId) + " = " +
         (SA.bound() ? std::to_string(*SA.bound())
                     : "lift_sizes[" + std::to_string(I) + "]") +
         ";");
  }
  line("(void)lift_threads;");
  if (!Profile)
    line("(void)lift_prof;");
}

/// \p Collapse is the depth of the nest a parallel root collapses, and
/// 0 for every other loop.
void Printer::printLoopHeader(const Stmt &S, std::size_t Collapse) {
  const std::string V = Names.var(S.LoopVar->getVarId());
  std::string Init = "0", Step = "++" + V;
  if (IsC) {
    bool Simd = isSimdLoop(S);
    if (Collapse)
      line(std::string("#pragma omp parallel for") + (Simd ? " simd" : "") +
           (Collapse > 1 ? " collapse(" + std::to_string(Collapse) + ")"
                         : "") +
           " schedule(static) num_threads(lift_threads)");
    else if (Simd)
      line("#pragma omp simd");
    if (S.Unroll && S.Count->getKind() == ArithExpr::Kind::Cst &&
        S.Count->getCst() >= 1 && S.Count->getCst() <= 64)
      line("#pragma GCC unroll " + std::to_string(S.Count->getCst()));
  } else {
    if (S.Unroll)
      line("#pragma unroll");
    std::string Dim = "(" + std::to_string(S.Dim) + ")";
    std::string Stride = "1";
    switch (S.LK) {
    case LoopKind::Seq:
      break;
    case LoopKind::Glb:
      Init = "get_global_id" + Dim;
      Stride = "get_global_size" + Dim;
      break;
    case LoopKind::Wrg:
      Init = "get_group_id" + Dim;
      Stride = "get_num_groups" + Dim;
      break;
    case LoopKind::Lcl:
      Init = "get_local_id" + Dim;
      Stride = "get_local_size" + Dim;
      break;
    }
    Step = V + " += " + Stride;
  }
  line("for (" + indexType() + " " + V + " = " + Init + "; " + V + " < " +
       index(S.Count) + "; " + Step + ") {");
}

void Printer::printDecl(int BufId) {
  const BufferDecl &B = K.buffer(BufId);
  const std::string N = index(B.NumElems);
  std::string Decl =
      scalarType(B.ElemKind) + " " + Names.buffer(BufId) + "[" + N + "]";
  if (!IsC) {
    line((B.Space == MemSpace::Local ? "local " : "") + Decl + ";");
    return;
  }
  // Local/private tiles become (possibly variable-length) stack
  // arrays, zero-initialized like the simulator's fresh storage so an
  // unwritten element reads identically. VLAs cannot take an
  // initializer, so symbolic extents get an explicit fill loop.
  if (B.NumElems->getKind() == ArithExpr::Kind::Cst) {
    line(Decl + " = {0};");
    return;
  }
  line(Decl + ";");
  line("for (long long lift_i = 0; lift_i < " + N + "; ++lift_i)");
  line("  " + Names.buffer(BufId) + "[lift_i] = 0;");
}

/// Floor division, floor modulo, min and max print as calls to the
/// helpers indexHelpers() defines.
std::string Printer::index(const AExpr &E) const {
  switch (E->getKind()) {
  case ArithExpr::Kind::Cst:
    return std::to_string(E->getCst());
  case ArithExpr::Kind::Var:
    return Names.var(E->getVarId());
  case ArithExpr::Kind::Add:
  case ArithExpr::Kind::Mul: {
    const char *Op = E->getKind() == ArithExpr::Kind::Add ? " + " : " * ";
    std::string S = "(";
    const std::vector<AExpr> &Ops = E->getOperands();
    for (std::size_t I = 0; I != Ops.size(); ++I) {
      if (I)
        S += Op;
      S += index(Ops[I]);
    }
    return S + ")";
  }
  case ArithExpr::Kind::Div:
  case ArithExpr::Kind::Mod:
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max: {
    const char *Fn = E->getKind() == ArithExpr::Kind::Div   ? "lift_fdiv"
                     : E->getKind() == ArithExpr::Kind::Mod ? "lift_fmod"
                     : E->getKind() == ArithExpr::Kind::Min ? "lift_min"
                                                            : "lift_max";
    return std::string(Fn) + "(" + index(E->getOperands()[0]) + ", " +
           index(E->getOperands()[1]) + ")";
  }
  }
  unreachable("covered switch");
}

/// The index helpers over the dialect's index type. Division and
/// modulo round toward negative infinity, like floorDivInt/floorModInt
/// (support/Support.h), which the simulator evaluates indices with.
std::string Printer::indexHelpers() const {
  const std::string Qual = IsC ? "static inline " : "";
  const std::string T = indexType();
  std::string Out;
  auto Helper = [&](const char *Name, const std::string &Body) {
    Out += Qual + T + " " + Name + "(" + T + " a, " + T + " b) {\n" + Body +
           "}\n";
  };
  Helper("lift_fdiv", "  " + T + " q = a / b;\n"
                      "  if ((a % b != 0) && ((a < 0) != (b < 0)))\n"
                      "    --q;\n"
                      "  return q;\n");
  Helper("lift_fmod", "  return a - lift_fdiv(a, b) * b;\n");
  Helper("lift_min", "  return a < b ? a : b;\n");
  Helper("lift_max", "  return a > b ? a : b;\n");
  return Out;
}

/// A user function keeps its OpenCL C body and signature in both
/// dialects; C makes it `static inline` so it inlines into vector loops.
std::string Printer::userFun(const ir::UserFun &UF) const {
  std::string S = IsC ? "static inline " : "";
  S += std::string(clScalarName(UF.getRetKind())) + " " + UF.getName() + "(";
  for (std::size_t I = 0; I != UF.getParamNames().size(); ++I) {
    if (I)
      S += ", ";
    S += std::string(clScalarName(UF.getParamKinds()[I])) + " " +
         UF.getParamNames()[I];
  }
  return S + ") { " + UF.getOpenCLBody() + " }";
}

std::string Printer::expr(const KExpr &E) const {
  switch (E.K) {
  case KExpr::Kind::ConstScalar:
    return E.Const.K == ir::ScalarKind::Float ? formatFloat(E.Const.F)
                                              : std::to_string(E.Const.I);
  case KExpr::Kind::IndexVal:
    // The simulator narrows index values to int32 when they enter the
    // scalar world (ParallelExecutor::evalExpr in ParallelSim.cpp);
    // mirror that exactly.
    return "(" + scalarType(ir::ScalarKind::Int) + ")" + index(E.Index);
  case KExpr::Kind::ReadVar:
    return Names.reg(E.VarId);
  case KExpr::Kind::Load:
    return Names.buffer(E.BufferId) + "[" + index(E.Index) + "]";
  case KExpr::Kind::CallUF: {
    std::string S = E.UF->getName() + "(";
    for (std::size_t I = 0; I != E.Args.size(); ++I) {
      if (I)
        S += ", ";
      S += expr(*E.Args[I]);
    }
    return S + ")";
  }
  case KExpr::Kind::Select: {
    std::string Cond;
    for (std::size_t I = 0; I != E.Checks.size(); ++I) {
      const BoundsCheck &C = E.Checks[I];
      if (I)
        Cond += " && ";
      std::string Idx = index(C.Idx);
      Cond += "(" + index(C.Lo) + " <= " + Idx + " && " + Idx + " < " +
              index(C.Hi) + ")";
    }
    return "(" + Cond + " ? " + expr(*E.Then) + " : " + expr(*E.Else) + ")";
  }
  }
  unreachable("covered switch");
}

void Printer::printRegDecl(int RegId) {
  const RegisterDecl &R = K.Registers[std::size_t(RegId)];
  line(scalarType(R.Kind) + " " + Names.reg(RegId) + " = 0;");
}

void Printer::printStmt(const Stmt &S) {
  switch (S.K) {
  case Stmt::Kind::Store:
    line(Names.buffer(S.BufferId) + "[" + index(S.Index) +
         "] = " + expr(*S.Value) + ";");
    return;
  case Stmt::Kind::AssignVar:
    line(Names.reg(S.VarId) + " = " + expr(*S.Value) + ";");
    return;
  case Stmt::Kind::Barrier:
    line(barrierLine());
    return;
  case Stmt::Kind::Loop:
    break;
  }

  auto Region = RegionIdx.find(&S);
  if (Region != RegionIdx.end()) {
    line("{ /* region " + std::to_string(Region->second.first) + ": " +
         Region->second.second + " */");
    ++Indent;
    line("const double lift_t0 = lift_prof_now();");
  }

  // A parallel root prints its collapsed nest as one block of headers
  // and declares its private state per work-group, in the innermost
  // level's body.
  bool IsRoot = Plan.Parallel && Plan.Roots.count(&S);
  std::vector<const Stmt *> Nest =
      IsRoot ? collapsedNest(S) : std::vector<const Stmt *>{&S};
  for (const Stmt *L : Nest) {
    printLoopHeader(*L, L == &S && IsRoot ? Nest.size() : 0);
    ++Indent;
  }
  if (IsRoot) {
    auto BI = Plan.RootBufs.find(&S);
    if (BI != Plan.RootBufs.end())
      for (int Id : BI->second)
        printDecl(Id);
    auto RI = Plan.RootRegs.find(&S);
    if (RI != Plan.RootRegs.end())
      for (int Id : RI->second)
        printRegDecl(Id);
  }
  printStmts(Nest.back()->Body);
  for (auto L = Nest.rbegin(); L != Nest.rend(); ++L) {
    // An OpenCL work-group that runs more than one tile must not start
    // the next tile's local write while this tile is still being read.
    if (!IsC && (*L)->LK == LoopKind::Wrg && holdsBarrier(**L))
      line(barrierLine());
    --Indent;
    line("}");
  }

  if (Region != RegionIdx.end()) {
    line("lift_prof[" + std::to_string(Region->second.first) +
         "] += lift_prof_now() - lift_t0;");
    --Indent;
    line("}");
  }
}

void Printer::printStmts(const std::vector<StmtPtr> &Body) {
  for (const StmtPtr &S : Body)
    printStmt(*S);
}

std::string Printer::run() {
  printPrelude();
  Out += indexHelpers();
  if (Profile) {
    // The region timer: the same monotonic clock the runner times whole
    // kernels with, read as seconds so accumulation stays a single add.
    Out += "static inline double lift_prof_now(void) {\n";
    Out += "  struct timespec lift_ts;\n";
    Out += "  clock_gettime(CLOCK_MONOTONIC, &lift_ts);\n";
    Out += "  return (double)lift_ts.tv_sec + 1e-9 * "
           "(double)lift_ts.tv_nsec;\n";
    Out += "}\n";
  }
  Out += "\n";
  for (const ir::UserFunPtr &UF : K.UserFuns)
    Out += userFun(*UF) + "\n";
  if (!K.UserFuns.empty())
    Out += "\n";

  printEntry();
  for (int Id : Plan.TopBufs)
    printDecl(Id);
  for (int Id : Plan.TopRegs)
    printRegDecl(Id);
  printStmts(K.Body);
  Indent = 0;
  Out += "}\n";
  return Out;
}

} // namespace

std::string lift::ocl::printKernel(const Kernel &K, Dialect D,
                                   const ProfileTimers *Profile) {
  return Printer(K, D, Profile).run();
}

std::string lift::ocl::emitOpenCL(const Kernel &K) {
  return printKernel(K, Dialect::OpenCL);
}
