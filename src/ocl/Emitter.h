//===- Emitter.h - OpenCL C source emission --------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty-prints a kernel AST as OpenCL C source. This is the artifact
/// a real OpenCL runtime would compile; here it serves inspection and
/// golden tests, while execution goes through the simulator (Sim.h).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_EMITTER_H
#define LIFT_OCL_EMITTER_H

#include "ocl/KernelAst.h"

#include <functional>
#include <string>

namespace lift {
namespace ocl {

/// Renders \p K as a complete OpenCL C translation unit: the index
/// helpers, user-function definitions, then the kernel.
std::string emitOpenCL(const Kernel &K);

/// Renders an index expression as C source, shared by the OpenCL and
/// the native C emitter. Floor division, floor modulo, min and max
/// print as calls to lift_fdiv, lift_fmod, lift_min and lift_max (see
/// indexHelpers): C's truncating `/` and `%` would diverge from the
/// simulator on negative operands, which mirror and wrap padding
/// produce. \p VarName spells each variable node.
std::string
renderIndex(const AExpr &E,
            const std::function<std::string(const ArithExpr &Var)> &VarName);

/// The C definitions of the four renderIndex helpers over the integer
/// type \p IntType, each prefixed by \p Qualifiers (e.g. "static
/// inline "). Division and modulo round toward negative infinity, like
/// floorDivInt/floorModInt (support/Support.h).
std::string indexHelpers(const std::string &Qualifiers,
                         const std::string &IntType);

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_EMITTER_H
