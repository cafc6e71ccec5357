//===- UserFun.h - Scalar user functions -----------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// UserFuns are the arbitrary scalar functions of the Lift IR (paper
/// §3.1): "userFuns define arbitrary functions which operate on scalar
/// values. These functions are written in C and are embedded in the
/// generated OpenCL code." Each UserFun here carries both its OpenCL C
/// body (for the code generator) and a C++ evaluation callback (for the
/// interpreter and the NDRange simulator), which are kept in agreement
/// by golden tests.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_IR_USERFUN_H
#define LIFT_IR_USERFUN_H

#include "ir/Types.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lift {
namespace ir {

/// A runtime scalar value: a float or a 32-bit int, tagged by kind.
struct Scalar {
  ScalarKind K = ScalarKind::Float;
  float F = 0.0f;
  std::int32_t I = 0;

  Scalar() = default;
  /*implicit*/ Scalar(float V) : K(ScalarKind::Float), F(V) {}
  /*implicit*/ Scalar(std::int32_t V) : K(ScalarKind::Int), I(V) {}

  /// Numeric value as float regardless of kind.
  float asFloat() const { return K == ScalarKind::Float ? F : float(I); }

  /// Numeric value as int; floats are truncated.
  std::int32_t asInt() const {
    return K == ScalarKind::Int ? I : std::int32_t(F);
  }

  bool operator==(const Scalar &O) const {
    return K == O.K && (K == ScalarKind::Float ? F == O.F : I == O.I);
  }
};

/// An arbitrary scalar function with an OpenCL C body and a matching
/// C++ implementation.
class UserFun {
public:
  using EvalFn = std::function<Scalar(const std::vector<Scalar> &)>;

  UserFun(std::string Name, std::vector<std::string> ParamNames,
          std::vector<ScalarKind> ParamKinds, ScalarKind RetKind,
          std::string OpenCLBody, EvalFn Eval, int FlopCost = 1);

  const std::string &getName() const { return Name; }
  const std::vector<std::string> &getParamNames() const { return ParamNames; }
  const std::vector<ScalarKind> &getParamKinds() const { return ParamKinds; }
  ScalarKind getRetKind() const { return RetKind; }

  /// The function body as OpenCL C source (without signature).
  const std::string &getOpenCLBody() const { return OpenCLBody; }

  /// Approximate arithmetic operation count of one application; used by
  /// the device timing model. Defaults to 1 (a single binary op).
  int getFlopCost() const { return FlopCost; }

  std::size_t arity() const { return ParamKinds.size(); }

  /// Applies the C++ implementation. Argument count/kinds are asserted.
  Scalar evaluate(const std::vector<Scalar> &Args) const;

private:
  std::string Name;
  std::vector<std::string> ParamNames;
  std::vector<ScalarKind> ParamKinds;
  ScalarKind RetKind;
  std::string OpenCLBody;
  EvalFn Eval;
  int FlopCost = 1;
};

using UserFunPtr = std::shared_ptr<const UserFun>;

/// Creates a user function. \p OpenCLBody is the body of the function
/// (e.g. "return a + b;"). \p FlopCost estimates the arithmetic
/// operations of one application for the device timing model.
UserFunPtr makeUserFun(std::string Name, std::vector<std::string> ParamNames,
                       std::vector<ScalarKind> ParamKinds, ScalarKind RetKind,
                       std::string OpenCLBody, UserFun::EvalFn Eval,
                       int FlopCost = 1);

/// \name Built-in user functions (float unless noted)
/// The small algebra every stencil in the paper is built from.
/// @{
UserFunPtr ufIdFloat();   ///< identity; used for copies into local memory
UserFunPtr ufIdInt();     ///< identity on int
UserFunPtr ufAddFloat();  ///< a + b
UserFunPtr ufSubFloat();  ///< a - b
UserFunPtr ufMultFloat(); ///< a * b
UserFunPtr ufDivFloat();  ///< a / b
UserFunPtr ufMaxFloat();  ///< fmax(a, b)
UserFunPtr ufMinFloat();  ///< fmin(a, b)
/// @}

} // namespace ir
} // namespace lift

#endif // LIFT_IR_USERFUN_H
