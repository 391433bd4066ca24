// The name of the CART split engine (decision_tree.h): the exact pre-sorted
// engine is the only one, so both functions are constants. Their only caller
// is the `tree_engine` field of perfbench's provenance line
// (perfbench/sweep_bench.cc); drop them together with that field.
#ifndef TG_ML_TREE_ENGINE_H_
#define TG_ML_TREE_ENGINE_H_

namespace tg::ml {

inline const char* DefaultTreeEngine() { return "exact"; }
inline const char* TreeEngineName(const char* engine) { return engine; }

}  // namespace tg::ml

#endif  // TG_ML_TREE_ENGINE_H_
