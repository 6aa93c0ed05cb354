// The benchmark is a module of its own so that it builds from this
// directory alone; the module path keeps it inside vmprim's import tree,
// which is what lets it import vmprim/internal/... through the replace.
module vmprim/benchmark

go 1.23

require vmprim v0.0.0

replace vmprim => ../
