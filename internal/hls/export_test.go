package hls

import "sort"

// Hooks for the fuzz targets in fuzz_test.go. Those live in package
// hls_test so they can seed from internal/workload, which imports hls.

// ParserTestSources returns every kernel source the parser tests use,
// well-formed and malformed, in a fixed order.
func ParserTestSources() []string {
	srcs := []string{srcVecAdd, srcDot, srcMatMul, srcNestedIf, srcCompound, srcComments, srcLocal}
	names := make([]string, 0, len(parseErrorCases))
	for name := range parseErrorCases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		srcs = append(srcs, parseErrorCases[name])
	}
	return srcs
}

// SetMaxIterations replaces Run's loop-iteration budget and returns a
// func that restores the previous one.
func SetMaxIterations(n int) (restore func()) {
	old := maxIterations
	maxIterations = n
	return func() { maxIterations = old }
}
