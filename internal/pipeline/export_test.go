package pipeline

import "github.com/oraql/go-oraql/internal/ir"

// SetVerifyHook installs f as the hook that sees every body
// post-optimization verification checks, and returns the function
// that removes it.
func SetVerifyHook(f func(*ir.Func)) (restore func()) {
	testHookVerifyFunc = f
	return func() { testHookVerifyFunc = nil }
}
